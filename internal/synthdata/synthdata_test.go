package synthdata

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"adainf/internal/dist"
	"adainf/internal/mathx"
)

func vehicleSpec() TaskSpec {
	return TaskSpec{
		Name:       "vehicle-type",
		Classes:    []string{"car", "bus", "police", "ambulance"},
		FeatureDim: 8,
		LabelDrift: dist.LabelDrift{WalkSigma: 0.4, ShockProb: 0.3, ShockScale: 2},
	}
}

func TestNewStreamValidation(t *testing.T) {
	bad := []TaskSpec{
		{},
		{Name: "x", Classes: []string{"a"}, FeatureDim: 4},
		{Name: "x", Classes: []string{"a", "b"}, FeatureDim: 0},
		{Name: "x", Classes: []string{"a", "b"}, FeatureDim: 4, InitialWeights: []float64{1}},
	}
	for i, spec := range bad {
		if _, err := NewStream(spec, 1); err == nil {
			t.Errorf("case %d: no error for invalid spec", i)
		}
	}
}

func TestStreamSampleShape(t *testing.T) {
	s, err := NewStream(vehicleSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	d := Collect(s, 100)
	if d.Len() != 100 || len(d.Classes) != 100 {
		t.Fatalf("len = %d", d.Len())
	}
	for i, c := range d.Classes {
		if c < 0 || c >= 4 {
			t.Fatalf("class out of range: %d", c)
		}
		if f := d.Features(i); len(f) != 8 || cap(f) != 8 {
			t.Fatalf("feature dim = %d, capacity %d", len(f), cap(f))
		}
	}
}

func TestStreamDeterministicForSeed(t *testing.T) {
	a, _ := NewStream(vehicleSpec(), 42)
	b, _ := NewStream(vehicleSpec(), 42)
	da, db := Collect(a, 10), Collect(b, 10)
	for i := range da.Classes {
		if da.Classes[i] != db.Classes[i] {
			t.Fatal("same seed diverged on classes")
		}
		if !slices.Equal(da.Features(i), db.Features(i)) {
			t.Fatal("same seed diverged on features")
		}
	}
}

func TestAdvancePeriodDriftsLabels(t *testing.T) {
	s, _ := NewStream(vehicleSpec(), 7)
	before := s.LabelDist()
	var totalJS float64
	for i := 0; i < 10; i++ {
		p := s.AdvancePeriod()
		if p != i+1 {
			t.Fatalf("period = %d, want %d", p, i+1)
		}
		totalJS += s.PeriodDivergence(p)
	}
	if totalJS == 0 {
		t.Fatal("10 drifting periods produced zero total divergence")
	}
	if before.JSDivergence(s.LabelDist()) == 0 {
		t.Fatal("distribution did not move after 10 periods")
	}
}

func TestZeroDriftTaskStaysPut(t *testing.T) {
	spec := TaskSpec{
		Name:       "object-detection",
		Classes:    []string{"vehicle", "person"},
		FeatureDim: 8,
		// No LabelDrift / FeatureDrift: the paper's detection task.
	}
	s, _ := NewStream(spec, 9)
	m0 := s.ClassMean(0)
	for i := 0; i < 20; i++ {
		s.AdvancePeriod()
		if d := s.PeriodDivergence(s.Period()); d != 0 {
			t.Fatalf("drift-free task diverged: %v at period %d", d, s.Period())
		}
	}
	m1 := s.ClassMean(0)
	if !slices.Equal(m0, m1) {
		t.Fatal("drift-free class mean moved")
	}
}

func TestSamplesSeparableByClass(t *testing.T) {
	// With default separation 4 and noise 1, a nearest-mean classifier
	// should get most samples right — the features must carry class
	// signal for the drift detector to work with.
	s, _ := NewStream(vehicleSpec(), 11)
	samples := Collect(s, 500)
	correct := 0
	for i, class := range samples.Classes {
		f := samples.Features(i)
		best, bestD := -1, math.Inf(1)
		for c := 0; c < 4; c++ {
			var d float64
			for j, m := range s.classMeans[c] {
				d += (f[j] - m) * (f[j] - m)
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		if best == class {
			correct++
		}
	}
	if acc := float64(correct) / float64(samples.Len()); acc < 0.9 {
		t.Fatalf("nearest-mean accuracy %v, want ≥0.9 (classes not separable)", acc)
	}
}

func TestDatasetHelpers(t *testing.T) {
	s, _ := NewStream(vehicleSpec(), 5)
	d := Collect(s, 200)
	if d.Task != "vehicle-type" || d.Len() != 200 {
		t.Fatalf("dataset = %q/%d", d.Task, d.Len())
	}
	ld := d.LabelDistribution(4)
	var sum float64
	for _, p := range ld {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("label distribution sums to %v", sum)
	}
}

func TestEmpiricalLabelDistTracksTrueDist(t *testing.T) {
	s, _ := NewStream(vehicleSpec(), 13)
	for i := 0; i < 5; i++ {
		s.AdvancePeriod()
	}
	d := Collect(s, 20000)
	emp := d.LabelDistribution(4)
	truth := s.LabelDist().Probs()
	for i := range emp {
		if math.Abs(emp[i]-truth[i]) > 0.02 {
			t.Fatalf("empirical %v vs true %v diverge at class %d", emp, truth, i)
		}
	}
}

func TestPeriodDivergencePanicsOutOfRange(t *testing.T) {
	s, _ := NewStream(vehicleSpec(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.PeriodDivergence(1) // period 1 not yet advanced
}

// collectReference draws n samples the way Collect does, eagerly and
// with a fresh feature RNG and one freshly allocated feature slice per
// sample: the draws Recollect must reproduce bit for bit.
func collectReference(s *Stream, n int) ([]int, [][]float64) {
	classes := make([]int, n)
	for i := range classes {
		classes[i] = s.labelDist.Sample(s.rng)
	}
	s.collected++
	rng := dist.NewRNG(featureSeed(s.seed, s.collected))
	rows := make([][]float64, n)
	for i, c := range classes {
		rows[i] = make([]float64, s.spec.FeatureDim)
		for j := range rows[i] {
			rows[i][j] = s.classMeans[c][j] + rng.NormFloat64()*noiseSigma
		}
	}
	return classes, rows
}

// sameDataset reports whether d holds exactly the given classes and
// feature rows, bit for bit.
func sameDataset(d *Dataset, classes []int, rows [][]float64) bool {
	if !slices.Equal(d.Classes, classes) || d.Len() != len(rows) {
		return false
	}
	for i, want := range rows {
		got := d.Features(i)
		if len(got) != len(want) || cap(got) != len(got) {
			return false
		}
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				return false
			}
		}
	}
	return true
}

// TestRecollectMatchesCollect recycles datasets over several periods,
// starting from a nil spare, a smaller one, a larger one and a
// hand-built one without a feature block. Every dataset must equal a
// twin stream's fresh draws bit for bit, every spare must be left
// empty, and a large enough spare's storage must be the one reused.
func TestRecollectMatchesCollect(t *testing.T) {
	const n = 100
	other, _ := NewStream(vehicleSpec(), 99)
	for _, c := range []struct {
		name  string
		spare func() *Dataset
	}{
		{"nil", func() *Dataset { return nil }},
		{"smaller", func() *Dataset { return Collect(other, n/2) }},
		{"larger", func() *Dataset { return Collect(other, 2*n) }},
		{"no-block", func() *Dataset { return &Dataset{Classes: make([]int, n)} }},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, _ := NewStream(vehicleSpec(), 11)
			twin, _ := NewStream(vehicleSpec(), 11)
			spare := c.spare()
			for p := 0; p < 4; p++ {
				var reused *int
				if spare != nil && cap(spare.Classes) >= n && cap(spare.block) >= n*8 {
					reused = &spare.Classes[:1][0]
				}
				got := Recollect(s, n, spare)
				classes, rows := collectReference(twin, n)
				if spare != nil && (spare.Classes != nil || spare.block != nil) {
					t.Fatalf("period %d: spare not emptied: %d samples", p, spare.Len())
				}
				if reused != nil && &got.Classes[0] != reused {
					t.Fatalf("period %d: a spare of capacity %d was not reused", p, cap(got.Classes))
				}
				if got.Task != "vehicle-type" || got.Len() != n {
					t.Fatalf("period %d: dataset %q/%d", p, got.Task, got.Len())
				}
				if !sameDataset(got, classes, rows) {
					t.Fatalf("period %d: recollected samples differ from fresh draws", p)
				}
				spare = got
				s.AdvancePeriod()
				twin.AdvancePeriod()
			}
		})
	}
}

// TestClassCountsMatchRescan checks the class counts a dataset takes
// as it is built against a rescan of its classes, for Collect, for
// Recollect over drifting and shocked periods with spares of every kind,
// and for FromRows; LabelDistribution must equal the rescan's
// distribution bit for bit.
func TestClassCountsMatchRescan(t *testing.T) {
	check := func(name string, d *Dataset, k int) {
		t.Helper()
		rescan := make([]float64, k) // the scan LabelDistribution once ran
		for _, c := range d.Classes {
			rescan[c]++
		}
		counts := make([]float64, k)
		for c, n := range d.counts {
			counts[c] = float64(n)
		}
		if !slices.Equal(counts, rescan) {
			t.Fatalf("%s: counted %v, rescan finds %v", name, counts, rescan)
		}
		want, got := mathx.Normalize(rescan), d.LabelDistribution(k)
		for c := range want {
			if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
				t.Fatalf("%s: LabelDistribution %v, rescan %v", name, got, want)
			}
		}
	}
	s, _ := NewStream(vehicleSpec(), 21)
	check("collect", Collect(s, 500), 4)
	other, _ := NewStream(vehicleSpec(), 22)
	for _, spare := range []*Dataset{nil, Collect(other, 50), Collect(other, 5000), {Classes: make([]int, 500)}} {
		for p := 0; p < 4; p++ {
			if p == 2 {
				s.Shock(dist.NewRNG(int64(p)), 0.8)
			}
			spare = Recollect(s, 500, spare)
			check(fmt.Sprintf("recollect period %d", p), spare, 4)
			s.AdvancePeriod()
		}
	}
	check("from rows", FromRows("t", []int{2, 0, 2, 3}, [][]float64{{1}, {2}, {3}, {4}}), 4)
	check("from rows, empty", FromRows("t", nil, nil), 4)
}

// TestFromRows checks that explicit rows are copied in and read back,
// and that ragged rows or a class/row count mismatch panic.
func TestFromRows(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}, {5, math.NaN()}}
	d := FromRows("t", []int{0, 1, 0}, rows)
	rows[0][0] = 9
	if !sameDataset(d, []int{0, 1, 0}, [][]float64{{1, 2}, {3, 4}, {5, math.NaN()}}) {
		t.Fatal("FromRows did not keep a copy of its rows")
	}
	if e := FromRows("t", nil, nil); e.Len() != 0 {
		t.Fatalf("empty FromRows has %d samples", e.Len())
	}
	for name, f := range map[string]func(){
		"ragged":   func() { FromRows("t", []int{0, 1}, [][]float64{{1, 2}, {3}}) },
		"mismatch": func() { FromRows("t", []int{0}, [][]float64{{1}, {2}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// checkLazyDraws collects one dataset per period from two twin streams,
// shocking both in the periods whose bit is set in shocks. The eager
// twin reads every dataset's features at collection and recycles its
// previous dataset; the lazy twin reads a random earlier dataset's
// features now and then and every remaining one only after the last
// period, datasets and samples in a random order. Both must draw the
// same classes, the lazy datasets must hold no feature block until
// read, and every feature must match the eager twin's bit for bit.
func checkLazyDraws(t *testing.T, seed int64, n, periods int, shocks uint64, order int64) {
	t.Helper()
	eager, _ := NewStream(vehicleSpec(), seed)
	lazy, _ := NewStream(vehicleSpec(), seed)
	rng := dist.NewRNG(order)
	var spare *Dataset
	want := make([][][]float64, periods)
	got := make([]*Dataset, periods)
	for p := range periods {
		e := Recollect(eager, n, spare)
		want[p] = make([][]float64, n)
		for i := range want[p] {
			want[p][i] = slices.Clone(e.Features(i))
		}
		spare = e
		got[p] = Collect(lazy, n)
		if got[p].block != nil {
			t.Fatalf("period %d: an undrawn dataset holds a feature block of %d", p, cap(got[p].block))
		}
		if !slices.Equal(got[p].Classes, e.Classes) {
			t.Fatalf("period %d: classes depend on whether features were drawn", p)
		}
		if k := rng.Intn(p + 2); k <= p {
			got[k].Features(rng.Intn(n)) // draw an earlier dataset mid-run
		}
		if shocks>>(p%64)&1 == 1 {
			eager.Shock(dist.NewRNG(seed+int64(p)), 0.6)
			lazy.Shock(dist.NewRNG(seed+int64(p)), 0.6)
		}
		eager.AdvancePeriod()
		lazy.AdvancePeriod()
	}
	for _, p := range rng.Perm(periods) {
		for _, i := range rng.Perm(n) {
			g, w := got[p].Features(i), want[p][i]
			if len(g) != len(w) {
				t.Fatalf("period %d sample %d: %d features, want %d", p, i, len(g), len(w))
			}
			for j := range g {
				if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
					t.Fatalf("period %d sample %d feature %d: lazy %v, eager %v", p, i, j, g[j], w[j])
				}
			}
		}
	}
}

// TestLazyFeaturesMatchEagerDraws runs checkLazyDraws over a few seeds,
// pool sizes and shock patterns.
func TestLazyFeaturesMatchEagerDraws(t *testing.T) {
	for _, c := range []struct {
		seed       int64
		n, periods int
		shocks     uint64
	}{
		{1, 200, 6, 0},
		{2, 50, 8, 0b10110},
		{3, 1, 5, ^uint64(0)},
		{4, 500, 3, 0b1},
	} {
		checkLazyDraws(t, c.seed, c.n, c.periods, c.shocks, c.seed*31)
	}
}

// FuzzLazyFeatures checks the same properties on random seeds, pool
// sizes, horizons, shock patterns and read orders.
func FuzzLazyFeatures(f *testing.F) {
	f.Add(int64(1), uint16(200), uint8(6), uint64(0), int64(7))
	f.Add(int64(-5), uint16(1), uint8(1), uint64(1), int64(0))
	f.Add(int64(99), uint16(37), uint8(12), uint64(0xaaaa), int64(3))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, periods uint8, shocks uint64, order int64) {
		checkLazyDraws(t, seed, 1+int(n)%1000, 1+int(periods)%16, shocks, order)
	})
}

// BenchmarkRecollect times one recycled 8000-sample pool of a
// 12-feature task: drawing its classes only, as a method without a
// drift probe does, and drawing its features as well.
func BenchmarkRecollect(b *testing.B) {
	spec := vehicleSpec()
	spec.FeatureDim = 12
	for _, c := range []struct {
		name     string
		features bool
	}{{"classes", false}, {"features", true}} {
		b.Run(c.name, func(b *testing.B) {
			s, _ := NewStream(spec, 1)
			var d *Dataset
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d = Recollect(s, 8000, d)
				if c.features {
					d.Features(0)
				}
			}
		})
	}
}
