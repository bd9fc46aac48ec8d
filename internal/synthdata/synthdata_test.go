package synthdata

import (
	"math"
	"slices"
	"testing"

	"adainf/internal/dist"
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
	samples := Collect(s, 100).Samples
	if len(samples) != 100 {
		t.Fatalf("len = %d", len(samples))
	}
	for _, smp := range samples {
		if smp.Class < 0 || smp.Class >= 4 {
			t.Fatalf("class out of range: %d", smp.Class)
		}
		if len(smp.Features) != 8 {
			t.Fatalf("feature dim = %d", len(smp.Features))
		}
		if smp.Period != 0 {
			t.Fatalf("period = %d, want 0", smp.Period)
		}
	}
}

func TestStreamDeterministicForSeed(t *testing.T) {
	a, _ := NewStream(vehicleSpec(), 42)
	b, _ := NewStream(vehicleSpec(), 42)
	sa := Collect(a, 10).Samples
	sb := Collect(b, 10).Samples
	for i := range sa {
		if sa[i].Class != sb[i].Class {
			t.Fatal("same seed diverged on classes")
		}
		for j := range sa[i].Features {
			if sa[i].Features[j] != sb[i].Features[j] {
				t.Fatal("same seed diverged on features")
			}
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
	samples := Collect(s, 500).Samples
	correct := 0
	for _, smp := range samples {
		best, bestD := -1, math.Inf(1)
		for c := 0; c < 4; c++ {
			var d float64
			for j, m := range s.classMeans[c] {
				d += (smp.Features[j] - m) * (smp.Features[j] - m)
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		if best == smp.Class {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(samples)); acc < 0.9 {
		t.Fatalf("nearest-mean accuracy %v, want ≥0.9 (classes not separable)", acc)
	}
}

func TestDatasetHelpers(t *testing.T) {
	s, _ := NewStream(vehicleSpec(), 5)
	d := Collect(s, 200)
	if d.Task != "vehicle-type" || len(d.Samples) != 200 {
		t.Fatalf("dataset = %q/%d", d.Task, len(d.Samples))
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

// collectReference draws n samples the way Collect does, but with one
// freshly allocated feature slice per sample: the draw order Recollect
// must reproduce bit for bit.
func collectReference(s *Stream, n int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		c := s.labelDist.Sample(s.rng)
		f := make([]float64, s.spec.FeatureDim)
		for j := range f {
			f[j] = s.classMeans[c][j] + s.rng.NormFloat64()*s.noise
		}
		out[i] = Sample{Class: c, Features: f, Period: s.period}
	}
	return out
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
		{"no-block", func() *Dataset { return &Dataset{Samples: make([]Sample, n)} }},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, _ := NewStream(vehicleSpec(), 11)
			twin, _ := NewStream(vehicleSpec(), 11)
			spare := c.spare()
			for p := 0; p < 4; p++ {
				var reused *Sample
				if spare != nil && cap(spare.Samples) >= n && cap(spare.block) >= n*8 {
					reused = &spare.Samples[:1][0]
				}
				got := Recollect(s, n, spare)
				want := collectReference(twin, n)
				if spare != nil && (spare.Samples != nil || spare.block != nil) {
					t.Fatalf("period %d: spare not emptied: %d samples", p, len(spare.Samples))
				}
				if reused != nil && &got.Samples[0] != reused {
					t.Fatalf("period %d: a spare of capacity %d was not reused", p, cap(got.Samples))
				}
				if got.Task != "vehicle-type" || len(got.Samples) != n {
					t.Fatalf("period %d: dataset %q/%d", p, got.Task, len(got.Samples))
				}
				for i, g := range got.Samples {
					w := want[i]
					if g.Class != w.Class || g.Period != w.Period || len(g.Features) != len(w.Features) {
						t.Fatalf("period %d sample %d: %+v, want %+v", p, i, g, w)
					}
					if cap(g.Features) != len(g.Features) {
						t.Fatalf("period %d sample %d: feature row has spare capacity %d", p, i, cap(g.Features))
					}
					for j := range g.Features {
						if math.Float64bits(g.Features[j]) != math.Float64bits(w.Features[j]) {
							t.Fatalf("period %d sample %d feature %d: %v, want %v", p, i, j, g.Features[j], w.Features[j])
						}
					}
				}
				spare = got
				s.AdvancePeriod()
				twin.AdvancePeriod()
			}
		})
	}
}
