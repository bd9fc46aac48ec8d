package drift

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"adainf/internal/app"
	"adainf/internal/dist"
	"adainf/internal/mathx"
	"adainf/internal/synthdata"
)

// referenceRank is the full-sort ranking DetectNode's top-k heap
// replaces: every sample projected into a fresh vector, the old mean
// recomputed from the samples, the cosine distance computed from
// scratch, and a stable sort on decreasing distance alone.
func referenceRank(t testing.TB, old, pool *synthdata.Dataset, pcaComponents int) []int {
	t.Helper()
	rows := make([][]float64, len(old.Samples))
	for i, s := range old.Samples {
		rows[i] = s.Features
	}
	pca, err := mathx.FitPCA(rows, pcaComponents)
	if err != nil {
		t.Fatal(err)
	}
	oldMean := pca.Project(mathx.Mean(rows))
	xs := make([]scored, len(pool.Samples))
	for i, s := range pool.Samples {
		xs[i] = scored{idx: i, dist: cosineDistance(pca.Project(s.Features), oldMean)}
	}
	slices.SortStableFunc(xs, func(a, b scored) int {
		switch {
		case a.dist > b.dist:
			return -1
		case a.dist < b.dist:
			return 1
		}
		return 0
	})
	out := make([]int, len(xs))
	for i, s := range xs {
		out[i] = s.idx
	}
	return out
}

// cosineDistance is 1 − cos(a, b), with similarity 0 for a zero vector
// and the cosine clamped to [−1, 1].
func cosineDistance(a, b []float64) float64 {
	na, nb := mathx.Norm(a), mathx.Norm(b)
	if na == 0 || nb == 0 {
		return 1
	}
	return 1 - math.Max(-1, math.Min(1, mathx.Dot(a, b)/(na*nb)))
}

// referenceDetectNode is DetectNode's S-growth loop over referenceRank,
// re-summing the top n samples from scratch every round.
func referenceDetectNode(t testing.TB, ni *app.NodeInstance, cfg Config) Report {
	t.Helper()
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	rep := Report{Node: ni.Node.Name, InitialAccuracy: ni.InitialAccuracy}
	ranked := referenceRank(t, ni.OldData, ni.Pool, pcaComponents)
	poolDist, err := ni.PoolDist()
	if err != nil {
		t.Fatal(err)
	}
	full := ni.FullStructure()
	stable := 0
	var last bool
	for s := cfg.InitialS; ; s += cfg.StepS {
		if s > 1 {
			s = 1
		}
		n := max(int(s*float64(len(ranked))), 1)
		var sum float64
		for _, idx := range ranked[:n] {
			sum += ni.State.CorrectProb(ni.Pool.Samples[idx].Class, poolDist, full)
		}
		acc := sum / float64(n)
		impacted := acc < rep.InitialAccuracy-impactMargin
		rep.Rounds = append(rep.Rounds, Round{SFraction: s, SampleCount: n, ProbeAccuracy: acc, Impacted: impacted})
		rep.ProbeAccuracy, rep.FinalS = acc, s
		if len(rep.Rounds) > 1 && impacted == last {
			stable++
		} else {
			stable = 1
		}
		last = impacted
		if stable >= cfg.StableRounds || s >= 1 {
			rep.Impacted = impacted
			break
		}
	}
	if rep.Impacted {
		rep.ImpactDegree = max(rep.InitialAccuracy-rep.ProbeAccuracy, 0)
	}
	return rep
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkMatchesReference runs DetectNode and RankByDivergence on ni and
// fails unless both agree bit for bit with the full-sort reference.
func checkMatchesReference(t testing.TB, ni *app.NodeInstance, cfg Config) {
	t.Helper()
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	want := referenceDetectNode(t, ni, cfg)
	got, err := DetectNode(ni, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Impacted != want.Impacted || !sameBits(got.ImpactDegree, want.ImpactDegree) ||
		!sameBits(got.ProbeAccuracy, want.ProbeAccuracy) || !sameBits(got.FinalS, want.FinalS) ||
		len(got.Rounds) != len(want.Rounds) {
		t.Fatalf("%s %+v: report %+v, reference %+v", ni.Node.Name, cfg, got, want)
	}
	for i, r := range got.Rounds {
		w := want.Rounds[i]
		if r.SampleCount != w.SampleCount || r.Impacted != w.Impacted ||
			!sameBits(r.SFraction, w.SFraction) || !sameBits(r.ProbeAccuracy, w.ProbeAccuracy) {
			t.Fatalf("%s %+v: round %d = %+v, reference %+v", ni.Node.Name, cfg, i, r, w)
		}
	}
	for _, k := range []int{pcaComponents, 2} {
		ranked, err := RankByDivergence(ni.OldData, ni.Pool, k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ranked, referenceRank(t, ni.OldData, ni.Pool, k)) {
			t.Fatalf("%s: RankByDivergence(%d) differs from the stable full sort", ni.Node.Name, k)
		}
	}
}

// duplicatedPool draws n samples from only `distinct` prototypes, so
// most distances tie exactly and the ranking depends on the index
// tie-break. Copies of a prototype keep its features but take a fresh
// class, so a wrong tie order changes the probe's class mix.
func duplicatedPool(ni *app.NodeInstance, seed int64, n, distinct int) *synthdata.Dataset {
	rng := dist.NewRNG(seed)
	k := len(ni.Node.Task.Classes)
	protos := make([][]float64, distinct)
	for i := range protos {
		protos[i] = ni.Stream.ClassMean(rng.Intn(k))
		for j := range protos[i] {
			protos[i][j] += rng.NormFloat64()
		}
	}
	ds := &synthdata.Dataset{Task: ni.Node.Task.Name}
	for i := 0; i < n; i++ {
		ds.Samples = append(ds.Samples, synthdata.Sample{Class: rng.Intn(k), Features: protos[rng.Intn(distinct)]})
	}
	return ds
}

var equivalenceConfigs = []Config{
	{},
	{InitialS: 1, StepS: 1, StableRounds: 1}, // the whole pool is popped
	{InitialS: 0.01, StepS: 0.07, StableRounds: 6},
}

// TestDetectNodeMatchesFullSortReference pins the top-k heap to the
// full stable sort it replaced, on catalog nodes advanced over several
// periods and on pools full of exact distance ties.
func TestDetectNodeMatchesFullSortReference(t *testing.T) {
	apps := app.Catalog()
	if testing.Short() {
		apps = apps[:2]
	}
	for ai, a := range apps {
		inst, err := app.NewInstance(a, app.InstanceConfig{Seed: int64(40 + ai), PoolSamples: 1500})
		if err != nil {
			t.Fatal(err)
		}
		for period := 0; period < 4; period++ {
			for ni, n := range inst.Nodes() {
				for _, cfg := range equivalenceConfigs {
					checkMatchesReference(t, n, cfg)
				}
				if (period+ni)%2 == 0 {
					n.NoteTrained() // next period ranks against this pool
				}
			}
			inst.AdvancePeriod(0)
		}
	}
	inst := surveillanceInstance(t, 23, 2)
	for _, ni := range inst.Nodes() {
		for _, distinct := range []int{1, 3, 40} {
			ni.Pool = duplicatedPool(ni, int64(distinct), 900, distinct)
			for _, cfg := range equivalenceConfigs {
				checkMatchesReference(t, ni, cfg)
			}
		}
	}
}

// FuzzDetectNodeRanking checks the same property on random pools,
// tie densities and S schedules.
func FuzzDetectNodeRanking(f *testing.F) {
	f.Add(int64(1), uint16(500), uint8(0), uint8(2), uint8(2), uint8(3))
	f.Add(int64(2), uint16(37), uint8(3), uint8(99), uint8(99), uint8(0))
	f.Add(int64(3), uint16(1), uint8(1), uint8(0), uint8(50), uint8(1))
	base := surveillanceInstance(f, 29, 1).Nodes()
	f.Fuzz(func(t *testing.T, seed int64, size uint16, distinct, initial, step, stable uint8) {
		ni := *base[uint64(seed)%uint64(len(base))]
		n := 1 + int(size)%2000
		protos := int(distinct)
		if protos == 0 {
			protos = n // mostly distinct features
		}
		ni.Pool = duplicatedPool(&ni, seed, n, protos)
		checkMatchesReference(t, &ni, Config{
			InitialS:     float64(initial%100+1) / 100,
			StepS:        float64(step%100+1) / 100,
			StableRounds: 1 + int(stable)%6,
		})
	})
}

// TestDetectNodeAllocsIndependentOfPoolSize guards allocation-free
// scoring and ranking: a pool four times larger must not cost a single
// extra allocation. The S schedule is fixed at four rounds so the
// Rounds slice grows the same way for both pools.
func TestDetectNodeAllocsIndependentOfPoolSize(t *testing.T) {
	ni := surveillanceInstance(t, 31, 1).ByName["vehicle-type"]
	big := synthdata.Collect(ni.Stream, 8000)
	cfg := Config{InitialS: 0.25, StepS: 0.25, StableRounds: 4}
	allocs := func(pool *synthdata.Dataset) float64 {
		ni.Pool = pool
		return testing.AllocsPerRun(5, func() {
			if _, err := DetectNode(ni, cfg, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := allocs(&synthdata.Dataset{Task: big.Task, Samples: big.Samples[:2000]})
	large := allocs(big)
	if small != large {
		t.Fatalf("DetectNode allocs: %v on 2000 samples, %v on 8000", small, large)
	}
}

// TestScratchDetectAppAllocsIndependentOfPoolSize guards the reused
// detection buffers: once a Scratch is warm, detecting over an
// 8000-sample pool costs no more allocations than over a 1000-sample
// one, and fewer than fresh buffers, which allocate the PCA rows and
// the scores for every node.
func TestScratchDetectAppAllocsIndependentOfPoolSize(t *testing.T) {
	cfg := Config{InitialS: 0.25, StepS: 0.25, StableRounds: 4}
	instance := func(pool int) *app.Instance {
		inst, err := app.NewInstance(app.VideoSurveillance(), app.InstanceConfig{Seed: 31, PoolSamples: pool})
		if err != nil {
			t.Fatal(err)
		}
		inst.AdvancePeriod(0)
		inst.AdvancePeriod(0)
		return inst
	}
	allocs := func(inst *app.Instance, detect func(*app.Instance, Config, *rand.Rand) (map[string]Report, error)) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := detect(inst, cfg, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	var sc Scratch
	small, large := instance(1000), instance(8000)
	warmSmall, warmLarge := allocs(small, sc.DetectApp), allocs(large, sc.DetectApp)
	if warmSmall != warmLarge {
		t.Fatalf("warm Scratch.DetectApp allocs: %v on 1000-sample pools, %v on 8000", warmSmall, warmLarge)
	}
	if fresh := allocs(large, DetectApp); warmLarge >= fresh {
		t.Fatalf("warm Scratch.DetectApp allocs %v, fresh DetectApp %v", warmLarge, fresh)
	}
}

// TestScratchReuseMatchesFresh runs one Scratch over pools that shrink
// and grow, across applications and periods: every report must equal
// the one fresh buffers give, so nothing left in the scratch by an
// earlier, larger pool leaks into a later detection.
func TestScratchReuseMatchesFresh(t *testing.T) {
	var sc Scratch
	for i, pool := range []int{8000, 1000, 3000} {
		for _, a := range []*app.App{app.VideoSurveillance(), app.BikeRackOccupancy()} {
			inst, err := app.NewInstance(a, app.InstanceConfig{Seed: int64(40 + i), PoolSamples: pool})
			if err != nil {
				t.Fatal(err)
			}
			inst.AdvancePeriod(0)
			got, err := sc.DetectApp(inst, Config{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := DetectApp(inst, Config{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s pool %d: reused scratch %+v, fresh %+v", a.Name, pool, got, want)
			}
		}
	}
}

// BenchmarkDetectApp runs period-start drift detection over the catalog
// applications with 8000-sample pools, the serving workloads' pool size.
func BenchmarkDetectApp(b *testing.B) {
	var insts []*app.Instance
	for i, a := range app.Catalog() {
		inst, err := app.NewInstance(a, app.InstanceConfig{Seed: int64(i + 1), PoolSamples: 8000})
		if err != nil {
			b.Fatal(err)
		}
		inst.AdvancePeriod(0)
		insts = append(insts, inst)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, inst := range insts {
			if _, err := DetectApp(inst, Config{}, rng); err != nil {
				b.Fatal(err)
			}
		}
	}
}
