package drift

import (
	"testing"

	"adainf/internal/app"
	"adainf/internal/dist"
	"adainf/internal/dnn"
	"adainf/internal/synthdata"
)

func surveillanceInstance(t testing.TB, seed int64, periods int) *app.Instance {
	t.Helper()
	inst, err := app.NewInstance(app.VideoSurveillance(), app.InstanceConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < periods; p++ {
		inst.AdvancePeriod(0)
	}
	return inst
}

func TestRankByDivergenceErrors(t *testing.T) {
	if _, err := RankByDivergence(nil, &synthdata.Dataset{}, 4); err == nil {
		t.Error("nil old accepted")
	}
	s, _ := synthdata.NewStream(synthdata.TaskSpec{
		Name: "x", Classes: []string{"a", "b"}, FeatureDim: 4,
	}, 1)
	old := synthdata.Collect(s, 50)
	if _, err := RankByDivergence(old, &synthdata.Dataset{}, 4); err == nil {
		t.Error("empty pool accepted")
	}
}

func TestRankByDivergenceOrdersShiftedSamplesFirst(t *testing.T) {
	// Old data is almost entirely class 0; pool is an even mix. The
	// class-1 samples (far from the old mixture mean) must dominate
	// the top of the ranking.
	spec := synthdata.TaskSpec{
		Name: "t", Classes: []string{"common", "rare"}, FeatureDim: 8,
		InitialWeights: []float64{0.97, 0.03},
	}
	s, err := synthdata.NewStream(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	old := synthdata.Collect(s, 400)
	// Build a pool with an even mix by resampling until balanced.
	pool := &synthdata.Dataset{Task: "t"}
	var n0, n1 int
	for n0 < 100 || n1 < 100 {
		smp := synthdata.Collect(s, 1).Samples[0]
		if smp.Class == 0 && n0 < 100 {
			pool.Samples = append(pool.Samples, smp)
			n0++
		}
		if smp.Class == 1 && n1 < 100 {
			pool.Samples = append(pool.Samples, smp)
			n1++
		}
	}
	ranked, err := RankByDivergence(old, pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 200 {
		t.Fatalf("ranking covers %d of 200", len(ranked))
	}
	rareOnTop := 0
	for _, idx := range ranked[:50] {
		if pool.Samples[idx].Class == 1 {
			rareOnTop++
		}
	}
	if rareOnTop < 40 {
		t.Fatalf("only %d/50 top-divergent samples are the shifted class", rareOnTop)
	}
}

func TestDetectNodeDriftFreeModelNotImpacted(t *testing.T) {
	inst := surveillanceInstance(t, 7, 3)
	det := inst.ByName["object-detection"]
	rep, err := DetectNode(det, Config{}, dist.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Impacted {
		t.Fatalf("drift-free detector flagged as impacted: %+v", rep)
	}
	if rep.ImpactDegree != 0 {
		t.Fatalf("impact degree = %v for unimpacted model", rep.ImpactDegree)
	}
}

func TestDetectNodeDriftedModelImpacted(t *testing.T) {
	// Force a large, unambiguous shift so the probe must notice.
	inst := surveillanceInstance(t, 3, 0)
	veh := inst.ByName["vehicle-type"]
	shock, err := dist.NewCategorical(veh.Node.Task.Classes, []float64{0.05, 0.05, 0.1, 0.4, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	veh.State = rebindKnowledge(t, veh, []float64{0.7, 0.15, 0.1, 0.03, 0.02})
	veh.Pool = poolFromDist(t, veh, shock, 1000)
	rep, err := DetectNode(veh, Config{}, dist.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Impacted {
		t.Fatalf("shifted model not flagged: %+v", rep)
	}
	if rep.ImpactDegree <= 0.02 {
		t.Fatalf("impact degree = %v, want sizeable", rep.ImpactDegree)
	}
	if len(rep.Rounds) < 4 {
		t.Fatalf("only %d rounds recorded, stability needs ≥4", len(rep.Rounds))
	}
	if rep.FinalS >= 1 {
		t.Fatalf("detector scanned 100%% of samples; should stop early (Table 2)")
	}
}

// rebindKnowledge gives the node a model state trained on the given mix.
func rebindKnowledge(t *testing.T, ni *app.NodeInstance, weights []float64) *dnn.State {
	t.Helper()
	d, err := dist.NewCategorical(ni.Node.Task.Classes, weights)
	if err != nil {
		t.Fatal(err)
	}
	return dnn.NewState(ni.Arch, d)
}

// poolFromDist replaces the node's pool with samples whose labels follow
// the target mix but whose features come from the live generators.
func poolFromDist(t *testing.T, ni *app.NodeInstance, target *dist.Categorical, n int) *synthdata.Dataset {
	t.Helper()
	rng := dist.NewRNG(99)
	ds := &synthdata.Dataset{Task: ni.Node.Task.Name}
	for i := 0; i < n; i++ {
		c := target.Sample(rng)
		feat := ni.Stream.ClassMean(c)
		for j := range feat {
			feat[j] += rng.NormFloat64()
		}
		ds.Samples = append(ds.Samples, synthdata.Sample{Class: c, Features: feat})
	}
	return ds
}

func TestDetectAppAllNodes(t *testing.T) {
	inst := surveillanceInstance(t, 11, 4)
	reps, err := DetectApp(inst, Config{}, dist.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("reports = %d", len(reps))
	}
	for name, rep := range reps {
		if rep.Node != name {
			t.Errorf("report %q mislabeled %q", name, rep.Node)
		}
		if len(rep.Rounds) == 0 {
			t.Errorf("%s: no rounds traced", name)
		}
	}
}

func TestSelectRetrainSamples(t *testing.T) {
	inst := surveillanceInstance(t, 13, 2)
	veh := inst.ByName["vehicle-type"]
	first, err := SelectRetrainSamples(veh, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 100 {
		t.Fatalf("selected %d", len(first))
	}
	// A second job must not reuse the same samples (§3.3.2).
	second, err := SelectRetrainSamples(veh, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool, len(first))
	for _, idx := range first {
		seen[idx] = true
	}
	for _, idx := range second {
		if seen[idx] {
			t.Fatalf("sample %d reused across jobs", idx)
		}
	}
	// Budget exhaustion caps the selection.
	veh.UsedSamples = len(veh.Pool.Samples) - 5
	rest, err := SelectRetrainSamples(veh, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 5 {
		t.Fatalf("over-budget selection = %d, want 5", len(rest))
	}
	if got, _ := SelectRetrainSamples(veh, 100, 4); got != nil {
		t.Fatalf("exhausted pool returned %d samples", len(got))
	}
	if got, _ := SelectRetrainSamples(veh, 0, 4); got != nil {
		t.Fatal("n=0 returned samples")
	}
}

func TestDetectionDeterministicForSeed(t *testing.T) {
	a := surveillanceInstance(t, 17, 3)
	b := surveillanceInstance(t, 17, 3)
	ra, err := DetectApp(a, Config{}, dist.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := DetectApp(b, Config{}, dist.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	for name := range ra {
		if ra[name].Impacted != rb[name].Impacted || ra[name].ImpactDegree != rb[name].ImpactDegree {
			t.Fatalf("%s: nondeterministic detection", name)
		}
	}
}
