package drift

import (
	"slices"
	"testing"

	"adainf/internal/app"
	"adainf/internal/dist"
	"adainf/internal/dnn"
	"adainf/internal/synthdata"
)

func surveillanceInstance(t testing.TB, seed int64, periods int) *app.Instance {
	t.Helper()
	inst, err := app.NewInstance(app.VideoSurveillance(), app.InstanceConfig{Seed: seed, PoolSamples: 1000})
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
	var classes []int
	var rows [][]float64
	var count [2]int
	for count[0] < 100 || count[1] < 100 {
		smp := synthdata.Collect(s, 1)
		if c := smp.Classes[0]; count[c] < 100 {
			// The next Collect's draw takes over the stream's feature
			// block, so keep a copy of the row.
			classes, rows = append(classes, c), append(rows, slices.Clone(smp.Features(0)))
			count[c]++
		}
	}
	pool := synthdata.FromRows("t", classes, rows)
	ranked, err := RankByDivergence(old, pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 200 {
		t.Fatalf("ranking covers %d of 200", len(ranked))
	}
	rareOnTop := 0
	for _, idx := range ranked[:50] {
		if pool.Classes[idx] == 1 {
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
	classes, rows := make([]int, n), make([][]float64, n)
	for i := range classes {
		c := target.Sample(rng)
		feat := ni.Stream.ClassMean(c)
		for j := range feat {
			feat[j] += rng.NormFloat64()
		}
		classes[i], rows[i] = c, feat
	}
	return synthdata.FromRows(ni.Node.Task.Name, classes, rows)
}

func TestDetectAppAllNodes(t *testing.T) {
	inst := surveillanceInstance(t, 11, 4)
	reps, err := new(Scratch).DetectApp(inst, Config{})
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
	var sc Scratch
	first, err := sc.SelectRetrainSamples(veh, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 100 {
		t.Fatalf("selected %d", len(first))
	}
	// A second job must not reuse the same samples (§3.3.2).
	second, err := sc.SelectRetrainSamples(veh, 100)
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
	veh.UsedSamples = veh.Pool.Len() - 5
	rest, err := sc.SelectRetrainSamples(veh, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 5 {
		t.Fatalf("over-budget selection = %d, want 5", len(rest))
	}
	if got, _ := sc.SelectRetrainSamples(veh, 100); got != nil {
		t.Fatalf("exhausted pool returned %d samples", len(got))
	}
	if got, _ := sc.SelectRetrainSamples(veh, 0); got != nil {
		t.Fatal("n=0 returned samples")
	}
}

// TestSelectRetrainSamplesSlicesOneRanking takes a period's samples in
// jobs of uneven sizes that exhaust it, on a scratch that also detects
// in between, and across retrainings that move the node's reference:
// each period's selections must be consecutive slices of one
// RankByDivergence ranking of that period's pool.
func TestSelectRetrainSamplesSlicesOneRanking(t *testing.T) {
	inst := surveillanceInstance(t, 19, 1)
	ni := inst.ByName["vehicle-type"]
	var sc Scratch
	for period := 0; period < 3; period++ {
		want, err := RankByDivergence(ni.OldData, ni.Pool, pcaComponents)
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for job, n := range []int{1, 250, 7, 1000, 3} {
			if job == 2 {
				if _, err := sc.DetectNode(ni, Config{}); err != nil {
					t.Fatal(err)
				}
			}
			picked, err := sc.SelectRetrainSamples(ni, n)
			if err != nil {
				t.Fatal(err)
			}
			end := min(len(got)+n, len(want))
			if !slices.Equal(picked, want[len(got):end]) {
				t.Fatalf("period %d job %d: selected %v, want ranks %d..%d of the full ranking",
					period, job, picked, len(got), end)
			}
			got = append(got, picked...)
		}
		if len(got) != len(want) {
			t.Fatalf("period %d: the jobs selected %d of %d samples", period, len(got), len(want))
		}
		ni.NoteTrained()
		inst.AdvancePeriod(0)
	}
}

func TestDetectionDeterministicForSeed(t *testing.T) {
	a := surveillanceInstance(t, 17, 3)
	b := surveillanceInstance(t, 17, 3)
	ra, err := new(Scratch).DetectApp(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := new(Scratch).DetectApp(b, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for name := range ra {
		if ra[name].Impacted != rb[name].Impacted || ra[name].ImpactDegree != rb[name].ImpactDegree {
			t.Fatalf("%s: nondeterministic detection", name)
		}
	}
}
