package drift

import (
	"math"
	"testing"

	"adainf/internal/app"
	"adainf/internal/dist"
	"adainf/internal/synthdata"
)

// identicalDataset builds n samples of one class sharing one feature
// vector: a maximally degenerate window.
func identicalDataset(task string, n, dim int) *synthdata.Dataset {
	feat := make([]float64, dim)
	for i := range feat {
		feat[i] = 1.5
	}
	ds := &synthdata.Dataset{Task: task}
	for i := 0; i < n; i++ {
		ds.Samples = append(ds.Samples, synthdata.Sample{Class: 0, Features: feat})
	}
	return ds
}

// singleClassWindow collects n samples and keeps only class 0, so the
// window carries a single label and class-mix divergence has no signal.
func singleClassWindow(t *testing.T, seed int64, n int) *synthdata.Dataset {
	t.Helper()
	s, err := synthdata.NewStream(synthdata.TaskSpec{
		Name: "mono", Classes: []string{"only", "other"}, FeatureDim: 6,
		InitialWeights: []float64{0.95, 0.05},
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := &synthdata.Dataset{Task: "mono"}
	for len(out.Samples) < n {
		for _, smp := range synthdata.Collect(s, n).Samples {
			if smp.Class == 0 && len(out.Samples) < n {
				out.Samples = append(out.Samples, smp)
			}
		}
	}
	return out
}

// withFeatures returns a copy of ds whose sample i has the given
// feature vector.
func withFeatures(ds *synthdata.Dataset, i int, feat []float64) *synthdata.Dataset {
	out := &synthdata.Dataset{Task: ds.Task, Samples: append([]synthdata.Sample(nil), ds.Samples...)}
	out.Samples[i].Features = feat
	return out
}

// TestRankByDivergenceEdgeCases covers the degenerate windows the
// period-start ranking must survive: empty windows and malformed
// samples (wrong feature length, NaN or Inf features) error cleanly,
// single-class and all-identical windows rank every sample exactly
// once, and equal divergence keeps pool order (ties rank by index).
func TestRankByDivergenceEdgeCases(t *testing.T) {
	monoOld := singleClassWindow(t, 21, 60)
	monoPool := singleClassWindow(t, 22, 40)

	cases := []struct {
		name      string
		old, pool *synthdata.Dataset
		wantErr   bool
		wantLen   int
		identity  bool // ranked must be 0..n-1 (all distances tie)
	}{
		{name: "nil old window", old: nil, pool: monoPool, wantErr: true},
		{name: "empty old window", old: &synthdata.Dataset{}, pool: monoPool, wantErr: true},
		{name: "nil pool window", old: monoOld, pool: nil, wantErr: true},
		{name: "empty pool window", old: monoOld, pool: &synthdata.Dataset{}, wantErr: true},
		{name: "ragged pool sample", old: monoOld, pool: withFeatures(monoPool, 7, []float64{1, 2}), wantErr: true},
		{name: "NaN pool feature", old: monoOld,
			pool: withFeatures(monoPool, 3, []float64{1, 2, math.NaN(), 4, 5, 6}), wantErr: true},
		{name: "Inf pool feature", old: monoOld,
			pool: withFeatures(monoPool, 5, []float64{1, math.Inf(-1), 3, 4, 5, 6}), wantErr: true},
		{name: "single class", old: monoOld, pool: monoPool, wantLen: 40},
		{name: "single-sample pool", old: monoOld, pool: &synthdata.Dataset{
			Task: "mono", Samples: monoPool.Samples[:1]}, wantLen: 1, identity: true},
		{name: "all-identical distributions", old: identicalDataset("mono", 30, 6),
			pool: identicalDataset("mono", 25, 6), wantLen: 25, identity: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ranked, err := RankByDivergence(tc.old, tc.pool, 4)
			if tc.wantErr {
				if err == nil {
					t.Fatal("degenerate window accepted")
				}
				if tc.pool != nil && len(tc.pool.Samples) > 0 && tc.old != nil && len(tc.old.Samples) > 0 {
					// A malformed sample fails detection and retrain
					// selection the same way, without panicking.
					ni := &app.NodeInstance{Node: &app.Node{Name: "n"}, OldData: tc.old, Pool: tc.pool}
					if _, err := DetectNode(ni, Config{}, nil); err == nil {
						t.Fatal("DetectNode accepted the window")
					}
					if _, err := SelectRetrainSamples(ni, 5, 4); err == nil {
						t.Fatal("SelectRetrainSamples accepted the window")
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(ranked) != tc.wantLen {
				t.Fatalf("ranking covers %d of %d", len(ranked), tc.wantLen)
			}
			seen := make([]bool, tc.wantLen)
			for pos, idx := range ranked {
				if idx < 0 || idx >= tc.wantLen || seen[idx] {
					t.Fatalf("ranking is not a permutation: idx %d at pos %d", idx, pos)
				}
				seen[idx] = true
				if tc.identity && idx != pos {
					t.Fatalf("tied divergences reordered: pos %d got idx %d", pos, idx)
				}
			}
		})
	}
}

// TestDetectNodeEdgeCases covers the degenerate pools the probe loop
// must survive: missing windows error before any probing, a pool
// collapsed onto one class still yields a full stability-checked
// report, and a pool drawn from the training distribution itself (all
// distributions identical) reports no impact.
func TestDetectNodeEdgeCases(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(t *testing.T, ni *app.NodeInstance)
		wantErr  bool
		impacted bool
		check    bool // assert the impacted field
	}{
		{
			name:    "empty pool window",
			mutate:  func(t *testing.T, ni *app.NodeInstance) { ni.Pool = &synthdata.Dataset{} },
			wantErr: true,
		},
		{
			name:    "no old training window",
			mutate:  func(t *testing.T, ni *app.NodeInstance) { ni.OldData = &synthdata.Dataset{} },
			wantErr: true,
		},
		{
			name: "single-class pool",
			mutate: func(t *testing.T, ni *app.NodeInstance) {
				ds := &synthdata.Dataset{Task: ni.Node.Task.Name}
				rng := dist.NewRNG(31)
				for i := 0; i < 300; i++ {
					feat := ni.Stream.ClassMean(0)
					for j := range feat {
						feat[j] += rng.NormFloat64()
					}
					ds.Samples = append(ds.Samples, synthdata.Sample{Class: 0, Features: feat})
				}
				ni.Pool = ds
			},
		},
		{
			name: "identical training and pool distributions",
			mutate: func(t *testing.T, ni *app.NodeInstance) {
				clone := &synthdata.Dataset{Task: ni.Node.Task.Name}
				clone.Samples = append(clone.Samples, ni.OldData.Samples...)
				ni.Pool = clone
			},
			check: true, impacted: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst := surveillanceInstance(t, 19, 1)
			ni := inst.ByName["vehicle-type"]
			tc.mutate(t, ni)
			rep, err := DetectNode(ni, Config{}, dist.NewRNG(4))
			if tc.wantErr {
				if err == nil {
					t.Fatal("degenerate window accepted")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Rounds) == 0 {
				t.Fatal("no probe rounds recorded")
			}
			if tc.check && rep.Impacted != tc.impacted {
				t.Fatalf("impacted = %v (degree %v), want %v", rep.Impacted, rep.ImpactDegree, tc.impacted)
			}
			// The probe must be a pure function of (node, config, rng seed).
			inst2 := surveillanceInstance(t, 19, 1)
			ni2 := inst2.ByName["vehicle-type"]
			tc.mutate(t, ni2)
			rep2, err := DetectNode(ni2, Config{}, dist.NewRNG(4))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Impacted != rep2.Impacted || rep.ImpactDegree != rep2.ImpactDegree ||
				rep.FinalS != rep2.FinalS || len(rep.Rounds) != len(rep2.Rounds) {
				t.Fatal("detection not deterministic on a degenerate pool")
			}
		})
	}
}

// TestConfigValidation rejects out-of-range detector settings before
// any probing; zero fields still take the defaults.
func TestConfigValidation(t *testing.T) {
	bad := map[string]Config{
		"NaN InitialS":          {InitialS: math.NaN()},
		"negative InitialS":     {InitialS: -0.1},
		"InitialS above 1":      {InitialS: 1.5},
		"NaN StepS":             {StepS: math.NaN()},
		"negative StepS":        {StepS: -0.03, StableRounds: 1 << 40},
		"StepS above 1":         {StepS: math.Inf(1)},
		"negative StableRounds": {StableRounds: -1},
	}
	inst := surveillanceInstance(t, 19, 1)
	ni := inst.ByName["vehicle-type"]
	for name, cfg := range bad {
		if _, err := DetectNode(ni, cfg, nil); err == nil {
			t.Errorf("%s: DetectNode accepted %+v", name, cfg)
		}
		if _, err := DetectApp(inst, cfg, nil); err == nil {
			t.Errorf("%s: DetectApp accepted %+v", name, cfg)
		}
	}
	for _, cfg := range []Config{{}, {InitialS: 1, StepS: 1, StableRounds: 1}, {InitialS: 0.5, StepS: 0.25, StableRounds: 2}} {
		if _, err := DetectNode(ni, cfg, nil); err != nil {
			t.Errorf("valid %+v rejected: %v", cfg, err)
		}
	}
}
