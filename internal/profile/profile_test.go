package profile

import (
	"math"
	"strings"
	"testing"
	"time"

	"adainf/internal/app"
	"adainf/internal/gpu"
	"adainf/internal/gpumem"
)

// buildVS profiles the video-surveillance app once for the whole test
// package (profiling sweeps ~100 executor runs).
var vsProfile *AppProfile

func vs(t *testing.T) *AppProfile {
	t.Helper()
	if vsProfile == nil {
		ap, err := BuildAppProfile(app.VideoSurveillance(), Config{
			Strategy:  gpu.Strategy{MaximizeUsage: true},
			NewPolicy: func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: 0.4} },
		})
		if err != nil {
			t.Fatal(err)
		}
		vsProfile = ap
	}
	return vsProfile
}

func fullOf(t *testing.T, ap *AppProfile, node string) *StructureProfile {
	t.Helper()
	sps := ap.Structures[node]
	if len(sps) == 0 {
		t.Fatalf("no profiles for %s", node)
	}
	return sps[len(sps)-1]
}

func TestBuildAppProfileCoversAllStructures(t *testing.T) {
	ap := vs(t)
	if len(ap.Structures) != 3 || len(ap.Retrain) != 3 {
		t.Fatalf("profiles cover %d/%d nodes", len(ap.Structures), len(ap.Retrain))
	}
	// TinyYOLOv3 has 24 layers → 7 exits + full = 8 structures.
	if got := len(ap.Structures["object-detection"]); got != 8 {
		t.Fatalf("detection structures = %d, want 8", got)
	}
	for node, sps := range ap.Structures {
		for _, sp := range sps {
			for _, b := range DefaultBatchSizes {
				if _, ok := sp.Points[b][1.0]; !ok {
					t.Fatalf("%s/%v missing full-GPU cell for batch %d", node, sp.Structure, b)
				}
			}
		}
	}
}

func TestOptimalBatchShiftsWithGPUSpace(t *testing.T) {
	// The Fig. 9 result: optimum 4, 8, 16, 16 at 25%, 50%, 75%, 100%.
	ap := vs(t)
	wcApp := func(batch int, frac float64) time.Duration {
		var tot time.Duration
		for _, node := range []string{"object-detection", "vehicle-type", "person-activity"} {
			wc, err := fullOf(t, ap, node).WorstCase(batch, 32, frac)
			if err != nil {
				t.Fatal(err)
			}
			tot += wc
		}
		return tot
	}
	optimum := func(frac float64) int {
		best, bestLat := 0, time.Duration(0)
		for _, b := range DefaultBatchSizes {
			lat := wcApp(b, frac)
			if best == 0 || lat < bestLat {
				best, bestLat = b, lat
			}
		}
		return best
	}
	cases := []struct {
		frac float64
		want int
	}{{0.25, 4}, {0.5, 8}, {0.75, 16}, {1.0, 16}}
	for _, tc := range cases {
		if got := optimum(tc.frac); got != tc.want {
			t.Errorf("optimal batch at %.0f%% GPU = %d, want %d", tc.frac*100, got, tc.want)
		}
	}
}

func TestWorstCaseUShape(t *testing.T) {
	// Fig. 8: worst-case latency falls then rises across batch sizes.
	ap := vs(t)
	sp := fullOf(t, ap, "object-detection")
	wc1, _ := sp.WorstCase(1, 32, 1.0)
	wc16, _ := sp.WorstCase(16, 32, 1.0)
	wc64, _ := sp.WorstCase(64, 32, 1.0)
	if !(wc16 < wc1 && wc16 < wc64) {
		t.Fatalf("no U-shape: wc(1)=%v wc(16)=%v wc(64)=%v", wc1, wc16, wc64)
	}
}

func TestCommFractionAtOptimum(t *testing.T) {
	// Fig. 11: communication ≈24% of per-batch latency at the optimum.
	ap := vs(t)
	cf, err := fullOf(t, ap, "object-detection").CommFraction(16)
	if err != nil {
		t.Fatal(err)
	}
	if cf < 0.15 || cf > 0.35 {
		t.Fatalf("comm fraction at batch 16 = %.0f%%, want ~24%%", cf*100)
	}
}

func TestPerBatchMonotoneInBatch(t *testing.T) {
	ap := vs(t)
	sp := fullOf(t, ap, "vehicle-type")
	var prev time.Duration
	for _, b := range sp.Batches() {
		cur, err := sp.PerBatch(b, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if cur <= prev {
			t.Fatalf("per-batch latency not increasing at batch %d", b)
		}
		prev = cur
	}
}

func TestPerBatchScalingAcrossFractions(t *testing.T) {
	ap := vs(t)
	sp := fullOf(t, ap, "object-detection")
	atFull, _ := sp.PerBatch(8, 1.0)
	atQuarter, _ := sp.PerBatch(8, 0.25)
	if atQuarter <= atFull {
		t.Fatalf("less GPU not slower: %v vs %v", atQuarter, atFull)
	}
	// Unprofiled fractions interpolate via the power law.
	mid, err := sp.PerBatch(8, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	atHalf, _ := sp.PerBatch(8, 0.5)
	at75, _ := sp.PerBatch(8, 0.75)
	if !(mid <= atHalf && mid >= at75) {
		t.Fatalf("interpolated latency %v not between %v and %v", mid, atHalf, at75)
	}
}

func TestPerBatchErrors(t *testing.T) {
	ap := vs(t)
	sp := fullOf(t, ap, "object-detection")
	if _, err := sp.PerBatch(3, 1.0); err == nil {
		t.Error("unprofiled batch accepted")
	}
	if _, err := sp.PerBatch(8, 0); err == nil {
		t.Error("zero fraction accepted")
	}
	if _, err := sp.PerBatch(8, 1.5); err != nil {
		t.Error("fraction >1 should clamp, not error")
	}
}

func TestWorstCaseZeroRequests(t *testing.T) {
	ap := vs(t)
	sp := fullOf(t, ap, "object-detection")
	if wc, err := sp.WorstCase(8, 0, 1.0); err != nil || wc != 0 {
		t.Fatalf("WorstCase(0 requests) = %v, %v", wc, err)
	}
}

func TestRetrainProfile(t *testing.T) {
	ap := vs(t)
	rp := ap.Retrain["vehicle-type"]
	lat100, err := rp.Latency(100, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	lat200, _ := rp.Latency(200, 1.0)
	if lat200 <= lat100 {
		t.Fatal("retraining latency not increasing in samples")
	}
	latQuarter, _ := rp.Latency(100, 0.25)
	if latQuarter <= lat100 {
		t.Fatal("less GPU not slower for retraining")
	}
	// Inverse lookup agrees with the forward model.
	n := rp.SamplesWithin(lat100, 1.0)
	if n < 95 || n > 105 {
		t.Fatalf("SamplesWithin inverse = %d, want ~100", n)
	}
	if rp.SamplesWithin(0, 1.0) != 0 || rp.SamplesWithin(time.Second, 0) != 0 {
		t.Fatal("degenerate SamplesWithin not zero")
	}
	if _, err := rp.Latency(-1, 1.0); err == nil {
		t.Error("negative samples accepted")
	}
	if _, err := rp.Latency(10, -1); err == nil {
		t.Error("negative fraction accepted")
	}
}

func TestRetrainCostOrdering(t *testing.T) {
	// Heavier models retrain slower per sample.
	ap := vs(t)
	det, _ := ap.Retrain["object-detection"].Latency(100, 1.0)
	veh, _ := ap.Retrain["vehicle-type"].Latency(100, 1.0)
	act, _ := ap.Retrain["person-activity"].Latency(100, 1.0)
	if !(det > veh && veh > act) {
		t.Fatalf("retraining cost ordering broken: det=%v veh=%v act=%v", det, veh, act)
	}
}

func TestStructureProfileFor(t *testing.T) {
	ap := vs(t)
	sps := ap.Structures["vehicle-type"]
	got, err := ap.StructureProfileFor("vehicle-type", sps[0].Structure)
	if err != nil || got != sps[0] {
		t.Fatalf("StructureProfileFor = %v, %v", got, err)
	}
	if _, err := ap.StructureProfileFor("vehicle-type", fullOf(t, ap, "object-detection").Structure); err == nil {
		t.Error("cross-node structure lookup accepted")
	}
}

func TestTypeReuseSeeds(t *testing.T) {
	ap := vs(t)
	intInf := ap.TypeReuse[gpumem.ReuseClass{Kind: gpumem.KindIntermediate, Phase: gpumem.PhaseInference}]
	parInf := ap.TypeReuse[gpumem.ReuseClass{Kind: gpumem.KindParam, Phase: gpumem.PhaseInference}]
	if intInf <= 0 || parInf <= 0 {
		t.Fatalf("missing reuse seeds: %v %v", intInf, parInf)
	}
	// Fig. 12a ordering: inference intermediates reused far sooner than
	// inference params (which wait for the next job).
	if intInf >= parInf {
		t.Fatalf("reuse ordering broken: intermediates %vms vs params %vms", intInf, parInf)
	}
}

// TestBuildAppProfileRejectsBadConfig: a config no partition can be
// carved from must fail the build with an error naming the field (a
// panic inside a worker goroutine would kill the process).
func TestBuildAppProfileRejectsBadConfig(t *testing.T) {
	alpha := func(a float64) func() gpumem.Policy {
		return func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: a} }
	}
	rows := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"fraction above 1", Config{Fractions: []float64{0.5, 1.5}}, "fraction"},
		{"fraction 0", Config{Fractions: []float64{0}}, "fraction"},
		{"fraction NaN", Config{Fractions: []float64{math.NaN()}}, "fraction"},
		{"negative MemShare", Config{MemShare: -0.1}, "MemShare"},
		{"MemShare above 1", Config{MemShare: 2}, "MemShare"},
		{"MemShare NaN", Config{MemShare: math.NaN()}, "MemShare"},
		{"MemShare +Inf", Config{MemShare: math.Inf(1)}, "MemShare"},
		{"negative PinBytes", Config{PinBytes: -1}, "PinBytes"},
		{"bad Spec", Config{Spec: gpu.Spec{Name: "broken"}}, "spec"},
		{"alpha above 1", Config{NewPolicy: alpha(1.5)}, "Alpha"},
		{"alpha NaN", Config{NewPolicy: alpha(math.NaN())}, "Alpha"},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			r.cfg.BatchSizes = []int{1}
			_, err := buildAppProfile(app.BikeRackOccupancy(), r.cfg, 2)
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !strings.Contains(err.Error(), r.field) {
				t.Fatalf("error %q does not name %s", err, r.field)
			}
		})
	}
}

func TestBuildAppProfileRejectsBadApp(t *testing.T) {
	bad := app.VideoSurveillance()
	bad.SLO = 0
	if _, err := BuildAppProfile(bad, Config{}); err == nil {
		t.Error("invalid app accepted")
	}
	unknown := app.VideoSurveillance()
	unknown.Nodes[0].Model = "NoSuchNet"
	if _, err := BuildAppProfile(unknown, Config{}); err == nil {
		t.Error("unknown model accepted")
	}
}
