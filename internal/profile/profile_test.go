package profile

import (
	"math"
	"slices"
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

func vs(t testing.TB) *AppProfile {
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

// tableOf returns the named node's table.
func tableOf(t *testing.T, ap *AppProfile, node string) *Table {
	t.Helper()
	for _, tb := range ap.Tables() {
		if tb.Node() == node {
			return tb
		}
	}
	t.Fatalf("no table for %s", node)
	return nil
}

// fullPerBatch is the per-batch latency of the node's full structure.
func fullPerBatch(t *testing.T, ap *AppProfile, node string, batch int, frac float64) time.Duration {
	t.Helper()
	tb := tableOf(t, ap, node)
	per, err := tb.PerBatch(tb.FullIdx(), tb.BatchIdx(batch), frac)
	if err != nil {
		t.Fatal(err)
	}
	return per
}

// fullWorstCase is the worst-case latency of n requests through the
// node's full structure in batches of the given size (§3.3.1).
func fullWorstCase(t *testing.T, ap *AppProfile, node string, batch, n int, frac float64) time.Duration {
	t.Helper()
	return fullPerBatch(t, ap, node, batch, frac) * time.Duration((n+batch-1)/batch)
}

func TestBuildAppProfileCoversAllStructures(t *testing.T) {
	ap := vs(t)
	if len(ap.Tables()) != 3 {
		t.Fatalf("profiles cover %d nodes", len(ap.Tables()))
	}
	// TinyYOLOv3 has 24 layers → 7 exits + full = 8 structures.
	if got := tableOf(t, ap, "object-detection").NumStructs(); got != 8 {
		t.Fatalf("detection structures = %d, want 8", got)
	}
	for i, tb := range ap.Tables() {
		if tb.Node() != ap.App.Nodes[i].Name {
			t.Fatalf("table %d is node %s, want %s", i, tb.Node(), ap.App.Nodes[i].Name)
		}
		if !slices.Equal(tb.Batches(), DefaultBatchSizes) || !slices.Equal(tb.fracs, DefaultFractions) {
			t.Fatalf("%s axes %v × %v", tb.Node(), tb.Batches(), tb.fracs)
		}
		for si := 0; si < tb.NumStructs(); si++ {
			for bi := range tb.Batches() {
				if per, _ := tb.Cell(si, bi, tb.FracIdx(1)); per <= 0 {
					t.Fatalf("%s/%v missing full-GPU cell for batch %d", tb.Node(), tb.Structure(si), tb.Batches()[bi])
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
			tot += fullWorstCase(t, ap, node, batch, 32, frac)
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
	wc1 := fullWorstCase(t, ap, "object-detection", 1, 32, 1.0)
	wc16 := fullWorstCase(t, ap, "object-detection", 16, 32, 1.0)
	wc64 := fullWorstCase(t, ap, "object-detection", 64, 32, 1.0)
	if !(wc16 < wc1 && wc16 < wc64) {
		t.Fatalf("no U-shape: wc(1)=%v wc(16)=%v wc(64)=%v", wc1, wc16, wc64)
	}
}

func TestCommFractionAtOptimum(t *testing.T) {
	// Fig. 11: communication ≈24% of per-batch latency at the optimum.
	tb := tableOf(t, vs(t), "object-detection")
	per, comm := tb.Cell(tb.FullIdx(), tb.BatchIdx(16), tb.FracIdx(1))
	if cf := float64(comm) / float64(per); cf < 0.15 || cf > 0.35 {
		t.Fatalf("comm fraction at batch 16 = %.0f%%, want ~24%%", cf*100)
	}
}

func TestPerBatchMonotoneInBatch(t *testing.T) {
	ap := vs(t)
	var prev time.Duration
	for _, b := range tableOf(t, ap, "vehicle-type").Batches() {
		cur := fullPerBatch(t, ap, "vehicle-type", b, 1.0)
		if cur <= prev {
			t.Fatalf("per-batch latency not increasing at batch %d", b)
		}
		prev = cur
	}
}

func TestPerBatchScalingAcrossFractions(t *testing.T) {
	ap := vs(t)
	perBatch := func(frac float64) time.Duration { return fullPerBatch(t, ap, "object-detection", 8, frac) }
	atFull, atQuarter := perBatch(1.0), perBatch(0.25)
	if atQuarter <= atFull {
		t.Fatalf("less GPU not slower: %v vs %v", atQuarter, atFull)
	}
	// Unprofiled fractions interpolate via the power law.
	mid, atHalf, at75 := perBatch(0.6), perBatch(0.5), perBatch(0.75)
	if !(mid <= atHalf && mid >= at75) {
		t.Fatalf("interpolated latency %v not between %v and %v", mid, atHalf, at75)
	}
	tb := tableOf(t, ap, "object-detection")
	law := tb.Law(tb.FullIdx(), tb.BatchIdx(8))
	if mid != time.Duration(law.At(0.6)) {
		t.Fatalf("off-grid latency %v, law gives %v", mid, time.Duration(law.At(0.6)))
	}
	if per, _ := tb.Cell(tb.FullIdx(), tb.BatchIdx(8), tb.FracIdx(0.5)); atHalf != per {
		t.Fatalf("on-grid latency %v, measured cell %v", atHalf, per)
	}
}

func TestPerBatchErrors(t *testing.T) {
	tb := tableOf(t, vs(t), "object-detection")
	full := tb.FullIdx()
	if _, err := tb.PerBatch(full, tb.BatchIdx(3), 1.0); err == nil {
		t.Error("unprofiled batch accepted")
	}
	if _, err := tb.PerBatch(full, tb.BatchIdx(8), 0); err == nil {
		t.Error("zero fraction accepted")
	}
	if _, err := tb.PerBatch(full, tb.BatchIdx(8), 1.5); err != nil {
		t.Error("fraction >1 should clamp, not error")
	}
}

func TestRetrainProfile(t *testing.T) {
	rp := tableOf(t, vs(t), "vehicle-type").Retrain()
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
	n := rp.SamplesWithinF(lat100, 1.0)
	if n < 95 || n > 105 {
		t.Fatalf("SamplesWithinF inverse = %v, want ~100", n)
	}
	if rp.SamplesWithinF(0, 1.0) != 0 || rp.SamplesWithinF(time.Second, 0) != 0 {
		t.Fatal("degenerate SamplesWithinF not zero")
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
	det, _ := tableOf(t, ap, "object-detection").Retrain().Latency(100, 1.0)
	veh, _ := tableOf(t, ap, "vehicle-type").Retrain().Latency(100, 1.0)
	act, _ := tableOf(t, ap, "person-activity").Retrain().Latency(100, 1.0)
	if !(det > veh && veh > act) {
		t.Fatalf("retraining cost ordering broken: det=%v veh=%v act=%v", det, veh, act)
	}
}

// TestStructIdx checks that a table finds each of its node's
// structures by exit depth and rejects another node's.
func TestStructIdx(t *testing.T) {
	ap := vs(t)
	tb := tableOf(t, ap, "vehicle-type")
	for si := 0; si < tb.NumStructs(); si++ {
		if got, err := tb.StructIdx(tb.Structure(si)); err != nil || got != si {
			t.Fatalf("StructIdx(%v) = %d, %v, want %d", tb.Structure(si), got, err, si)
		}
	}
	det := tableOf(t, ap, "object-detection")
	if _, err := tb.StructIdx(det.Structure(det.FullIdx())); err == nil {
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
		{"fractions repeated", Config{Fractions: []float64{0.5, 0.5}}, "Fractions"},
		{"batch sizes repeated", Config{BatchSizes: []int{4, 4}}, "BatchSizes"},
		{"alpha above 1", Config{NewPolicy: alpha(1.5)}, "Alpha"},
		{"alpha NaN", Config{NewPolicy: alpha(math.NaN())}, "Alpha"},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if r.cfg.BatchSizes == nil {
				r.cfg.BatchSizes = []int{1}
			}
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
