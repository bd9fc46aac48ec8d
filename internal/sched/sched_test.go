package sched

import (
	"math"
	"testing"
	"time"

	"adainf/internal/app"
	"adainf/internal/drift"
	"adainf/internal/gpu"
	"adainf/internal/profile"
)

var (
	vsProfile  *profile.AppProfile
	vsInstance *app.Instance
)

func fixture(t *testing.T) (*app.Instance, *profile.AppProfile) {
	t.Helper()
	if vsProfile == nil {
		p, err := profile.BuildAppProfile(app.VideoSurveillance(), profile.Config{
			Strategy: gpu.Strategy{MaximizeUsage: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		vsProfile = p
		inst, err := app.NewInstance(app.VideoSurveillance(), app.InstanceConfig{Seed: 1, PoolSamples: 1000})
		if err != nil {
			t.Fatal(err)
		}
		vsInstance = inst
	}
	return vsInstance, vsProfile
}

func jobReq(t *testing.T, requests int) *JobRequest {
	inst, prof := fixture(t)
	return &JobRequest{Instance: inst, Profile: prof, Requests: requests}
}

// TestTotalImpactSumsInNodeOrder pins TotalImpact to the node-order
// sum bit for bit. With three impacted nodes the float sum depends on
// the order of the additions: 0.1, 0.2 and 0.3 sum to
// 0.6000000000000001 in node order and to 0.6 in some others, so a sum
// over the impact map would vary from call to call.
func TestTotalImpactSumsInNodeOrder(t *testing.T) {
	a := app.VideoSurveillance()
	if len(a.Nodes) != 3 {
		t.Fatalf("video surveillance has %d nodes, want 3", len(a.Nodes))
	}
	degrees := []float64{0.1, 0.2, 0.3}
	reports := map[string]drift.Report{}
	var want float64
	for i, n := range a.Nodes {
		reports[n.Name] = drift.Report{Node: n.Name, Impacted: true, ImpactDegree: degrees[i]}
		want += degrees[i]
	}
	d := BuildRIDag(a, reports)
	for i := 0; i < 100; i++ {
		if got := d.TotalImpact(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: TotalImpact = %v, node-order sum %v", i, got, want)
		}
	}
}

func TestBuildRIDag(t *testing.T) {
	a := app.VideoSurveillance()
	reports := map[string]drift.Report{
		"vehicle-type":    {Node: "vehicle-type", Impacted: true, ImpactDegree: 0.2},
		"person-activity": {Node: "person-activity", Impacted: true, ImpactDegree: 0.1},
		// object-detection unimpacted → no retraining vertex (Fig. 15).
		"object-detection": {Node: "object-detection", Impacted: false},
	}
	d := BuildRIDag(a, reports)
	if len(d.Vertices) != 5 { // 3 inference + 2 retraining
		t.Fatalf("vertices = %d, want 5", len(d.Vertices))
	}
	if !d.NeedsRetrain("vehicle-type") || d.NeedsRetrain("object-detection") {
		t.Fatal("NeedsRetrain wrong")
	}
	if got := d.TotalImpact(); got < 0.3-1e-9 || got > 0.3+1e-9 {
		t.Fatalf("TotalImpact = %v", got)
	}
	// A retraining vertex must immediately precede its inference vertex.
	for i, v := range d.Vertices {
		if v.Phase == PhaseRetrain {
			if i+1 >= len(d.Vertices) || d.Vertices[i+1].Node != v.Node || d.Vertices[i+1].Phase != PhaseInfer {
				t.Fatalf("retrain vertex %v not followed by its inference", v)
			}
		}
	}
	if PhaseRetrain.String() != "retrain" || PhaseInfer.String() != "infer" {
		t.Fatal("Phase.String broken")
	}
}

func TestBuildRIDagNilReports(t *testing.T) {
	d := BuildRIDag(app.VideoSurveillance(), nil)
	if len(d.Vertices) != 3 || len(d.Impact) != 0 {
		t.Fatalf("nil-report DAG: %d vertices, %d impacts", len(d.Vertices), len(d.Impact))
	}
}

func TestPadRequests(t *testing.T) {
	if PadRequests(0) != 0 || PadRequests(-3) != 0 {
		t.Fatal("degenerate padding broken")
	}
	if got := PadRequests(1); got != 3 {
		t.Fatalf("PadRequests(1) = %d, want 3", got)
	}
	if got := PadRequests(100); got != 120 {
		t.Fatalf("PadRequests(100) = %d, want 120", got)
	}
	// Monotone non-decreasing.
	prev := 0
	for n := 1; n < 200; n++ {
		p := PadRequests(n)
		if p < prev || p <= n {
			t.Fatalf("padding not monotone/conservative at %d: %d", n, p)
		}
		prev = p
	}
}

func TestBestBatchPrefersProfiledOptimum(t *testing.T) {
	jr := jobReq(t, 32)
	structs := AppendFullStructures(nil, jr)
	batch, lat, err := BestBatch(jr, structs, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if batch != 16 {
		t.Fatalf("optimal batch at full GPU = %d, want 16 (Fig. 8)", batch)
	}
	if lat <= 0 {
		t.Fatal("zero latency")
	}
	// Less GPU space shifts the optimum down (Fig. 9).
	smallBatch, _, err := BestBatch(jr, structs, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if smallBatch >= batch {
		t.Fatalf("optimum at 25%% GPU = %d, want < %d", smallBatch, batch)
	}
}

func TestBestBatchSingleBatchProfile(t *testing.T) {
	// A profile measured at exactly one batch size: the selection loop
	// degenerates to that batch, and unprofiled batches stay errors.
	// Two fractions are the minimum for the latency power-law fit.
	p, err := profile.BuildAppProfile(app.VideoSurveillance(), profile.Config{
		Strategy:   gpu.Strategy{MaximizeUsage: true},
		BatchSizes: []int{8},
		Fractions:  []float64{0.5, 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := app.NewInstance(app.VideoSurveillance(), app.InstanceConfig{Seed: 1, PoolSamples: 1000})
	if err != nil {
		t.Fatal(err)
	}
	jr := &JobRequest{Instance: inst, Profile: p, Requests: 16}
	structs := AppendFullStructures(nil, jr)
	batch, lat, err := BestBatch(jr, structs, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if batch != 8 || lat <= 0 {
		t.Fatalf("BestBatch = (%d, %v), want the only profiled batch 8", batch, lat)
	}
	if _, err := JobWorstCase(jr, structs, 16, 1.0); err == nil {
		t.Fatal("unprofiled batch 16 accepted")
	}
}

func TestBestBatchZeroRequests(t *testing.T) {
	// Zero predicted requests still yields a profiled batch (callers
	// guard on Requests > 0, but the primitive must not fail or pick
	// an unprofiled size).
	jr := jobReq(t, 0)
	structs := AppendFullStructures(nil, jr)
	batch, lat, err := BestBatch(jr, structs, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if batch < 1 {
		t.Fatalf("batch = %d", batch)
	}
	if lat < 0 {
		t.Fatalf("negative latency %v", lat)
	}
}

func TestJobWorstCaseMonotoneInRequests(t *testing.T) {
	structs := AppendFullStructures(nil, jobReq(t, 1))
	prev := time.Duration(0)
	for _, n := range []int{1, 8, 32, 64} {
		jr := jobReq(t, n)
		wc, err := JobWorstCase(jr, structs, 8, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if wc < prev {
			t.Fatalf("worst case not monotone at %d requests", n)
		}
		prev = wc
	}
}

func TestRequiredFraction(t *testing.T) {
	jr := jobReq(t, 16)
	structs := AppendFullStructures(nil, jr)
	f, err := RequiredFraction(jr, structs)
	if err != nil {
		t.Fatal(err)
	}
	if f <= 0 || f > 1 {
		t.Fatalf("required fraction = %v", f)
	}
	// The fraction actually meets the SLO (within bisection tolerance)
	// at the batch that is best on a whole GPU, the one RequiredFraction
	// inverts at.
	batch, _, err := BestBatch(jr, structs, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := JobWorstCase(jr, structs, batch, f)
	if err != nil {
		t.Fatal(err)
	}
	if wc > jr.Instance.App.SLO+jr.Instance.App.SLO/100 {
		t.Fatalf("worst case %v at required fraction exceeds SLO %v", wc, jr.Instance.App.SLO)
	}
	// A heavier job needs more space.
	heavy := jobReq(t, 200)
	fh, err := RequiredFraction(heavy, structs)
	if err != nil {
		t.Fatal(err)
	}
	if fh <= f {
		t.Fatalf("200-request job needs %v, 16-request job %v", fh, f)
	}
}

func TestSessionPlanValidate(t *testing.T) {
	jr := jobReq(t, 4)
	ctx := &SessionContext{GPUShare: 0.5, Jobs: []JobRequest{*jr}}
	good := &SessionPlan{Jobs: []JobPlan{{App: "video-surveillance", Fraction: 0.3, Batch: 4}}}
	if err := good.Validate(ctx); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
	bad := []*SessionPlan{
		{}, // wrong job count
		{Jobs: []JobPlan{{App: "x", Fraction: 1.5, Batch: 4}}},
		{Jobs: []JobPlan{{App: "x", Fraction: 0.3, Batch: 0}}},
		{Jobs: []JobPlan{{App: "x", Fraction: 0.9, Batch: 4}}}, // over share
	}
	for i, p := range bad {
		if err := p.Validate(ctx); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
}

// TestSessionPlanValidateLargeShareSlack is the regression test for
// the share-sum slack: at multi-GPU shares the rounding error of
// summing many per-job fractions scales with the share, so the slack
// must be relative (1e-9·max(1, share)), not the absolute 1e-9 that
// rejected valid plans.
func TestSessionPlanValidateLargeShareSlack(t *testing.T) {
	const share = 100.0
	// 100 whole-GPU jobs plus a 3e-8 crumb: the crumb stands in for
	// the rounding error a 100-GPU fraction sum legitimately
	// accumulates — above the old absolute 1e-9 slack, well inside the
	// relative one (1e-7 at share 100).
	jobs := make([]JobPlan, 101)
	reqs := make([]JobRequest, 101)
	for i := 0; i < 100; i++ {
		jobs[i] = JobPlan{App: "a", Fraction: 1.0, Batch: 1}
	}
	jobs[100] = JobPlan{App: "crumb", Fraction: 3e-8, Batch: 1}
	ctx := &SessionContext{GPUShare: share, Jobs: reqs}
	plan := &SessionPlan{Jobs: jobs}
	if err := plan.Validate(ctx); err != nil {
		t.Fatalf("rounding-level overshoot at share %g rejected: %v", share, err)
	}

	// A genuine overshoot (beyond the relative slack) still rejects.
	jobs[100].Fraction = 1e-5
	if err := plan.Validate(ctx); err == nil {
		t.Fatal("genuine overshoot at large share accepted")
	}

	// Shares ≤ 1 keep the old absolute bound: the same 3e-8 crumb over
	// a 0.5 share is a real violation, not rounding.
	small := &SessionContext{GPUShare: 0.5, Jobs: reqs[:2]}
	over := &SessionPlan{Jobs: []JobPlan{
		{App: "a", Fraction: 0.5, Batch: 1},
		{App: "b", Fraction: 3e-8, Batch: 1},
	}}
	if err := over.Validate(small); err == nil {
		t.Fatal("overshoot at sub-GPU share accepted")
	}
}
