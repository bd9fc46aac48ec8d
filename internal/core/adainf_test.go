package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"adainf/internal/app"
	"adainf/internal/cluster"
	"adainf/internal/dist"
	"adainf/internal/gpu"
	"adainf/internal/gpumem"
	"adainf/internal/profile"
	"adainf/internal/sched"
	"adainf/internal/simtime"
)

var (
	fxProfile  *profile.AppProfile
	fxInstance *app.Instance
)

func fixture(t *testing.T) (*app.Instance, *profile.AppProfile) {
	t.Helper()
	if fxProfile == nil {
		p, err := profile.BuildAppProfile(app.VideoSurveillance(), profile.Config{
			Strategy:  gpu.Strategy{MaximizeUsage: true},
			NewPolicy: func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: 0.4} },
		})
		if err != nil {
			t.Fatal(err)
		}
		fxProfile = p
	}
	inst, err := app.NewInstance(app.VideoSurveillance(), app.InstanceConfig{Seed: 7, PoolSamples: 2000})
	if err != nil {
		t.Fatal(err)
	}
	// Drift a few periods so detection has something to find.
	for p := 0; p < 4; p++ {
		inst.AdvancePeriod(0)
	}
	fxInstance = inst
	return inst, fxProfile
}

func sessionCtx(t *testing.T, s *Scheduler, requests int) *sched.SessionContext {
	t.Helper()
	inst, prof := fixture(t)
	pctx := &sched.PeriodContext{
		Period: inst.Period(),
		Length: 50 * time.Second,
		GPUs:   4,
		Rand:   dist.NewRNG(3),
		Jobs:   []sched.JobRequest{{Instance: inst, Profile: prof}},
	}
	if _, err := s.OnPeriodStart(pctx); err != nil {
		t.Fatal(err)
	}
	return &sched.SessionContext{
		Session:  1,
		GPUShare: 0.5,
		Jobs:     []sched.JobRequest{{Instance: inst, Profile: prof, Requests: requests}},
	}
}

func TestSchedulerName(t *testing.T) {
	if New(Options{}).Name() != "AdaInf" {
		t.Fatal("default name wrong")
	}
	if New(Options{Label: "AdaInf/I"}).Name() != "AdaInf/I" {
		t.Fatal("label override broken")
	}
}

func TestOnPeriodStartBuildsDAG(t *testing.T) {
	s := New(Options{})
	ctx := sessionCtx(t, s, 8)
	_ = ctx
	dag := s.DagFor("video-surveillance")
	if dag == nil {
		t.Fatal("no DAG built")
	}
	// Periodical DAG update runs on the CPU and does not block the GPU.
	plan, err := s.OnPeriodStart(&sched.PeriodContext{
		GPUs: 4, Length: 50 * time.Second, Rand: dist.NewRNG(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.OverheadBlocksGPU {
		t.Fatal("DAG update should not block the GPU")
	}
	if plan.Overhead != DAGUpdateOverhead {
		t.Fatalf("overhead = %v", plan.Overhead)
	}
	if len(plan.Retrains) != 0 {
		t.Fatal("AdaInf schedules no whole-pool retrains")
	}
}

func TestPlanSessionShape(t *testing.T) {
	s := New(Options{})
	ctx := sessionCtx(t, s, 8)
	plan, err := s.PlanSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(ctx); err != nil {
		t.Fatal(err)
	}
	if plan.Overhead != DefaultOverhead {
		t.Fatalf("session overhead = %v, want 2ms (Table 1)", plan.Overhead)
	}
	jp := plan.Jobs[0]
	if jp.Fraction <= 0 || jp.Batch < 1 {
		t.Fatalf("job plan: %+v", jp)
	}
	if len(jp.Nodes) != 3 {
		t.Fatalf("node plans = %d", len(jp.Nodes))
	}
	// Inference must fit within the SLO (plans are built to).
	if jp.InferTime > fxInstance.App.SLO {
		t.Fatalf("planned inference %v exceeds SLO", jp.InferTime)
	}
	// Total planned occupancy never exceeds the SLO.
	if total := jp.InferTime + jp.RetrainTime; total > fxInstance.App.SLO {
		t.Fatalf("planned total %v exceeds SLO", total)
	}
}

func TestRetrainingOnlyForImpactedNodes(t *testing.T) {
	s := New(Options{})
	ctx := sessionCtx(t, s, 8)
	dag := s.DagFor("video-surveillance")
	plan, err := s.PlanSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, np := range plan.Jobs[0].Nodes {
		if np.RetrainTime > 0 && !dag.NeedsRetrain(np.Node) {
			t.Fatalf("unimpacted node %q got retraining time", np.Node)
		}
		if !dag.NeedsRetrain(np.Node) && !np.Structure.IsFull() {
			t.Fatalf("node %q without retraining should use the full structure", np.Node)
		}
	}
}

func TestImpactProportionalSplit(t *testing.T) {
	s := New(Options{})
	ctx := sessionCtx(t, s, 8)
	dag := s.DagFor("video-surveillance")
	if len(dag.Impact) < 2 {
		t.Skip("need ≥2 impacted nodes in this fixture period")
	}
	plan, err := s.PlanSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Higher impact degree → no less retraining time (§3.3.2).
	times := map[string]simtime.Duration{}
	for _, np := range plan.Jobs[0].Nodes {
		times[np.Node] = np.RetrainTime
	}
	var hiNode, loNode string
	var hi, lo float64
	for n, d := range dag.Impact {
		if hiNode == "" || d > hi {
			hiNode, hi = n, d
		}
		if loNode == "" || d < lo {
			loNode, lo = n, d
		}
	}
	if hiNode != loNode && times[hiNode] < times[loNode] {
		t.Fatalf("impact %v got %v but impact %v got %v", hi, times[hiNode], lo, times[loNode])
	}
}

func TestEqualSpaceSplitVariant(t *testing.T) {
	inst, prof := fixture(t)
	inst2, err := app.NewInstance(app.BikeRackOccupancy(), app.InstanceConfig{Seed: 9, PoolSamples: 2000})
	if err != nil {
		t.Fatal(err)
	}
	prof2, err := profile.BuildAppProfile(app.BikeRackOccupancy(), profile.Config{
		Strategy: gpu.Strategy{MaximizeUsage: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &sched.SessionContext{
		GPUShare: 0.4,
		Jobs: []sched.JobRequest{
			{Instance: inst, Profile: prof, Requests: 32},  // heavy DAG
			{Instance: inst2, Profile: prof2, Requests: 2}, // light single model
		},
	}
	// AdaInf/S splits evenly; AdaInf gives the heavy job more.
	even, err := New(Options{EqualSpaceSplit: true, Label: "AdaInf/S"}).PlanSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if even.Jobs[0].Fraction != even.Jobs[1].Fraction {
		t.Fatalf("AdaInf/S fractions unequal: %v vs %v", even.Jobs[0].Fraction, even.Jobs[1].Fraction)
	}
	need, err := New(Options{}).PlanSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if need.Jobs[0].Fraction <= need.Jobs[1].Fraction {
		t.Fatalf("SLO-need split gave heavy job %v, light job %v",
			need.Jobs[0].Fraction, need.Jobs[1].Fraction)
	}
}

func TestFullStructureOnlyVariant(t *testing.T) {
	s := New(Options{FullStructureOnly: true, Label: "AdaInf/E"})
	ctx := sessionCtx(t, s, 8)
	plan, err := s.PlanSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, np := range plan.Jobs[0].Nodes {
		if !np.Structure.IsFull() {
			t.Fatalf("AdaInf/E chose %v", np.Structure)
		}
	}
}

func TestNoDAGUpdateVariant(t *testing.T) {
	s := New(Options{NoDAGUpdate: true, Label: "AdaInf/U"})
	ctx := sessionCtx(t, s, 8)
	_ = ctx
	first := s.DagFor("video-surveillance")
	// Advance the instance and re-run the period hook: the DAG must not
	// change under /U.
	fxInstance.AdvancePeriod(0)
	_, err := s.OnPeriodStart(&sched.PeriodContext{
		GPUs: 4, Length: 50 * time.Second, Rand: dist.NewRNG(2),
		Jobs: []sched.JobRequest{{Instance: fxInstance, Profile: fxProfile}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.DagFor("video-surveillance") != first {
		t.Fatal("/U rebuilt the DAG")
	}
}

func TestZeroRequestJobsGetEmptyPlans(t *testing.T) {
	s := New(Options{})
	ctx := sessionCtx(t, s, 0)
	plan, err := s.PlanSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Jobs) != 1 || plan.Jobs[0].Fraction != 0 {
		t.Fatalf("zero-request plan: %+v", plan.Jobs)
	}
}

func TestEmptySessionPlan(t *testing.T) {
	s := New(Options{})
	plan, err := s.PlanSession(&sched.SessionContext{})
	if err != nil || len(plan.Jobs) != 0 {
		t.Fatalf("empty session: %v %v", plan, err)
	}
}

func TestPlanCacheResetAcrossPeriods(t *testing.T) {
	s := New(Options{})
	ctx := sessionCtx(t, s, 8)
	if _, err := s.PlanSession(ctx); err != nil {
		t.Fatal(err)
	}
	if len(s.jobBaseCache) == 0 {
		t.Fatal("plan cache unused")
	}
	if _, err := s.OnPeriodStart(&sched.PeriodContext{
		GPUs: 4, Length: 50 * time.Second, Rand: dist.NewRNG(4),
	}); err != nil {
		t.Fatal(err)
	}
	if len(s.jobBaseCache) != 0 {
		t.Fatal("plan cache not invalidated at period boundary")
	}
}

func TestSchedulingIsFast(t *testing.T) {
	// Table 1: AdaInf schedules a session in ~2 ms. Our implementation
	// must stay well under that budget even on cold cache.
	s := New(Options{})
	ctx := sessionCtx(t, s, 8)
	start := time.Now()
	const rounds = 200
	for i := 0; i < rounds; i++ {
		if _, err := s.PlanSession(ctx); err != nil {
			t.Fatal(err)
		}
	}
	per := time.Since(start) / rounds
	if per > 2*time.Millisecond {
		t.Fatalf("scheduling takes %v per session, budget 2ms", per)
	}
}

func TestFracKeyRounds(t *testing.T) {
	cases := []struct {
		f    float64
		want int
	}{
		{0.29, 290}, // int(0.29*1000) == 289: the truncation bug
		{0.2999999, 300},
		{0.3, 300},
		{0.3004, 300},
		{0.02, 20},
		{1.0, 1000},
	}
	for _, c := range cases {
		if got := fracKey(c.f); got != c.want {
			t.Errorf("fracKey(%v) = %d, want %d", c.f, got, c.want)
		}
	}
	if fracKey(0.2999999) != fracKey(0.3) {
		t.Error("near-identical fractions land on different cache keys")
	}
}

func TestNoGPUOversubscription(t *testing.T) {
	inst, prof := fixture(t)
	cases := []struct {
		jobs  int
		share float64
	}{
		{6, 0.06}, // floors alone exceed the share: degenerate equal split
		{8, 0.2},  // flooring several jobs up oversubscribes without renorm
		{4, 0.1},
		{2, 0.05},
		{3, 1.5}, // plenty of space: renormalization must not kick in
	}
	for _, tc := range cases {
		s := New(Options{})
		ctx := &sched.SessionContext{GPUShare: tc.share}
		for j := 0; j < tc.jobs; j++ {
			ctx.Jobs = append(ctx.Jobs, sched.JobRequest{
				Instance: inst, Profile: prof, Requests: 4 + 4*j,
			})
		}
		plan, err := s.PlanSession(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(ctx); err != nil {
			t.Errorf("jobs=%d share=%g: %v", tc.jobs, tc.share, err)
		}
		var total float64
		for i := range plan.Jobs {
			total += plan.Jobs[i].Fraction
			if plan.Jobs[i].Fraction <= 0 {
				t.Errorf("jobs=%d share=%g: job %d got no space", tc.jobs, tc.share, i)
			}
		}
		if total > tc.share+1e-9 {
			t.Errorf("jobs=%d share=%g: fractions sum to %g", tc.jobs, tc.share, total)
		}
	}
}

func TestOversubscriptionPreservesFloors(t *testing.T) {
	// A mixed heavy/light workload floors the light job up; the
	// renormalization must shrink only the headroom above the floors.
	inst, prof := fixture(t)
	inst2, err := app.NewInstance(app.BikeRackOccupancy(), app.InstanceConfig{Seed: 9, PoolSamples: 2000})
	if err != nil {
		t.Fatal(err)
	}
	prof2, err := profile.BuildAppProfile(app.BikeRackOccupancy(), profile.Config{
		Strategy: gpu.Strategy{MaximizeUsage: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{})
	ctx := &sched.SessionContext{
		GPUShare: 0.1,
		Jobs: []sched.JobRequest{
			{Instance: inst, Profile: prof, Requests: 32},
			{Instance: inst2, Profile: prof2, Requests: 1},
		},
	}
	plan, err := s.PlanSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(ctx); err != nil {
		t.Fatal(err)
	}
	total := plan.Jobs[0].Fraction + plan.Jobs[1].Fraction
	if total > ctx.GPUShare+1e-9 {
		t.Fatalf("fractions sum to %g, share %g", total, ctx.GPUShare)
	}
	if plan.Jobs[1].Fraction < cluster.MinFraction-1e-12 {
		t.Fatalf("light job pushed below the floor: %g", plan.Jobs[1].Fraction)
	}
	if plan.Jobs[0].Fraction <= plan.Jobs[1].Fraction {
		t.Fatalf("heavy job %g should keep more space than light job %g",
			plan.Jobs[0].Fraction, plan.Jobs[1].Fraction)
	}
}

// bindPeriod runs a second scheduler's period hook against the fixture
// instance sessionCtx just planned for, with the same parameters, so
// two schedulers can plan the same jobs. Sharing the instance keeps
// plans comparable with plansEquivalent (dnn.Structure compares by
// architecture identity).
func bindPeriod(t *testing.T, s *Scheduler) {
	t.Helper()
	pctx := &sched.PeriodContext{
		Period: fxInstance.Period(),
		Length: 50 * time.Second,
		GPUs:   4,
		Rand:   dist.NewRNG(3),
		Jobs:   []sched.JobRequest{{Instance: fxInstance, Profile: fxProfile}},
	}
	if _, err := s.OnPeriodStart(pctx); err != nil {
		t.Fatal(err)
	}
}

// plansEquivalent compares two plans field for field. Floats compare
// exactly: a cache may skip work but must never change a value.
func plansEquivalent(a, b *sched.SessionPlan) bool {
	if a.Session != b.Session || a.Overhead != b.Overhead || len(a.Jobs) != len(b.Jobs) {
		return false
	}
	for i := range a.Jobs {
		x, y := &a.Jobs[i], &b.Jobs[i]
		if x.App != y.App || x.Fraction != y.Fraction || x.Batch != y.Batch ||
			x.InferTime != y.InferTime || x.RetrainTime != y.RetrainTime ||
			!slices.Equal(x.Nodes, y.Nodes) {
			return false
		}
	}
	return true
}

// requireMatchesFresh plans ctx on warm and on a fresh scheduler bound to
// the same period, and fails unless the two plans are equivalent.
func requireMatchesFresh(t *testing.T, warm *Scheduler, ctx *sched.SessionContext, round int) {
	t.Helper()
	got, err := warm.PlanSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(Options{})
	bindPeriod(t, fresh)
	want, err := fresh.PlanSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !plansEquivalent(got, want) {
		t.Fatalf("round %d: warm plan diverged from a fresh scheduler's:\n  warm:  %+v\n  fresh: %+v", round, got, want)
	}
	if len(warm.jobBaseCache) == 0 || len(warm.reqFracCache) == 0 {
		t.Fatal("equivalence check is vacuous: the caches stayed empty")
	}
}

// TestRepeatedSessionMatchesFreshScheduler plans the same session on one
// scheduler four times. Every round must match a fresh scheduler bound
// to the same period: planning a session again reuses the per-period
// caches but never changes the plan.
func TestRepeatedSessionMatchesFreshScheduler(t *testing.T) {
	warm := New(Options{})
	ctx := sessionCtx(t, warm, 8)
	for round := 0; round < 4; round++ {
		requireMatchesFresh(t, warm, ctx, round)
	}
}

// TestWarmCachesMatchFreshScheduler plans a seven-job session, in which
// several jobs share (app, requests) cache keys, on one scheduler for
// four rounds at alternating GPU shares. Every round must match a fresh
// scheduler bound to the same period: the per-period caches skip work
// but never change a plan.
func TestWarmCachesMatchFreshScheduler(t *testing.T) {
	warm := New(Options{})
	ctx := sessionCtx(t, warm, 8)
	base := ctx.Jobs[0]
	for _, r := range []int{3, 8, 12, 3, 18, 8} {
		j := base
		j.Requests = r
		ctx.Jobs = append(ctx.Jobs, j)
	}
	for round := 0; round < 4; round++ {
		ctx.GPUShare = []float64{0.5, 0.8}[round%2]
		requireMatchesFresh(t, warm, ctx, round)
	}
}

// TestDefaultPlanWorkers checks that the deprecated process-wide worker
// setting, which the benchmark still calls, leaves plans unchanged.
func TestDefaultPlanWorkers(t *testing.T) {
	plain := New(Options{})
	ctx := sessionCtx(t, plain, 8)
	want, err := plain.PlanSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	SetDefaultPlanWorkers(4)
	s := New(Options{})
	bindPeriod(t, s)
	got, err := s.PlanSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !plansEquivalent(got, want) {
		t.Fatal("SetDefaultPlanWorkers changed a plan")
	}
}

// TestAdaInfPlanSessionLeavesJobsUnchanged plans one jobs slice several
// times: AdaInf pads and binds its own copy of the jobs, so the
// caller's jobs, request counts and DAGs included, never move.
func TestAdaInfPlanSessionLeavesJobsUnchanged(t *testing.T) {
	s := New(Options{})
	ctx := sessionCtx(t, s, 8)
	ctx.Jobs = append(ctx.Jobs, sched.JobRequest{Instance: fxInstance, Profile: fxProfile})
	want := append([]sched.JobRequest(nil), ctx.Jobs...)
	for round := 0; round < 4; round++ {
		plan, err := s.PlanSession(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Jobs[0].Batch < 1 {
			t.Fatalf("round %d: the 8-request job was not planned", round)
		}
		if !reflect.DeepEqual(ctx.Jobs, want) {
			t.Fatalf("round %d: caller's jobs moved to %+v, want %+v", round, ctx.Jobs, want)
		}
	}
}

// TestAdaInfPlansWithMemoMatchNilCosts drives two schedulers through
// one seeded sequence of sessions that vary the job count, requests and
// share, with period starts in between. One plans jobs that carry a
// latency memo, the other the same jobs with nil Costs. Every plan must
// deep-equal, Nodes included: the memo skips work but never changes an
// answer.
func TestAdaInfPlansWithMemoMatchNilCosts(t *testing.T) {
	inst, prof := fixture(t)
	cache := profile.NewLatencyCache(prof)
	memo, direct := New(Options{}), New(Options{})
	startPeriod := func() {
		t.Helper()
		for _, s := range []*Scheduler{memo, direct} {
			if _, err := s.OnPeriodStart(&sched.PeriodContext{
				Period: inst.Period(),
				Length: 50 * time.Second,
				GPUs:   4,
				Rand:   dist.NewRNG(int64(inst.Period())),
				Jobs:   []sched.JobRequest{{Instance: inst, Profile: prof}},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	startPeriod()
	rng := rand.New(rand.NewSource(23))
	retrains := 0
	for step := 0; step < 400; step++ {
		if rng.Intn(40) == 0 {
			inst.AdvancePeriod(0)
			startPeriod()
		}
		jobs := make([]sched.JobRequest, 1+rng.Intn(4))
		for i := range jobs {
			jobs[i] = sched.JobRequest{Instance: inst, Profile: prof, Requests: rng.Intn(60)}
		}
		cached := append([]sched.JobRequest(nil), jobs...)
		for i := range cached {
			cached[i].Costs = cache
		}
		share := 0.05 + 0.95*rng.Float64()
		got, err := memo.PlanSession(&sched.SessionContext{Session: step, GPUShare: share, Jobs: cached})
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.PlanSession(&sched.SessionContext{Session: step, GPUShare: share, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: memo plan %+v, nil-Costs plan %+v", step, got, want)
		}
		for i := range got.Jobs {
			if got.Jobs[i].RetrainTime > 0 {
				retrains++
			}
		}
	}
	if retrains == 0 {
		t.Fatal("no plan assigned retraining; the sequence does not exercise structure choice")
	}
}
