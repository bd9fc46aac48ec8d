package audit

import (
	"errors"
	"testing"
	"time"

	"adainf/internal/app"
	"adainf/internal/cluster"
	"adainf/internal/profile"
	"adainf/internal/sched"
	"adainf/internal/simtime"
)

// ruleOf extracts the violated rule from a fail-fast error.
func ruleOf(t *testing.T, err error) string {
	t.Helper()
	if err == nil {
		t.Fatal("expected a violation, got nil")
	}
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("error %v is not a *Violation", err)
	}
	return v.Rule
}

func at(d simtime.Duration) simtime.Instant { return simtime.Instant(d) }

func TestClockMonotone(t *testing.T) {
	a := New(nil, Params{GPUs: 1})
	if err := a.OnEvent(at(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := a.OnEvent(at(time.Second)); err != nil {
		t.Fatalf("equal instants must be allowed: %v", err)
	}
	if err := a.OnEvent(at(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := ruleOf(t, a.OnEvent(at(time.Second))); got != RuleClock {
		t.Fatalf("rule = %q, want %q", got, RuleClock)
	}
}

func TestPeriodOrder(t *testing.T) {
	a := New(nil, Params{GPUs: 1})
	if err := a.BeginPeriod(0); err != nil {
		t.Fatal(err)
	}
	if err := a.BeginPeriod(1); err != nil {
		t.Fatal(err)
	}
	if got := ruleOf(t, a.BeginPeriod(3)); got != RulePeriodOrder {
		t.Fatalf("rule = %q, want %q", got, RulePeriodOrder)
	}
}

func TestRetrainOrder(t *testing.T) {
	a := New(nil, Params{GPUs: 1})
	for _, s := range [][2]int{{1, 0}, {1, 1}, {2, 0}} {
		if err := a.OnRetrainApply(s[0], s[1]); err != nil {
			t.Fatalf("(%d,%d): %v", s[0], s[1], err)
		}
	}
	if got := ruleOf(t, a.OnRetrainApply(2, 0)); got != RuleRetrainOrder {
		t.Fatalf("duplicate: rule = %q, want %q", got, RuleRetrainOrder)
	}
	a = New(nil, Params{GPUs: 1})
	if err := a.OnRetrainApply(5, 2); err != nil {
		t.Fatal(err)
	}
	if got := ruleOf(t, a.OnRetrainApply(5, 1)); got != RuleRetrainOrder {
		t.Fatalf("plan index regressed: rule = %q, want %q", got, RuleRetrainOrder)
	}
}

func TestConservation(t *testing.T) {
	a := New(nil, Params{GPUs: 1})
	if err := a.BeginPeriod(0); err != nil {
		t.Fatal(err)
	}
	a.ExpectArrivals("vs", 10)
	if err := a.OnServed("vs", 6, true); err != nil {
		t.Fatal(err)
	}
	if err := a.OnServed("vs", 4, false); err != nil {
		t.Fatal(err)
	}
	if err := a.BeginPeriod(1); err != nil {
		t.Fatalf("balanced period rejected: %v", err)
	}
	a.ExpectArrivals("vs", 10)
	if err := a.OnServed("vs", 9, true); err != nil {
		t.Fatal(err)
	}
	if got := ruleOf(t, a.Finish()); got != RuleConservation {
		t.Fatalf("lost request: rule = %q, want %q", got, RuleConservation)
	}
}

func TestServedUnknownApp(t *testing.T) {
	a := New(nil, Params{GPUs: 1})
	if err := a.BeginPeriod(0); err != nil {
		t.Fatal(err)
	}
	if got := ruleOf(t, a.OnServed("ghost", 1, true)); got != RuleConservation {
		t.Fatalf("rule = %q, want %q", got, RuleConservation)
	}
}

func TestPeriodPlanChecks(t *testing.T) {
	start := at(50 * time.Second)
	ctx := &sched.PeriodContext{Period: 1, Start: start}
	cases := []struct {
		name string
		r    sched.PeriodRetrain
	}{
		{"zero samples", sched.PeriodRetrain{
			App: "vs", Node: "n", Samples: 0, GPUFraction: 0.5,
			Completion: start.Add(time.Second), Busy: time.Second,
		}},
		{"fraction above one", sched.PeriodRetrain{
			App: "vs", Node: "n", Samples: 100, GPUFraction: 1.5,
			Completion: start.Add(time.Second), Busy: time.Second,
		}},
		{"negative busy", sched.PeriodRetrain{
			App: "vs", Node: "n", Samples: 100, GPUFraction: 0.5,
			Completion: start.Add(time.Second), Busy: -time.Second,
		}},
		{"completion before start", sched.PeriodRetrain{
			App: "vs", Node: "n", Samples: 100, GPUFraction: 0.5,
			Completion: start.Add(-time.Second), Busy: 0,
		}},
		{"busy exceeds window", sched.PeriodRetrain{
			App: "vs", Node: "n", Samples: 100, GPUFraction: 0.5,
			Completion: start.Add(time.Second), Busy: 2 * time.Second,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := New(nil, Params{GPUs: 1})
			plan := &sched.PeriodPlan{Retrains: []sched.PeriodRetrain{tc.r}}
			if got := ruleOf(t, a.OnPeriodPlan(ctx, plan)); got != RulePeriodPlan {
				t.Fatalf("rule = %q, want %q", got, RulePeriodPlan)
			}
		})
	}

	a := New(nil, Params{GPUs: 1})
	ok := &sched.PeriodPlan{Retrains: []sched.PeriodRetrain{{
		App: "vs", Node: "n", Samples: 100, GPUFraction: 0.5,
		Completion: start.Add(10 * time.Second), Busy: 4 * time.Second,
	}}}
	if err := a.OnPeriodPlan(ctx, ok); err != nil {
		t.Fatalf("well-formed retrain rejected: %v", err)
	}
}

// planFixture builds a real profile and a session context/plan pair
// that satisfies every invariant, for tests to mutate into violations.
type planFixture struct {
	app  *app.App
	prof *profile.AppProfile
	dag  *sched.RIDag
	node string
}

var fixtureProf *profile.AppProfile // built once; profiles are read-only

func newPlanFixture(t *testing.T) *planFixture {
	t.Helper()
	vs := app.VideoSurveillance()
	if fixtureProf == nil {
		ap, err := profile.BuildAppProfile(vs, profile.Config{})
		if err != nil {
			t.Fatal(err)
		}
		fixtureProf = ap
	}
	return &planFixture{
		app:  vs,
		prof: fixtureProf,
		dag:  sched.BuildRIDag(vs, nil),
		node: vs.Nodes[0].Name,
	}
}

// context returns a one-job session context for the fixture app.
func (f *planFixture) context(t *testing.T, share float64) *sched.SessionContext {
	t.Helper()
	inst, err := app.NewInstance(f.app, app.InstanceConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return &sched.SessionContext{
		Session:  3,
		Start:    at(15 * time.Millisecond),
		GPUShare: share,
		Jobs: []sched.JobRequest{{
			Instance: inst, Profile: f.prof, Dag: f.dag, Requests: 4,
		}},
	}
}

// plan returns a valid single-job plan: one planned node with a
// profiled batch and consistent time accounting, no retraining.
func (f *planFixture) plan(t *testing.T) *sched.SessionPlan {
	t.Helper()
	tb := f.prof.Tables()[0] // f.node
	batch := tb.Batches()[0]
	infer, err := tb.PerBatch(0, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return &sched.SessionPlan{
		Session: 3,
		Jobs: []sched.JobPlan{{
			App: f.app.Name, Fraction: 0.5, Batch: batch,
			Nodes: []sched.NodePlan{{
				Node: f.node, Index: 0, Structure: tb.Structure(0), InferTime: infer,
			}},
			InferTime: infer,
		}},
	}
}

func TestSessionPlanClean(t *testing.T) {
	f := newPlanFixture(t)
	a := New(nil, Params{GPUs: 1, StrictShare: true})
	if err := a.OnSessionPlan(f.context(t, 1), f.plan(t)); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if a.Checks() == 0 {
		t.Fatal("no checks counted")
	}
}

// TestFaultDegradeRejectsBadNodeIndex checks that a degraded plan whose
// node position is out of range or names another node is reported as a
// violation, not a panic, and that the fixture's own position passes.
func TestFaultDegradeRejectsBadNodeIndex(t *testing.T) {
	f := newPlanFixture(t)
	for _, tc := range []struct {
		name  string
		index int
		ok    bool
	}{{"own node", 0, true}, {"out of range", 99, false}, {"negative", -1, false}, {"other node", 1, false}} {
		t.Run(tc.name, func(t *testing.T) {
			orig := f.plan(t).Jobs[0]
			degraded := f.plan(t).Jobs[0]
			degraded.Nodes[0].Index = tc.index
			a := New(nil, Params{GPUs: 1, StrictShare: true})
			err := a.OnFaultDegrade(f.context(t, 1), 0, &orig, &degraded)
			if tc.ok {
				if err != nil {
					t.Fatalf("valid degraded plan rejected: %v", err)
				}
				return
			}
			if got := ruleOf(t, err); got != RuleFaultDegrade {
				t.Fatalf("rule = %q, want %q", got, RuleFaultDegrade)
			}
		})
	}
}

func TestSessionPlanViolations(t *testing.T) {
	f := newPlanFixture(t)
	cases := []struct {
		name   string
		share  float64
		mutate func(*sched.SessionPlan)
		rule   string
	}{
		{"session label", 1, func(p *sched.SessionPlan) {
			p.Session = 7
		}, RulePlanShape},
		{"job count", 1, func(p *sched.SessionPlan) {
			p.Jobs = p.Jobs[:0]
		}, RulePlanShape},
		{"app name", 1, func(p *sched.SessionPlan) {
			p.Jobs[0].App = "other"
		}, RulePlanShape},
		{"negative fraction", 1, func(p *sched.SessionPlan) {
			p.Jobs[0].Fraction = -0.1
		}, RuleFraction},
		{"fraction above one", 1, func(p *sched.SessionPlan) {
			p.Jobs[0].Fraction = 1.2
		}, RuleFraction},
		{"active without batch", 1, func(p *sched.SessionPlan) {
			p.Jobs[0].Batch = 0
		}, RuleFraction},
		{"unprofiled batch", 1, func(p *sched.SessionPlan) {
			p.Jobs[0].Batch = 9999
		}, RuleBatchProfiled},
		{"node index out of range", 1, func(p *sched.SessionPlan) {
			p.Jobs[0].Nodes[0].Index = 99
		}, RuleBatchProfiled},
		{"negative node index", 1, func(p *sched.SessionPlan) {
			p.Jobs[0].Nodes[0].Index = -1
		}, RuleBatchProfiled},
		{"node index names another node", 1, func(p *sched.SessionPlan) {
			p.Jobs[0].Nodes[0].Index = 1
		}, RuleBatchProfiled},
		{"infer sum mismatch", 1, func(p *sched.SessionPlan) {
			p.Jobs[0].InferTime += time.Millisecond
		}, RuleInferSum},
		{"retrain sum mismatch", 1, func(p *sched.SessionPlan) {
			p.Jobs[0].RetrainTime = time.Millisecond // no node carries it
		}, RuleInferSum},
		{"retrain breaks slo", 1, func(p *sched.SessionPlan) {
			j := &p.Jobs[0]
			j.Nodes[0].RetrainTime = f.app.SLO // infer + SLO > SLO
			j.RetrainTime = f.app.SLO
		}, RuleRetrainSLO},
		{"retrain without impact", 1, func(p *sched.SessionPlan) {
			// Fits the SLO but the period's RIDag has no impacted
			// nodes, so nothing may retrain.
			j := &p.Jobs[0]
			j.Nodes[0].RetrainTime = time.Millisecond
			j.RetrainTime = time.Millisecond
		}, RuleRetrainSplit},
		{"share sum", 0.3, func(p *sched.SessionPlan) {
			p.Jobs[0].Fraction = 0.9 // exceeds the 0.3 strict share
		}, RuleShareSum},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := New(nil, Params{GPUs: 1, StrictShare: true})
			plan := f.plan(t)
			tc.mutate(plan)
			if got := ruleOf(t, a.OnSessionPlan(f.context(t, tc.share), plan)); got != tc.rule {
				t.Fatalf("rule = %q, want %q", got, tc.rule)
			}
		})
	}
}

func TestRetrainSplitBound(t *testing.T) {
	f := newPlanFixture(t)
	// Impact the planned node so retraining is legitimate; with a
	// single retrainer its bound is the whole spare time U.
	f.dag = &sched.RIDag{App: f.app, Impact: map[string]float64{f.node: 1}}
	plan := f.plan(t)
	j := &plan.Jobs[0]
	spare := f.app.SLO - j.InferTime
	j.Nodes[0].RetrainTime = spare // == full U; allowed (one retrainer)
	j.RetrainTime = spare
	a := New(nil, Params{GPUs: 1, StrictShare: true})
	if err := a.OnSessionPlan(f.context(t, 1), plan); err != nil {
		t.Fatalf("budget at the bound rejected: %v", err)
	}

	// Two retrainers: the low-impact node (1 of 4 impact) may use at
	// most max(U/2, U/4) = U/2. Give it more while the total still
	// fits the SLO, so only the split bound is broken.
	n0, n1 := f.app.Nodes[0].Name, f.app.Nodes[1].Name
	f.dag = &sched.RIDag{App: f.app, Impact: map[string]float64{n0: 3, n1: 1}}
	plan = f.plan(t)
	tb1 := f.prof.Tables()[1] // n1
	infer1, err := tb1.PerBatch(0, tb1.BatchIdx(plan.Jobs[0].Batch), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	j = &plan.Jobs[0]
	j.Nodes = append(j.Nodes, sched.NodePlan{
		Node: n1, Index: 1, Structure: tb1.Structure(0), InferTime: infer1,
	})
	j.InferTime += infer1
	spare = f.app.SLO - j.InferTime
	j.Nodes[0].RetrainTime = time.Millisecond
	j.Nodes[1].RetrainTime = spare/2 + 2*time.Millisecond
	j.RetrainTime = j.Nodes[0].RetrainTime + j.Nodes[1].RetrainTime
	if j.InferTime+j.RetrainTime > f.app.SLO {
		t.Fatalf("fixture broken: plan no longer fits the SLO")
	}
	a = New(nil, Params{GPUs: 1, StrictShare: true})
	if got := ruleOf(t, a.OnSessionPlan(f.context(t, 1), plan)); got != RuleRetrainSplit {
		t.Fatalf("rule = %q, want %q", got, RuleRetrainSplit)
	}
}

func TestAccumulateMode(t *testing.T) {
	var rep Report
	a := New(&rep, Params{GPUs: 1})
	if err := a.BeginPeriod(0); err != nil {
		t.Fatalf("accumulate mode returned an error: %v", err)
	}
	// Alternate forwards/backwards: every second event regresses.
	for i := 0; i < 300; i++ {
		now := at(time.Duration(1+i%2) * time.Second)
		if err := a.OnEvent(now); err != nil {
			t.Fatalf("accumulate mode returned an error: %v", err)
		}
	}
	// Events 2,4,...,300 alternate 2s,1s,...: 149 regressions plus the
	// final settle — count exactly: i odd → 2s (forward or equal ok
	// after 1s), i even>0 → 1s after 2s (violation). i=0 → 1s, first.
	want := 149
	if rep.Total != want {
		t.Fatalf("Total = %d, want %d", rep.Total, want)
	}
	if len(rep.Violations) != 100 {
		t.Fatalf("stored %d violations, want the 100 cap", len(rep.Violations))
	}
	if rep.Err() == nil {
		t.Fatal("dirty report returned nil Err")
	}
	if rep.Checks == 0 {
		t.Fatal("no checks counted")
	}
}

func TestCleanReport(t *testing.T) {
	var rep Report
	if rep.Err() != nil {
		t.Fatalf("clean report errored: %v", rep.Err())
	}
}

func TestUtilizationOvershoot(t *testing.T) {
	a := New(nil, Params{GPUs: 4}) // utilSlack is 0.25
	// No overlapping spans: the bound is a tight 1 + slack.
	if err := a.OnUtilization(1.2, 3, 1); err != nil {
		t.Fatalf("overshoot within tolerance flagged: %v", err)
	}
	if got := ruleOf(t, a.OnUtilization(1.3, 1, 1)); got != RuleUtilization {
		t.Fatalf("rule = %q, want %q", got, RuleUtilization)
	}
	// Overlapping spans relax the bound proportionally: 5 spans allow
	// up to 5 × 1.25 = 6.25.
	if err := a.OnUtilization(5.03, 100, 5); err != nil {
		t.Fatalf("overloaded-server overshoot flagged: %v", err)
	}
	if got := ruleOf(t, a.OnUtilization(6.3, 100, 5)); got != RuleUtilization {
		t.Fatalf("rule = %q, want %q", got, RuleUtilization)
	}
	// A non-positive overlap is clamped to one span.
	if got := ruleOf(t, a.OnUtilization(1.3, 1, 0)); got != RuleUtilization {
		t.Fatalf("rule = %q, want %q", got, RuleUtilization)
	}
}

// A server split into NGPUs lanes bounds each session plan by the lane
// capacity GPUs/NGPUs, not the whole server.
func TestLaneShareBound(t *testing.T) {
	f := newPlanFixture(t)
	twoJobs := func() (*sched.SessionContext, *sched.SessionPlan) {
		ctx := f.context(t, 2)
		ctx.Jobs = append(ctx.Jobs, ctx.Jobs[0])
		plan := f.plan(t)
		plan.Jobs = append(plan.Jobs, plan.Jobs[0])
		plan.Jobs[0].Fraction = 0.6
		plan.Jobs[1].Fraction = 0.6
		return ctx, plan
	}

	// Whole server: 1.2 of 4 GPUs is fine.
	ctx, plan := twoJobs()
	a := New(nil, Params{GPUs: 4})
	if err := a.OnSessionPlan(ctx, plan); err != nil {
		t.Fatalf("whole-server plan rejected: %v", err)
	}
	// Four lanes: capacity 1.0 + 2×0.02 floor slack < 1.2.
	ctx, plan = twoJobs()
	a = New(nil, Params{GPUs: 4, NGPUs: 4})
	if got := ruleOf(t, a.OnSessionPlan(ctx, plan)); got != RuleShareSum {
		t.Fatalf("rule = %q, want %q", got, RuleShareSum)
	}
}

func TestPlacementRule(t *testing.T) {
	topo := cluster.Topology{NGPUs: 2, PerGPUBytes: 100}
	pl, err := cluster.Place(topo, []cluster.AppLoad{
		{Name: "a", WorkingSetBytes: 60, LoadRank: 0},
		{Name: "b", WorkingSetBytes: 50, LoadRank: 1},
	})
	if err != nil {
		t.Fatal(err)
	}

	a := New(nil, Params{GPUs: 2, NGPUs: 2})
	if err := a.OnReplace(0, pl, []string{"a", "b"}, nil); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}
	if a.Checks() == 0 {
		t.Fatal("no checks counted")
	}

	// Expected-app set disagrees with the placement.
	a = New(nil, Params{GPUs: 2, NGPUs: 2})
	if got := ruleOf(t, a.OnReplace(0, pl, []string{"a"}, nil)); got != RulePlacement {
		t.Fatalf("rule = %q, want %q", got, RulePlacement)
	}
	a = New(nil, Params{GPUs: 2, NGPUs: 2})
	if got := ruleOf(t, a.OnReplace(0, pl, []string{"a", "x"}, nil)); got != RulePlacement {
		t.Fatalf("rule = %q, want %q", got, RulePlacement)
	}

	// Lane count mismatch against the server's topology.
	a = New(nil, Params{GPUs: 3, NGPUs: 3})
	if got := ruleOf(t, a.OnReplace(0, pl, []string{"a", "b"}, nil)); got != RulePlacement {
		t.Fatalf("rule = %q, want %q", got, RulePlacement)
	}

	// Tighter audited capacity than the placement topology's.
	a = New(nil, Params{GPUs: 2, NGPUs: 2, PerGPUBytes: 55})
	if got := ruleOf(t, a.OnReplace(0, pl, []string{"a", "b"}, nil)); got != RulePlacement {
		t.Fatalf("rule = %q, want %q", got, RulePlacement)
	}
}
