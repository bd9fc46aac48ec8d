package serving

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"adainf/internal/audit"
	"adainf/internal/baselines"
	"adainf/internal/sched"
	"adainf/internal/simtime"
	"adainf/internal/telemetry"
)

func TestApplySessionOf(t *testing.T) {
	session := 5 * time.Millisecond
	cases := []struct {
		completion simtime.Duration
		want       int
	}{
		{0, 0},
		{-3 * time.Millisecond, 0},  // negative completion clamps to session 0
		{1 * time.Millisecond, 1},   // mid-session rounds up
		{5 * time.Millisecond, 1},   // exact boundary applies at that session
		{5*time.Millisecond + 1, 2}, // one tick past rounds up again
		{50 * time.Second, 10000},
	}
	for _, c := range cases {
		at := simtime.Instant(0).Add(c.completion)
		if got := applySessionOf(at, session); got != c.want {
			t.Errorf("applySessionOf(%v) = %d, want %d", c.completion, got, c.want)
		}
		// The defining property: the apply session is the first whose
		// start is not before the completion.
		start := simtime.Instant(0).Add(simtime.Duration(c.want) * session)
		if start.Before(at) {
			t.Errorf("completion %v: session %d starts before it", c.completion, c.want)
		}
		if c.want > 0 {
			prev := simtime.Instant(0).Add(simtime.Duration(c.want-1) * session)
			if !prev.Before(at) {
				t.Errorf("completion %v: session %d is not the first valid one", c.completion, c.want)
			}
		}
	}
}

// TestRetrainApplyOrder checks the apply order is (applySession,
// planIdx): retrains completing within the same session window must
// apply in period-plan order.
func TestRetrainApplyOrder(t *testing.T) {
	prs := make([]pendingRetrain, 6)
	var items []retrainItem
	add := func(applySession, planIdx int) {
		items = append(items, retrainItem{pr: &prs[planIdx], applySession: applySession, planIdx: planIdx})
	}
	// Added out of order on purpose.
	add(7, 3)
	add(2, 4)
	add(7, 0)
	add(2, 1)
	add(9, 2)
	add(2, 5)
	sortApplyOrder(items)
	want := []struct{ sess, idx int }{
		{2, 1}, {2, 4}, {2, 5}, {7, 0}, {7, 3}, {9, 2},
	}
	if len(items) != len(want) {
		t.Fatalf("%d items after sorting, want %d", len(items), len(want))
	}
	for i, w := range want {
		it := items[i]
		if it.applySession != w.sess || it.planIdx != w.idx {
			t.Fatalf("item %d = (session %d, plan %d), want (%d, %d)",
				i, it.applySession, it.planIdx, w.sess, w.idx)
		}
		if it.pr != &prs[w.idx] {
			t.Fatalf("item %d carries the wrong pendingRetrain", i)
		}
	}
}

// lateRetrains wraps a method, moves every planned whole-pool retrain's
// completion to the start of its period's last session, and records the
// sessions it planned.
type lateRetrains struct {
	sched.Method
	session simtime.Duration
	planned int
	worked  map[int]bool
}

func (m *lateRetrains) OnPeriodStart(ctx *sched.PeriodContext) (*sched.PeriodPlan, error) {
	plan, err := m.Method.OnPeriodStart(ctx)
	if err != nil {
		return nil, err
	}
	last := ctx.Start.Add(ctx.Length - m.session)
	for i := range plan.Retrains {
		r := &plan.Retrains[i]
		r.Completion = last
		r.Busy = min(r.Busy, last.Sub(ctx.Start))
	}
	m.planned += len(plan.Retrains)
	return plan, nil
}

func (m *lateRetrains) PlanSession(ctx *sched.SessionContext) (*sched.SessionPlan, error) {
	m.worked[ctx.Session] = true
	return m.Method.PlanSession(ctx)
}

// TestPeriodEndDrainAppliesLateRetrains pins the drain at the end of
// each period: retrains that apply at a period's last session must apply
// even when no work session runs there. An app's prediction never decays
// back to zero after its first arrival, so at this sparse rate only the
// periods before the first arrival end on an empty session; for those,
// the end-of-period drain is the only thing that can apply the retrains.
func TestPeriodEndDrainAppliesLateRetrains(t *testing.T) {
	apps, profs := fixtures(t)
	clock := simtime.NewClock()
	m := &lateRetrains{Method: baselines.NewEkya(), session: clock.Session, worked: map[int]bool{}}
	var buf bytes.Buffer
	tel := telemetry.New(telemetry.Options{Trace: &buf})
	var rep audit.Report
	cfg := Config{
		Apps:        apps,
		Method:      m,
		GPUs:        4,
		Horizon:     3 * clock.Period,
		Seed:        1,
		RatePerApp:  0.005,
		Retraining:  true,
		PoolSamples: 2000,
		Profiles:    profs,
		Telemetry:   tel,
		AuditReport: &rep,
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	if rep.Total != 0 {
		t.Fatal(rep.Err())
	}
	if m.planned == 0 {
		t.Fatal("no whole-pool retrains planned")
	}
	spp := clock.SessionsPerPeriod()
	emptyEnds := 0
	for p := 0; p < 3; p++ {
		if !m.worked[(p+1)*spp-1] {
			emptyEnds++
		}
	}
	if emptyEnds == 0 || len(m.worked) == 0 {
		t.Fatalf("%d periods end on an empty session, %d work sessions: want both nonzero",
			emptyEnds, len(m.worked))
	}

	type key struct{ session, planIdx int }
	applied := map[key]bool{}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev struct {
			Ev           string `json:"ev"`
			ApplySession int    `json:"apply_session"`
			PlanIdx      int    `json:"plan_idx"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		switch ev.Ev {
		case telemetry.EvRetrainDiscard:
			t.Errorf("retrain discarded: %s", sc.Bytes())
		case telemetry.EvRetrainApply:
			k := key{ev.ApplySession, ev.PlanIdx}
			if applied[k] {
				t.Errorf("retrain (session %d, plan %d) applied twice", k.session, k.planIdx)
			}
			applied[k] = true
			if ev.ApplySession%spp != spp-1 {
				t.Errorf("retrain applied at session %d, not a period's last", ev.ApplySession)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(applied) != m.planned {
		t.Errorf("%d retrains applied, %d planned", len(applied), m.planned)
	}
}

// phantomRetrain wraps a method and appends one whole-pool retrain for
// the given app and node to every period plan.
type phantomRetrain struct {
	sched.Method
	app, node string
}

func (m *phantomRetrain) OnPeriodStart(ctx *sched.PeriodContext) (*sched.PeriodPlan, error) {
	plan, err := m.Method.OnPeriodStart(ctx)
	if err != nil {
		return nil, err
	}
	plan.Retrains = append(plan.Retrains, sched.PeriodRetrain{
		App: m.app, Node: m.node, Samples: 10,
		Completion: ctx.Start.Add(time.Second), GPUFraction: 0.1, Busy: time.Second,
	})
	return plan, nil
}

// TestPeriodPlanRetrainUnknownTarget checks that a period plan naming an
// app or node the server does not run fails the run with an error that
// names it, instead of charging the phantom job to some lane and
// dropping it at apply time.
func TestPeriodPlanRetrainUnknownTarget(t *testing.T) {
	apps, profs := fixtures(t)
	realApp, realNode := apps[0].Name, apps[0].Nodes[0].Name
	for _, c := range []struct{ app, node, want string }{
		{"nope", realNode, `"nope"`},
		{realApp, "nonode", `"nonode"`},
	} {
		_, err := Run(Config{
			Apps:        apps,
			Method:      &phantomRetrain{Method: baselines.NewEkya(), app: c.app, node: c.node},
			GPUs:        4,
			Horizon:     50 * time.Second,
			Seed:        1,
			RatePerApp:  50,
			Retraining:  true,
			PoolSamples: 2000,
			Profiles:    profs,
			Audit:       true,
		})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("retrain of %s/%s: error %v, want one naming %s", c.app, c.node, err, c.want)
		}
	}
}
