package main

import (
	"time"

	"adainf/internal/sched"
	"adainf/internal/telemetry"
)

// timedMethod wraps a scheduling method and times every call the
// serving loop makes into it, so planner time is measured from outside
// the program. It forwards every optional interface the serving loop
// probes for, so a wrapped run is the same simulation as a plain one.
type timedMethod struct {
	inner sched.Method
	// periods holds one span per OnPeriodStart call.
	periods []span
	// sessionNs holds every PlanSession call's duration; sessionsIn
	// counts them per period (index = position in periods).
	sessionNs  []int64
	sessionsIn []periodSessions
}

// periodSessions aggregates the session plans made during one period:
// a span per 5 ms session would swamp the span file.
type periodSessions struct {
	n     int
	total time.Duration
}

// steadyTimedMethod is a timedMethod whose inner method is a
// sched.SteadyStatePlanner. The marker must be exposed exactly when the
// inner method has it, because it gates the fast-forward memo.
type steadyTimedMethod struct{ *timedMethod }

func (steadyTimedMethod) SteadyStatePlanning() {}

// wrapMethod returns the timing wrapper of m and its recorder.
func wrapMethod(m sched.Method) (sched.Method, *timedMethod) {
	t := &timedMethod{inner: m}
	if _, ok := m.(sched.SteadyStatePlanner); ok {
		return steadyTimedMethod{t}, t
	}
	return t, t
}

func (t *timedMethod) Name() string { return t.inner.Name() }

func (t *timedMethod) OnPeriodStart(ctx *sched.PeriodContext) (*sched.PeriodPlan, error) {
	start := time.Now()
	p, err := t.inner.OnPeriodStart(ctx)
	t.periods = append(t.periods, span{name: "period_plan", start: start, end: time.Now()})
	t.sessionsIn = append(t.sessionsIn, periodSessions{})
	return p, err
}

func (t *timedMethod) PlanSession(ctx *sched.SessionContext) (*sched.SessionPlan, error) {
	start := time.Now()
	p, err := t.inner.PlanSession(ctx)
	d := time.Since(start)
	t.sessionNs = append(t.sessionNs, int64(d))
	if n := len(t.sessionsIn); n > 0 {
		t.sessionsIn[n-1].n++
		t.sessionsIn[n-1].total += d
	}
	return p, err
}

func (t *timedMethod) SetTelemetry(c *telemetry.Collector) {
	if m, ok := t.inner.(interface{ SetTelemetry(*telemetry.Collector) }); ok {
		m.SetTelemetry(c)
	}
}

func (t *timedMethod) SetPlanMemoVerify(on bool) {
	if m, ok := t.inner.(interface{ SetPlanMemoVerify(bool) }); ok {
		m.SetPlanMemoVerify(on)
	}
}

func (t *timedMethod) PlanMemoStats() (hits, misses, invalidated uint64) {
	if m, ok := t.inner.(interface {
		PlanMemoStats() (uint64, uint64, uint64)
	}); ok {
		return m.PlanMemoStats()
	}
	return 0, 0, 0
}

func (t *timedMethod) DagFor(app string) *sched.RIDag {
	if m, ok := t.inner.(interface{ DagFor(string) *sched.RIDag }); ok {
		return m.DagFor(app)
	}
	return nil
}

// periodPlanTime and sessionPlanTime total the recorded calls.
func (t *timedMethod) periodPlanTime() time.Duration {
	var d time.Duration
	for _, s := range t.periods {
		d += s.end.Sub(s.start)
	}
	return d
}

func (t *timedMethod) sessionPlanTime() time.Duration {
	var d time.Duration
	for _, ns := range t.sessionNs {
		d += time.Duration(ns)
	}
	return d
}
