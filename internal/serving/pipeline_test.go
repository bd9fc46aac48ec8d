package serving

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"adainf/internal/baselines"
	"adainf/internal/faults"
	"adainf/internal/sched"
)

var errInjected = errors.New("injected method failure")

// failingMethod wraps a method and fails its failPlan-th PlanSession or
// its failPeriod-th OnPeriodStart call (counted from 1; 0 never fails).
type failingMethod struct {
	sched.Method
	failPlan, failPeriod int
	plans, periods       int
	// failedAt is the session whose plan failed.
	failedAt int
}

func (m *failingMethod) OnPeriodStart(ctx *sched.PeriodContext) (*sched.PeriodPlan, error) {
	if m.periods++; m.periods == m.failPeriod {
		return nil, errInjected
	}
	return m.Method.OnPeriodStart(ctx)
}

func (m *failingMethod) PlanSession(ctx *sched.SessionContext) (*sched.SessionPlan, error) {
	if m.plans++; m.plans == m.failPlan {
		m.failedAt = ctx.Session
		return nil, errInjected
	}
	return m.Method.PlanSession(ctx)
}

// waitGoroutines polls, for at most five seconds, until no more
// goroutines run than before: a goroutine that has handed over its
// last value may still be exiting when Run returns.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left after Run, %d before:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelineStopsOnMethodError fails a run's method in the middle of
// its first period's sessions, while the filler draws the next period
// and the scorer holds queued batches, and at its second period start,
// just after the filler was joined. Run must return the method's error
// and leave no goroutine of its own running.
func TestPipelineStopsOnMethodError(t *testing.T) {
	apps, profs := fixtures(t)
	spp := clock.SessionsPerPeriod()
	for _, c := range []struct {
		name string
		m    *failingMethod
	}{
		{"mid-period PlanSession", &failingMethod{Method: baselines.NewEkya(), failPlan: spp / 2}},
		{"second OnPeriodStart", &failingMethod{Method: baselines.NewEkya(), failPeriod: 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			_, err := Run(Config{
				Apps:        apps,
				Method:      c.m,
				Horizon:     150 * time.Second,
				Seed:        5,
				RatePerApp:  150,
				Retraining:  true,
				PoolSamples: 1000,
				Profiles:    profs,
			})
			if !errors.Is(err, errInjected) {
				t.Fatalf("Run returned %v, want the method's error", err)
			}
			if c.m.failPlan > 0 && (c.m.failedAt == 0 || c.m.failedAt >= spp-1) {
				t.Fatalf("PlanSession failed at session %d, not inside the first period", c.m.failedAt)
			}
			if c.m.failPeriod > 0 && c.m.plans == 0 {
				t.Fatal("no session ran before the failing period start")
			}
			waitGoroutines(t, before)
		})
	}
}

// TestRunRejectsArrivalsBeyondInt32 drives the arrival rows past int32,
// once with an absurd request rate and once with the largest burst
// factor over a rate whose plain sessions still fit: Run must fail with
// an error rather than wrap, and leave no goroutine of its own running.
func TestRunRejectsArrivalsBeyondInt32(t *testing.T) {
	apps, profs := fixtures(t)
	for _, c := range []struct {
		name string
		rate float64
		fc   *faults.Config
	}{
		{"rate", 1e12, nil},
		{"burst factor", 1e11, &faults.Config{Burst: 1, BurstFactor: faults.MaxBurstFactor}},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			_, err := Run(Config{
				Apps:       apps[:1],
				Method:     baselines.NewEkya(),
				Horizon:    100 * time.Second,
				Seed:       1,
				RatePerApp: c.rate,
				Retraining: true,
				Profiles:   profs,
				Faults:     c.fc,
			})
			if err == nil || !strings.Contains(err.Error(), "int32") {
				t.Fatalf("Run returned %v, want an int32 overflow error", err)
			}
			waitGoroutines(t, before)
		})
	}
}
