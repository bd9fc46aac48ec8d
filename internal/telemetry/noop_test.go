package telemetry

import (
	"testing"
	"time"

	"adainf/internal/simtime"
)

// The zero-overhead contract: with telemetry off (a nil *Collector),
// the serving hot path must pay nothing — no allocations, no interface
// boxing. CI runs TestNoopZeroAlloc as the guard; the benchmark
// measures the residual cost (a nil check per call).

func noopHotPath(c *Collector) {
	ts := simtime.Instant(time.Second)
	c.SessionPlan(ts, 1, 0.5, 0, 8)
	c.JobPlan(ts, 1, "app", 0.25, 16, time.Millisecond, 0)
	c.Job(ts, 1, "app", 10, 0, time.Millisecond, 0, 2*time.Millisecond, true, false)
	c.Cache("app", true)
	c.CacheCorrupt("app")
	c.ProfileBuild("app", time.Millisecond, 4, 13, false)
	c.ProfileUnit("app", "node", "full", time.Millisecond)
	c.Placement(ts, 0, "app", 1, 1<<20, 0)
	c.GPUBusy(1, time.Millisecond, 0.5)
}

func TestNoopZeroAlloc(t *testing.T) {
	var c *Collector
	if allocs := testing.AllocsPerRun(1000, func() { noopHotPath(c) }); allocs != 0 {
		t.Fatalf("no-op telemetry hot path allocates %.1f/op; the contract is 0", allocs)
	}
}

func BenchmarkNoopHotPath(b *testing.B) {
	var c *Collector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		noopHotPath(c)
	}
}

// Histograms without a trace sink must also stay alloc-free per
// observation (the -hist path runs on every job).
func TestHistObserveZeroAlloc(t *testing.T) {
	c := New(Options{Hist: true})
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Job(simtime.Instant(time.Second), 1, "app", 10, 0,
			time.Millisecond, time.Millisecond, 3*time.Millisecond, true, false)
	}); allocs != 0 {
		t.Fatalf("hist-only Job observation allocates %.1f/op; the contract is 0", allocs)
	}
}
