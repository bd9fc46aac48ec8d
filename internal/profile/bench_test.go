package profile

import (
	"testing"

	"adainf/internal/app"
	"adainf/internal/simtime"
)

// BenchmarkBuildAppProfileM1 builds one app's full-grid profile
// serially under the /M1 memory configuration, where every request
// runs its layers on its own and GPU-memory eviction dominates the
// cost. One op is one cold build.
func BenchmarkBuildAppProfileM1(b *testing.B) { benchmarkBuild(b, pinnedM1) }

// BenchmarkBuildAppProfileAda is the same build under AdaInf's own
// memory configuration, where each layer runs once for the whole
// batch.
func BenchmarkBuildAppProfileAda(b *testing.B) { benchmarkBuild(b, pinnedAda) }

func benchmarkBuild(b *testing.B, mem pinnedMem) {
	a := app.BikeRackOccupancy()
	cfg := Config{Strategy: mem.strategy, NewPolicy: mem.newPolicy}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := buildAppProfile(a, cfg, 1); err != nil {
			b.Fatal(err)
		}
	}
}

var sinkLatency simtime.Duration

// BenchmarkLatencyCacheHit probes a warm latency memo over every node
// and structure at a few fractions: one op is one memo hit, with no
// allocation.
func BenchmarkLatencyCacheHit(b *testing.B) {
	ap := vs(b)
	c := NewLatencyCache(ap)
	var probes []latProbe
	for node, tb := range ap.Tables() {
		for si := 0; si < tb.NumStructs(); si++ {
			for _, f := range []float64{0.1, 0.37, 0.5, 0.83} {
				probes = append(probes, latProbe{node, si, tb.BatchIdx(8), f})
			}
		}
	}
	for _, p := range probes {
		if _, err := c.PerBatch(p.node, p.si, p.bi, p.fraction); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := probes[i%len(probes)]
		sinkLatency, _ = c.PerBatch(p.node, p.si, p.bi, p.fraction)
	}
}
