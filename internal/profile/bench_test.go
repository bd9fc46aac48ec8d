package profile

import (
	"testing"

	"adainf/internal/app"
)

// BenchmarkBuildAppProfileM1 builds one app's full-grid profile
// serially under the /M1 memory configuration, where every request
// runs its layers on its own and GPU-memory eviction dominates the
// cost. One op is one cold build.
func BenchmarkBuildAppProfileM1(b *testing.B) {
	a := app.BikeRackOccupancy()
	cfg := Config{Strategy: pinnedM1.strategy, NewPolicy: pinnedM1.newPolicy, Workers: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildAppProfile(a, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
