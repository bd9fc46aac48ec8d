package cluster

import (
	"math/rand"
	"testing"
)

// fuzzCatalog derives a deterministic catalog from the fuzz inputs:
// n apps with hashed working sets and a valid load ranking. Some seeds
// produce equal-load ties so placement stability under permutation is
// exercised where it matters.
func fuzzCatalog(seed int64, n int, maxBytes int64) []AppLoad {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, n)
	loads := make([]float64, n)
	for i := 0; i < n; i++ {
		names[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
		// Quantized loads force ties between apps.
		loads[i] = float64(rng.Intn(4)) * 100
	}
	ranks := RankLoads(names, loads)
	apps := make([]AppLoad, n)
	for i := 0; i < n; i++ {
		ws := rng.Int63n(maxBytes + 1)
		apps[i] = AppLoad{Name: names[i], WorkingSetBytes: ws, LoadRank: ranks[i]}
	}
	return apps
}

// samePlacement reports whether two placements are equal: the same
// lane count, capacity and effective liveness mask, and the same
// applications assigned to the same lanes in the same order.
func samePlacement(a, b *Placement) bool {
	ta, tb := a.Topology(), b.Topology()
	if ta.NGPUs != tb.NGPUs || ta.PerGPUBytes != tb.PerGPUBytes || ta.AliveMask() != tb.AliveMask() || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.apps[i] != b.apps[i] || a.gpu[i] != b.gpu[i] {
			return false
		}
	}
	return true
}

// checkPlacement asserts the invariants every successful packing must
// satisfy: apps only on alive lanes, per-lane bytes within capacity,
// and the membership consistent with the per-lane views.
func checkPlacement(t *testing.T, p *Placement, topo Topology) {
	t.Helper()
	alive := p.Topology().AliveMask()
	for i := 0; i < p.Len(); i++ {
		g := p.gpu[i]
		if g < 0 || g >= topo.NGPUs {
			t.Fatalf("app %d on out-of-range GPU %d", i, g)
		}
		if alive&(1<<uint(g)) == 0 {
			t.Fatalf("app %q placed on dead lane %d (alive %b)", p.apps[i].Name, g, alive)
		}
	}
	for g := 0; g < topo.NGPUs; g++ {
		var sum int64
		for _, a := range p.AppsOn(g) {
			sum += a.WorkingSetBytes
		}
		if sum != p.BytesOn(g) {
			t.Fatalf("lane %d: BytesOn %d, member sum %d", g, p.BytesOn(g), sum)
		}
		if sum > topo.PerGPUBytes {
			t.Fatalf("lane %d: %d bytes over the %d capacity", g, sum, topo.PerGPUBytes)
		}
	}
}

// FuzzPlace drives Place over random topologies and catalogs: it must
// never panic, every success must satisfy the capacity invariant, and
// the placement must be stable under permutation of the input
// (equal-load ties included).
func FuzzPlace(f *testing.F) {
	f.Add(1, int64(1000), int64(7), 8)
	f.Add(4, int64(1<<20), int64(42), 12)
	f.Add(64, int64(1), int64(0), 1)
	f.Fuzz(func(t *testing.T, ngpus int, perGPU int64, seed int64, n int) {
		if ngpus < 1 || ngpus > 64 || perGPU < 1 || perGPU > 1<<40 || n < 0 || n > 64 {
			t.Skip()
		}
		topo := Topology{NGPUs: ngpus, PerGPUBytes: perGPU}
		apps := fuzzCatalog(seed, n, perGPU+perGPU/2)
		p1, err := Place(topo, apps)
		if err != nil {
			return // an app that fits nowhere is a legitimate rejection
		}
		checkPlacement(t, p1, topo)
		if p1.Len() != n {
			t.Fatalf("placed %d of %d apps without error", p1.Len(), n)
		}
		shuffled := append([]AppLoad(nil), apps...)
		rand.New(rand.NewSource(seed^0x5ca1ab1e)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		p2, err := Place(topo, shuffled)
		if err != nil {
			t.Fatalf("shuffled input rejected: %v", err)
		}
		if !samePlacement(p1, p2) {
			t.Fatal("placement not permutation-stable")
		}
	})
}

// FuzzReplace drives the failover re-pack over random alive masks: no
// panics, placed + unplaced always partition the catalog, survivors
// respect capacity and liveness, and the packing stays
// permutation-stable.
func FuzzReplace(f *testing.F) {
	f.Add(2, int64(1000), uint64(0b01), int64(7), 8)
	f.Add(4, int64(1<<20), uint64(0b1010), int64(42), 12)
	f.Add(8, int64(512), uint64(0), int64(3), 20)
	f.Fuzz(func(t *testing.T, ngpus int, perGPU int64, alive uint64, seed int64, n int) {
		if ngpus < 1 || ngpus > 64 || perGPU < 1 || perGPU > 1<<40 || n < 0 || n > 64 {
			t.Skip()
		}
		topo := Topology{NGPUs: ngpus, PerGPUBytes: perGPU}
		apps := fuzzCatalog(seed, n, perGPU+perGPU/2)
		p1, unplaced, err := Replace(topo, alive, apps)
		if err != nil {
			// Only a structurally invalid input may be rejected: a
			// topology whose effective mask is empty.
			if (Topology{NGPUs: ngpus, PerGPUBytes: perGPU, Alive: alive}).AliveMask() != 0 {
				t.Fatalf("valid topology rejected: %v", err)
			}
			return
		}
		checkPlacement(t, p1, topo)
		if p1.Len()+len(unplaced) != n {
			t.Fatalf("placed %d + unplaced %d != %d apps", p1.Len(), len(unplaced), n)
		}
		for _, a := range unplaced {
			if _, ok := p1.GPU(a.Name); ok {
				t.Fatalf("app %q both placed and unplaced", a.Name)
			}
		}
		shuffled := append([]AppLoad(nil), apps...)
		rand.New(rand.NewSource(seed^0x5ca1ab1e)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		p2, unplaced2, err := Replace(topo, alive, shuffled)
		if err != nil {
			t.Fatalf("shuffled input rejected: %v", err)
		}
		if !samePlacement(p1, p2) || len(unplaced) != len(unplaced2) {
			t.Fatalf("re-pack not permutation-stable: %d vs %d unplaced", len(unplaced), len(unplaced2))
		}
	})
}
