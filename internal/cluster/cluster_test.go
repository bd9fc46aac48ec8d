package cluster

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestTopologyValidate(t *testing.T) {
	for _, tc := range []struct {
		topo Topology
		ok   bool
	}{
		{Topology{NGPUs: 1, PerGPUBytes: 1}, true},
		{Topology{NGPUs: 4, PerGPUBytes: 16 << 30}, true},
		{Topology{NGPUs: 0, PerGPUBytes: 1}, false},
		{Topology{NGPUs: -1, PerGPUBytes: 1}, false},
		{Topology{NGPUs: 2, PerGPUBytes: 0}, false},
		{Topology{NGPUs: 2, PerGPUBytes: -5}, false},
	} {
		err := tc.topo.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", tc.topo, err, tc.ok)
		}
	}
}

// TestTopologyMaxGPUs pins the lane-mask bound: MaxGPUs lanes are all
// alive and valid, one more is rejected rather than leaving a lane
// that the 64-bit liveness mask can never mark alive.
func TestTopologyMaxGPUs(t *testing.T) {
	full := Topology{NGPUs: MaxGPUs, PerGPUBytes: 1}
	if err := full.Validate(); err != nil {
		t.Fatalf("%d lanes: %v", MaxGPUs, err)
	}
	if n := full.NAlive(); n != MaxGPUs {
		t.Fatalf("NAlive = %d, want %d", n, MaxGPUs)
	}
	if full.AliveMask()&(1<<(MaxGPUs-1)) == 0 {
		t.Fatalf("lane %d dead", MaxGPUs-1)
	}
	over := Topology{NGPUs: MaxGPUs + 1, PerGPUBytes: 1}
	if err := over.Validate(); err == nil {
		t.Fatalf("%d lanes accepted; NAlive = %d", over.NGPUs, over.NAlive())
	}
}

func randomCatalog(rng *rand.Rand, n int) []AppLoad {
	loads := make([]float64, n)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("app-%02d", i)
		loads[i] = rng.Float64() * 1000
	}
	ranks := RankLoads(names, loads)
	apps := make([]AppLoad, n)
	for i := 0; i < n; i++ {
		apps[i] = AppLoad{
			Name:            names[i],
			WorkingSetBytes: int64(rng.Intn(1 << 28)), // ≤ 256 MiB
			LoadRank:        ranks[i],
		}
	}
	return apps
}

// TestPlaceProperties is the placement property test: randomized
// catalogs × 1/2/4 GPUs must place deterministically (and
// input-order-independently), cover every app exactly once, and never
// exceed per-GPU memory.
func TestPlaceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	topoBytes := int64(16 << 30)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		apps := randomCatalog(rng, n)
		for _, ngpus := range []int{1, 2, 4} {
			topo := Topology{NGPUs: ngpus, PerGPUBytes: topoBytes}
			p1, err := Place(topo, apps)
			if err != nil {
				t.Fatalf("trial %d ngpus %d: %v", trial, ngpus, err)
			}
			// Deterministic across repeats.
			p2, err := Place(topo, apps)
			if err != nil {
				t.Fatalf("trial %d ngpus %d repeat: %v", trial, ngpus, err)
			}
			if !samePlacement(p1, p2) {
				t.Fatalf("trial %d ngpus %d: repeat placements differ", trial, ngpus)
			}
			// Independent of input order.
			shuffled := append([]AppLoad(nil), apps...)
			rng.Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			p3, err := Place(topo, shuffled)
			if err != nil {
				t.Fatalf("trial %d ngpus %d shuffled: %v", trial, ngpus, err)
			}
			if !samePlacement(p1, p3) {
				t.Fatalf("trial %d ngpus %d: shuffled input changed the placement", trial, ngpus)
			}
			for _, a := range apps {
				g1, ok1 := p1.GPU(a.Name)
				g3, ok3 := p3.GPU(a.Name)
				if !ok1 || !ok3 || g1 != g3 {
					t.Fatalf("trial %d ngpus %d: app %s on %d/%v vs %d/%v",
						trial, ngpus, a.Name, g1, ok1, g3, ok3)
				}
			}
			// Every app on exactly one GPU.
			seen := make(map[string]int)
			total := 0
			for g := 0; g < ngpus; g++ {
				for _, a := range p1.AppsOn(g) {
					seen[a.Name]++
					total++
				}
			}
			if total != n {
				t.Fatalf("trial %d ngpus %d: %d placements for %d apps", trial, ngpus, total, n)
			}
			for _, a := range apps {
				if seen[a.Name] != 1 {
					t.Fatalf("trial %d ngpus %d: app %s placed %d times", trial, ngpus, a.Name, seen[a.Name])
				}
			}
			// Never exceed per-GPU memory, and BytesOn agrees with members.
			for g := 0; g < ngpus; g++ {
				var sum int64
				for _, a := range p1.AppsOn(g) {
					sum += a.WorkingSetBytes
				}
				if sum != p1.BytesOn(g) {
					t.Fatalf("trial %d ngpus %d gpu %d: BytesOn %d, member sum %d",
						trial, ngpus, g, p1.BytesOn(g), sum)
				}
				if sum > topoBytes {
					t.Fatalf("trial %d ngpus %d gpu %d: %d bytes over %d capacity",
						trial, ngpus, g, sum, topoBytes)
				}
			}
			// NGPUs=1 puts everything on GPU 0.
			if ngpus == 1 {
				for _, a := range apps {
					if g, _ := p1.GPU(a.Name); g != 0 {
						t.Fatalf("trial %d: single-GPU placement put %s on %d", trial, a.Name, g)
					}
				}
			}
		}
	}
}

func TestPlaceBalancesLoad(t *testing.T) {
	// Four equal-sized apps on two GPUs: the two heaviest must land on
	// different lanes.
	apps := []AppLoad{
		{Name: "a", WorkingSetBytes: 100, LoadRank: 0},
		{Name: "b", WorkingSetBytes: 100, LoadRank: 1},
		{Name: "c", WorkingSetBytes: 100, LoadRank: 2},
		{Name: "d", WorkingSetBytes: 100, LoadRank: 3},
	}
	p, err := Place(Topology{NGPUs: 2, PerGPUBytes: 1000}, apps)
	if err != nil {
		t.Fatal(err)
	}
	ga, _ := p.GPU("a")
	gb, _ := p.GPU("b")
	if ga == gb {
		t.Fatalf("two heaviest apps share GPU %d", ga)
	}
	if n0, n1 := len(p.AppsOn(0)), len(p.AppsOn(1)); n0 != 2 || n1 != 2 {
		t.Fatalf("unbalanced placement: %d vs %d apps", n0, n1)
	}
}

func TestPlaceCapacityPressure(t *testing.T) {
	// One app per GPU is all that fits; the placer must spread them.
	apps := []AppLoad{
		{Name: "a", WorkingSetBytes: 900, LoadRank: 0},
		{Name: "b", WorkingSetBytes: 900, LoadRank: 1},
	}
	p, err := Place(Topology{NGPUs: 2, PerGPUBytes: 1000}, apps)
	if err != nil {
		t.Fatal(err)
	}
	ga, _ := p.GPU("a")
	gb, _ := p.GPU("b")
	if ga == gb {
		t.Fatalf("both 900-byte apps on GPU %d with 1000-byte capacity", ga)
	}

	// A third such app fits nowhere.
	apps = append(apps, AppLoad{Name: "c", WorkingSetBytes: 900, LoadRank: 2})
	if _, err := Place(Topology{NGPUs: 2, PerGPUBytes: 1000}, apps); err == nil {
		t.Fatal("overfull catalog placed without error")
	}
}

func TestPlaceErrors(t *testing.T) {
	topo := Topology{NGPUs: 2, PerGPUBytes: 1000}
	if _, err := Place(Topology{}, nil); err == nil {
		t.Error("zero topology accepted")
	}
	if _, err := Place(topo, []AppLoad{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Error("duplicate app accepted")
	}
	if _, err := Place(topo, []AppLoad{{Name: "a", WorkingSetBytes: -1}}); err == nil {
		t.Error("negative working set accepted")
	}
	if _, err := Place(topo, []AppLoad{{Name: "a", WorkingSetBytes: 2000}}); err == nil {
		t.Error("oversized app accepted")
	}
}

// TestPlaceOversizedAppError pins the diagnostic contract for an
// application that can never be placed: the error names the app and
// quantifies the byte deficit against the per-GPU capacity, so a
// misconfigured catalog is debuggable from the message alone.
func TestPlaceOversizedAppError(t *testing.T) {
	topo := Topology{NGPUs: 2, PerGPUBytes: 1000}
	_, err := Place(topo, []AppLoad{{Name: "video-wall", WorkingSetBytes: 1300}})
	if err == nil {
		t.Fatal("oversized app placed")
	}
	for _, want := range []string{`"video-wall"`, "1300", "1000", "300", "never be placed"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	// An app that fits a GPU but not the packed catalog keeps the
	// distinct no-room message: no deficit, since a lane could hold it.
	apps := []AppLoad{
		{Name: "a", WorkingSetBytes: 900, LoadRank: 0},
		{Name: "b", WorkingSetBytes: 900, LoadRank: 1},
		{Name: "c", WorkingSetBytes: 900, LoadRank: 2},
	}
	_, err = Place(topo, apps)
	if err == nil || strings.Contains(err.Error(), "never be placed") {
		t.Errorf("overfull catalog error = %v, want the fits-on-no-GPU message", err)
	}
}

// TestReplaceFailover pins the Replace contract: apps displaced by a
// dead lane re-pack onto survivors, apps that fit nowhere come back
// unplaced instead of failing, and the degraded placement differs
// from the healthy one.
func TestReplaceFailover(t *testing.T) {
	topo := Topology{NGPUs: 2, PerGPUBytes: 1000}
	apps := []AppLoad{
		{Name: "a", WorkingSetBytes: 600, LoadRank: 0},
		{Name: "b", WorkingSetBytes: 600, LoadRank: 1},
	}
	full, err := Place(topo, apps)
	if err != nil {
		t.Fatal(err)
	}
	p, unplaced, err := Replace(topo, 0b01, apps)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 1 || len(unplaced) != 1 {
		t.Fatalf("placed %d, unplaced %d, want 1 and 1", p.Len(), len(unplaced))
	}
	if g, ok := p.GPU(p.apps[0].Name); !ok || g != 0 {
		t.Fatalf("survivor app on GPU %d (ok=%v), want 0", g, ok)
	}
	if unplaced[0].Name != "b" {
		t.Errorf("unplaced app %q, want the lighter-ranked b", unplaced[0].Name)
	}
	if samePlacement(p, full) {
		t.Error("degraded placement equals the healthy one")
	}
	// All-alive Replace is exactly Place.
	p2, unplaced2, err := Replace(topo, AllAlive(2), apps)
	if err != nil || len(unplaced2) != 0 {
		t.Fatalf("all-alive Replace: %v, unplaced %v", err, unplaced2)
	}
	if !samePlacement(p2, full) {
		t.Error("all-alive Replace differs from Place")
	}
}

func TestRankLoads(t *testing.T) {
	names := []string{"c", "a", "b", "d"}
	loads := []float64{5, 10, 5, 1}
	ranks := RankLoads(names, loads)
	// a (10) → 0; b and c tie at 5 → b before c by name; d (1) last.
	want := []int{2, 0, 1, 3}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", ranks, want)
		}
	}
	if !RanksEqual(ranks, append([]int(nil), ranks...)) {
		t.Error("RanksEqual(x, copy(x)) = false")
	}
	if RanksEqual(ranks, []int{0, 1, 2, 3}) {
		t.Error("RanksEqual on different ranks = true")
	}
	if RanksEqual(ranks, ranks[:3]) {
		t.Error("RanksEqual on different lengths = true")
	}
}

// TestPlacementSensitivity asserts that the load ranking and the
// topology are placement inputs: swapping two apps' ranks or adding
// lanes yields a different placement.
func TestPlacementSensitivity(t *testing.T) {
	topo := Topology{NGPUs: 2, PerGPUBytes: 1000}
	base := []AppLoad{
		{Name: "a", WorkingSetBytes: 100, LoadRank: 0},
		{Name: "b", WorkingSetBytes: 200, LoadRank: 1},
	}
	p1, err := Place(topo, base)
	if err != nil {
		t.Fatal(err)
	}
	// A rank swap changes the placement even when membership is
	// unchanged.
	swapped := []AppLoad{
		{Name: "a", WorkingSetBytes: 100, LoadRank: 1},
		{Name: "b", WorkingSetBytes: 200, LoadRank: 0},
	}
	p2, err := Place(topo, swapped)
	if err != nil {
		t.Fatal(err)
	}
	if samePlacement(p1, p2) {
		t.Error("rank swap left the placement unchanged")
	}
	p3, err := Place(Topology{NGPUs: 4, PerGPUBytes: 1000}, base)
	if err != nil {
		t.Fatal(err)
	}
	if samePlacement(p1, p3) {
		t.Error("topology change left the placement unchanged")
	}
}
