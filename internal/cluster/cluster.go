// Package cluster models the edge server as a set of discrete GPUs
// and deterministically places applications onto them. The serving
// runtime is single-GPU-amount at heart (§3.3.1 divides "the GPU
// amount" across concurrent sessions); this package adds the missing
// scaling axis: with NGPUs > 1 every application is pinned to exactly
// one GPU lane, share division happens per lane over the applications
// placed there, and retraining busy-time charges the owning lane.
//
// Placement is a pure function of its inputs — the topology, each
// application's profiled working-set bytes, and its predicted-load
// *rank* (not the raw load, so ordinary request fluctuations cannot
// reshuffle applications between GPUs mid-run).
package cluster

import (
	"fmt"
	"sort"
)

// MaxGPUs is the most lanes a Topology can describe: lane liveness is
// a 64-bit mask, so lane 64 and above could never be alive.
const MaxGPUs = 64

// Topology describes the edge server's accelerator layout: how many
// discrete GPUs it has and how much memory each one offers for model
// residency.
type Topology struct {
	// NGPUs is the number of discrete GPU lanes (1..MaxGPUs).
	NGPUs int
	// PerGPUBytes is each GPU's memory capacity in bytes (> 0).
	PerGPUBytes int64
	// Alive is the lane-liveness bitmask (bit g set ⇒ lane g healthy).
	// The zero value means every lane is alive, so topologies built
	// before lane faults existed keep their meaning.
	Alive uint64
}

// AllAlive returns the liveness mask with every one of n lanes alive.
func AllAlive(n int) uint64 {
	if n <= 0 {
		return 0
	}
	if n >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(n)) - 1
}

// AliveMask returns the topology's effective liveness mask, normalized
// to its lane count (the zero value reads as all-alive).
func (t Topology) AliveMask() uint64 {
	if t.Alive == 0 {
		return AllAlive(t.NGPUs)
	}
	return t.Alive & AllAlive(t.NGPUs)
}

// LaneAlive reports whether lane g is healthy.
func (t Topology) LaneAlive(g int) bool {
	return g >= 0 && g < t.NGPUs && t.AliveMask()&(1<<uint(g)) != 0
}

// NAlive counts the healthy lanes.
func (t Topology) NAlive() int {
	n := 0
	for m := t.AliveMask(); m != 0; m &= m - 1 {
		n++
	}
	return n
}

// Validate checks the topology's well-formedness.
func (t Topology) Validate() error {
	if t.NGPUs < 1 || t.NGPUs > MaxGPUs {
		return fmt.Errorf("cluster: %d GPUs, want 1..%d", t.NGPUs, MaxGPUs)
	}
	if t.PerGPUBytes <= 0 {
		return fmt.Errorf("cluster: %d bytes per GPU", t.PerGPUBytes)
	}
	if t.AliveMask() == 0 {
		return fmt.Errorf("cluster: no alive lane in mask %#x over %d GPUs", t.Alive, t.NGPUs)
	}
	return nil
}

// AppLoad is one application's placement inputs.
type AppLoad struct {
	// Name identifies the application (unique within one placement).
	Name string
	// WorkingSetBytes is the application's profiled GPU working set:
	// the residency it needs on whichever GPU serves it.
	WorkingSetBytes int64
	// LoadRank is the application's position in the predicted-load
	// ordering (0 = most loaded). Ranks, not raw loads, drive
	// placement, so the assignment only changes when applications
	// actually swap order.
	LoadRank int
}

// Placement is an immutable assignment of every application to exactly
// one GPU lane.
type Placement struct {
	topo  Topology
	apps  []AppLoad // assignment order (heaviest load first)
	gpu   []int     // apps[i] runs on GPU gpu[i]
	index map[string]int
	bytes []int64 // residency per GPU
	load  []float64
}

// Place bin-packs the applications onto the topology's alive GPUs:
// first-fit-decreasing over predicted load (working-set bytes, then
// name, break ties), assigning each application to the least-loaded
// alive GPU that still has the memory to hold its working set (ties to
// the lowest GPU index). The result is deterministic — independent of
// the input order — and errors if any application fits on no GPU.
func Place(topo Topology, apps []AppLoad) (*Placement, error) {
	p, _, err := pack(topo, apps, false)
	return p, err
}

// Replace is the failover re-pack after a lane-liveness change: the
// same first-fit-decreasing packing as Place, restricted to the lanes
// alive in the mask, but an application whose working set fits on no
// surviving lane is returned in the second value (assignment order)
// instead of failing the packing — admission control decides its fate.
func Replace(topo Topology, alive uint64, apps []AppLoad) (*Placement, []AppLoad, error) {
	topo.Alive = alive
	return pack(topo, apps, true)
}

// pack is the shared first-fit-decreasing core of Place and Replace.
// With partial set, applications that fit nowhere are collected and
// returned instead of erroring.
func pack(topo Topology, apps []AppLoad, partial bool) (*Placement, []AppLoad, error) {
	if err := topo.Validate(); err != nil {
		return nil, nil, err
	}
	order := make([]AppLoad, len(apps))
	copy(order, apps)
	sort.Slice(order, func(i, j int) bool {
		a, b := &order[i], &order[j]
		if a.LoadRank != b.LoadRank {
			return a.LoadRank < b.LoadRank
		}
		if a.WorkingSetBytes != b.WorkingSetBytes {
			return a.WorkingSetBytes > b.WorkingSetBytes
		}
		return a.Name < b.Name
	})
	p := &Placement{
		topo:  topo,
		gpu:   make([]int, 0, len(order)),
		index: make(map[string]int, len(order)),
		bytes: make([]int64, topo.NGPUs),
		load:  make([]float64, topo.NGPUs),
	}
	var unplaced []AppLoad
	alive := topo.AliveMask()
	n := len(order)
	for i := range order {
		a := order[i]
		if _, dup := p.index[a.Name]; dup {
			return nil, nil, fmt.Errorf("cluster: duplicate app %q", a.Name)
		}
		if a.WorkingSetBytes < 0 {
			return nil, nil, fmt.Errorf("cluster: app %q working set %d bytes", a.Name, a.WorkingSetBytes)
		}
		best := -1
		for g := 0; g < topo.NGPUs; g++ {
			if alive&(1<<uint(g)) == 0 {
				continue
			}
			if p.bytes[g]+a.WorkingSetBytes > topo.PerGPUBytes {
				continue
			}
			if best < 0 || p.load[g] < p.load[best] {
				best = g
			}
		}
		if best < 0 {
			if partial {
				unplaced = append(unplaced, a)
				continue
			}
			if a.WorkingSetBytes > topo.PerGPUBytes {
				return nil, nil, fmt.Errorf("cluster: app %q working set %d bytes exceeds the %d-byte GPU capacity by %d bytes — it can never be placed",
					a.Name, a.WorkingSetBytes, topo.PerGPUBytes, a.WorkingSetBytes-topo.PerGPUBytes)
			}
			return nil, nil, fmt.Errorf("cluster: app %q (%d bytes) fits on no GPU (%d × %d bytes)",
				a.Name, a.WorkingSetBytes, topo.NGPUs, topo.PerGPUBytes)
		}
		p.index[a.Name] = len(p.apps)
		p.apps = append(p.apps, a)
		p.gpu = append(p.gpu, best)
		p.bytes[best] += a.WorkingSetBytes
		// Heavier load rank → heavier weight; the exact scale is
		// irrelevant, only the deterministic balancing it induces.
		p.load[best] += float64(n - a.LoadRank)
	}
	return p, unplaced, nil
}

// Topology returns the placement's topology.
func (p *Placement) Topology() Topology { return p.topo }

// NGPUs returns the topology's GPU count.
func (p *Placement) NGPUs() int { return p.topo.NGPUs }

// Len returns the number of placed applications.
func (p *Placement) Len() int { return len(p.apps) }

// GPU returns the lane serving the named application.
func (p *Placement) GPU(name string) (int, bool) {
	i, ok := p.index[name]
	if !ok {
		return 0, false
	}
	return p.gpu[i], true
}

// BytesOn returns GPU g's total placed working-set bytes.
func (p *Placement) BytesOn(g int) int64 {
	if g < 0 || g >= len(p.bytes) {
		return 0
	}
	return p.bytes[g]
}

// AppsOn returns the applications placed on GPU g, in assignment
// (heaviest-load-first) order. The slice is freshly allocated.
func (p *Placement) AppsOn(g int) []AppLoad {
	var out []AppLoad
	for i := range p.apps {
		if p.gpu[i] == g {
			out = append(out, p.apps[i])
		}
	}
	return out
}

// Apps returns every placed application in assignment order. The
// returned slice is the placement's own storage; do not mutate it.
func (p *Placement) Apps() []AppLoad { return p.apps }

// GPUAt returns the lane of the i-th application in assignment order.
func (p *Placement) GPUAt(i int) int { return p.gpu[i] }

// RankLoads converts raw predicted loads into the LoadRank inputs of
// Place: rank 0 is the heaviest load, ties broken by name ascending.
// The returned slice is parallel to the inputs.
func RankLoads(names []string, loads []float64) []int {
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		i, j := idx[a], idx[b]
		if loads[i] != loads[j] {
			return loads[i] > loads[j]
		}
		return names[i] < names[j]
	})
	ranks := make([]int, len(names))
	for r, i := range idx {
		ranks[i] = r
	}
	return ranks
}

// RanksEqual reports whether two rank slices are identical — the
// serving loop's "has the load ordering changed" test that gates
// placement recomputation at period boundaries.
func RanksEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
