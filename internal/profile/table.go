// Flattened per-node latency tables. The scheduler's candidate search
// (GPU fractions × structures × batches, re-run per job per session)
// previously walked StructureProfile's nested maps — a string of map
// lookups and interface indirections per probe. A Table lays the same
// data out once per profile as contiguous arrays indexed by
// structure×batch×fraction, so the hot path is two integer index
// computations plus either a measured-point read or one power-law
// evaluation. Tables are built lazily once per AppProfile and are
// read-only afterwards, so they are safe to share across goroutines.
package profile

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"adainf/internal/dnn"
	"adainf/internal/mathx"
	"adainf/internal/simtime"
)

// Table is the flattened latency view of one node's structure profiles.
// Cells are addressed by (structure index, batch index) pairs obtained
// from StructIdx and BatchIdx; the fraction axis holds the measured
// grid, with the fitted power law covering every other fraction —
// exactly the lookup StructureProfile.PerBatch performs, minus the map
// walks.
type Table struct {
	node       string
	structures []*StructureProfile
	exits      []int
	// batchAxis is the sorted union of batch sizes profiled across the
	// node's structures.
	batchAxis []int
	// bestBatches is the batch grid of the node's first (shallowest)
	// structure, verbatim — the slice sched.BestBatch historically
	// scanned.
	bestBatches []int
	nB, nF      int
	// laws/lawOK hold the fitted power law per [si*nB+bi] cell; lawOK
	// is false for batch sizes a structure did not profile.
	laws  []mathx.PowerLaw
	lawOK []bool
	// fracs is the sorted union of directly measured fractions;
	// points/hasPoint hold the measured latency per
	// [(si*nB+bi)*nF+fi] cell.
	fracs    []float64
	points   []simtime.Duration
	hasPoint []bool
}

// Node returns the node name the table was built for.
func (t *Table) Node() string { return t.node }

// NumStructs returns the number of profiled structures.
func (t *Table) NumStructs() int { return len(t.structures) }

// FullIdx returns the index of the full structure (the last one), or -1
// for a node with no profiled structures.
func (t *Table) FullIdx() int { return len(t.structures) - 1 }

// Batches returns the batch grid of the node's first structure in
// increasing order — the candidate set BestBatch searches.
func (t *Table) Batches() []int { return t.bestBatches }

// StructIdx returns the index of the structure with the same exit
// depth.
func (t *Table) StructIdx(st dnn.Structure) (int, error) {
	exit := st.ExitAfter()
	for i, e := range t.exits {
		if e == exit {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile: node %q has no profile for %v", t.node, st)
}

// BatchIdx returns the index of the batch size on the table's batch
// axis, or -1 if no structure profiled it.
func (t *Table) BatchIdx(batch int) int {
	for i, b := range t.batchAxis {
		if b == batch {
			return i
		}
	}
	return -1
}

// PerBatch returns the per-batch latency of structure si at batch index
// bi and the GPU fraction: the measured point when the fraction lies on
// the profiled grid, the fitted power law otherwise. Errors (unprofiled
// batch, non-positive fraction) match StructureProfile.PerBatch; a
// structure index out of range is an error too, and a batch index out
// of range reports batch -1.
func (t *Table) PerBatch(si, bi int, fraction float64) (simtime.Duration, error) {
	if si < 0 || si >= len(t.structures) {
		return 0, fmt.Errorf("profile: node %q has no structure index %d", t.node, si)
	}
	if bi < 0 || bi >= t.nB || !t.lawOK[si*t.nB+bi] {
		batch := -1
		if bi >= 0 && bi < t.nB {
			batch = t.batchAxis[bi]
		}
		return 0, fmt.Errorf("profile: batch %d not profiled for %v", batch, t.structures[si].Structure)
	}
	cell := si*t.nB + bi
	if fraction <= 0 {
		return 0, fmt.Errorf("profile: fraction %g", fraction)
	}
	if fraction > 1 {
		fraction = 1
	}
	base := cell * t.nF
	for fi, f := range t.fracs {
		if f == fraction {
			if t.hasPoint[base+fi] {
				return t.points[base+fi], nil
			}
			break
		}
	}
	return simtime.Duration(t.laws[cell].At(fraction)), nil
}

// newTable flattens one node's profiles.
func newTable(np *NodeProfiles) *Table {
	t := &Table{node: np.Node, structures: np.Structures}
	t.exits = make([]int, len(np.Structures))
	batchSet := make(map[int]bool)
	fracSet := make(map[float64]bool)
	for i, sp := range np.Structures {
		t.exits[i] = sp.Structure.ExitAfter()
		for _, b := range sp.batches {
			batchSet[b] = true
		}
		for _, cells := range sp.Points {
			for f := range cells {
				fracSet[f] = true
			}
		}
	}
	if len(np.Structures) > 0 {
		t.bestBatches = np.Structures[0].Batches()
	}
	t.batchAxis = sortedKeys(batchSet)
	t.fracs = sortedKeys(fracSet)
	t.nB = len(t.batchAxis)
	t.nF = len(t.fracs)
	nCells := len(np.Structures) * t.nB
	t.laws = make([]mathx.PowerLaw, nCells)
	t.lawOK = make([]bool, nCells)
	t.points = make([]simtime.Duration, nCells*t.nF)
	t.hasPoint = make([]bool, nCells*t.nF)
	for si, sp := range np.Structures {
		for bi, batch := range t.batchAxis {
			cell := si*t.nB + bi
			if law, ok := sp.Scaling[batch]; ok {
				t.laws[cell] = law
				t.lawOK[cell] = true
			}
			for fi, f := range t.fracs {
				if pt, ok := sp.Points[batch][f]; ok {
					t.points[cell*t.nF+fi] = pt.PerBatch
					t.hasPoint[cell*t.nF+fi] = true
				}
			}
		}
	}
	return t
}

func sortedKeys[K cmp.Ordered](set map[K]bool) []K {
	out := make([]K, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Tables returns the flattened latency tables in Index() order (one per
// node, App.Nodes order). Built once, read-only afterwards.
func (ap *AppProfile) Tables() []*Table {
	ap.tablesOnce.Do(func() {
		idx := ap.Index()
		ap.tables = make([]*Table, len(idx))
		for i, np := range idx {
			ap.tables[i] = newTable(np)
		}
	})
	return ap.tables
}

// LatencyCache memoizes Table.PerBatch evaluations across sessions and
// periods. The underlying power laws are pure functions of the
// immutable profile, so entries never need invalidating; errors are
// never cached (they re-derive on every probe, preserving error order).
// Not safe for concurrent use: each serving run owns one per profile
// and passes it to its method on sched.JobRequest.Costs.
type LatencyCache struct {
	tables []*Table
	cells  [][]latCell // [node][si*nB+bi]
	// slab is the unused tail of the current slot chunk; cells carve
	// their slot arrays from it, so a growing cell rarely allocates.
	slab []latSlot
}

// latCell is one (node, structure, batch) cell's open-addressed table,
// keyed on the fraction's exact bits: two probes share an entry only
// when they would evaluate the identical power law at the identical
// argument, so the memo can never change a latency. Slots are a power
// of two, probed linearly from a multiplicative hash, doubled when half
// full. Key 0 (the +0 fraction) marks an empty slot and is never stored.
type latCell struct {
	slots []latSlot
	n     int
}

type latSlot struct {
	bits uint64
	d    simtime.Duration
}

const (
	latCellMinSlots = 16
	latSlabSlots    = 1024
)

// NewLatencyCache creates a cache over the profile's tables.
func NewLatencyCache(ap *AppProfile) *LatencyCache {
	c := &LatencyCache{tables: ap.Tables(), cells: make([][]latCell, len(ap.Tables()))}
	for i, t := range c.tables {
		c.cells[i] = make([]latCell, len(t.structures)*t.nB)
	}
	return c
}

// Tables returns the cached profile's flattened tables.
func (c *LatencyCache) Tables() []*Table { return c.tables }

// PerBatch is Table.PerBatch through the memo: node-th table, structure
// si, batch index bi, at the fraction. A node index out of range is an
// error.
func (c *LatencyCache) PerBatch(node, si, bi int, fraction float64) (simtime.Duration, error) {
	if node < 0 || node >= len(c.tables) {
		return 0, fmt.Errorf("profile: node index %d out of range [0, %d)", node, len(c.tables))
	}
	t := c.tables[node]
	if fraction > 1 {
		// Clamp before keying so a clamped and an exact probe share an
		// entry (the table clamps identically).
		fraction = 1
	}
	key := math.Float64bits(fraction)
	if key == 0 || si < 0 || si >= len(t.structures) || bi < 0 || bi >= t.nB {
		// The empty-slot key and cells out of range go to the table,
		// which rejects them.
		return t.PerBatch(si, bi, fraction)
	}
	cell := &c.cells[node][si*t.nB+bi]
	if len(cell.slots) > 0 {
		if s := cell.slot(key); s.bits == key {
			return s.d, nil
		}
	}
	d, err := t.PerBatch(si, bi, fraction)
	if err != nil {
		return 0, err
	}
	if 2*(cell.n+1) > len(cell.slots) {
		c.grow(cell)
	}
	*cell.slot(key) = latSlot{key, d}
	cell.n++
	return d, nil
}

// slot returns the slot holding key, or the empty slot where it goes.
// The cell has slots.
func (cell *latCell) slot(key uint64) *latSlot {
	mask := len(cell.slots) - 1
	shift := bits.LeadingZeros64(uint64(mask)) // keep log2(len) top bits
	for i := int((key * 0x9e3779b97f4a7c15) >> shift); ; i = (i + 1) & mask {
		if s := &cell.slots[i]; s.bits == key || s.bits == 0 {
			return s
		}
	}
}

// grow doubles the cell's slots (or gives it its first ones) and
// rehashes its entries.
func (c *LatencyCache) grow(cell *latCell) {
	old, n := cell.slots, max(2*len(cell.slots), latCellMinSlots)
	if len(c.slab) < n {
		c.slab = make([]latSlot, max(n, latSlabSlots))
	}
	cell.slots, c.slab = c.slab[:n:n], c.slab[n:]
	for _, s := range old {
		if s.bits != 0 {
			*cell.slot(s.bits) = s
		}
	}
}
