// Per-node latency tables: the profile itself. §3.3.1 measures every
// structure of a node over one batch × GPU-fraction grid and fits a
// power law per batch, so a node's profile is a set of flat arrays
// indexed by structure × batch × fraction. The scheduler's candidate
// search (GPU fractions × structures × batches, re-run per job per
// session) costs two integer index computations plus either a measured
// cell read or one power-law evaluation per probe. Tables are built
// once per AppProfile and read-only afterwards, so they are safe to
// share across goroutines.
package profile

import (
	"fmt"
	"math"
	"math/bits"

	"adainf/internal/dnn"
	"adainf/internal/mathx"
	"adainf/internal/simtime"
)

// Table is one node's profile. Cells are addressed by (structure index,
// batch index) pairs obtained from StructIdx and BatchIdx; the fraction
// axis holds the measured grid, with the fitted power law covering
// every other fraction.
type Table struct {
	node string
	// structures are the node's structures, shallowest exit first, full
	// structure last (same order as NodeInstance.Structures).
	structures []dnn.Structure
	// batches and fracs are the sorted, distinct batch and fraction
	// axes every structure was measured over.
	batches []int
	fracs   []float64
	nB      int
	// laws holds the fitted latency(f) = A·f^B per [si*nB+bi] cell (the
	// paper's "non-linear regression model as described in [3]").
	laws []mathx.PowerLaw
	// perBatch and comm hold the measured per-batch latency and its
	// communication component per [(si*nB+bi)*len(fracs)+fi] cell.
	perBatch, comm []simtime.Duration
	retrain        RetrainProfile
}

// newTable returns an unfilled table over the axes.
func newTable(node string, structures []dnn.Structure, batches []int, fracs []float64) *Table {
	nCells := len(structures) * len(batches)
	return &Table{
		node:       node,
		structures: structures,
		batches:    batches,
		fracs:      fracs,
		nB:         len(batches),
		laws:       make([]mathx.PowerLaw, nCells),
		perBatch:   make([]simtime.Duration, nCells*len(fracs)),
		comm:       make([]simtime.Duration, nCells*len(fracs)),
		retrain:    RetrainProfile{PerSample: make([]simtime.Duration, len(fracs))},
	}
}

// Node returns the node name the table was built for.
func (t *Table) Node() string { return t.node }

// NumStructs returns the number of profiled structures.
func (t *Table) NumStructs() int { return len(t.structures) }

// FullIdx returns the index of the full structure (the last one), or -1
// for a node with no profiled structures.
func (t *Table) FullIdx() int { return len(t.structures) - 1 }

// Structure returns structure si.
func (t *Table) Structure(si int) dnn.Structure { return t.structures[si] }

// Batches returns the profiled batch sizes in increasing order — the
// candidate set BestBatch searches.
func (t *Table) Batches() []int { return t.batches }

// StructIdx returns the index of the structure with the same exit
// depth.
func (t *Table) StructIdx(st dnn.Structure) (int, error) {
	for i, s := range t.structures {
		if s.ExitAfter() == st.ExitAfter() {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile: node %q has no profile for %v", t.node, st)
}

// BatchIdx returns the index of the batch size on the table's batch
// axis, or -1 if it was not profiled.
func (t *Table) BatchIdx(batch int) int {
	for i, b := range t.batches {
		if b == batch {
			return i
		}
	}
	return -1
}

// FracIdx returns the index of the fraction on the table's fraction
// axis, or -1 if it was not measured directly.
func (t *Table) FracIdx(fraction float64) int {
	for i, f := range t.fracs {
		if f == fraction {
			return i
		}
	}
	return -1
}

// Cell returns the measured per-batch latency of structure si at batch
// index bi and fraction index fi, and its communication component.
// Every index must be in range.
func (t *Table) Cell(si, bi, fi int) (perBatch, comm simtime.Duration) {
	if bi < 0 || bi >= t.nB || fi < 0 || fi >= len(t.fracs) {
		panic(fmt.Sprintf("profile: cell (%d, %d, %d) out of range", si, bi, fi))
	}
	at := (si*t.nB+bi)*len(t.fracs) + fi
	return t.perBatch[at], t.comm[at]
}

// Law returns the fitted latency(f) power law of structure si at batch
// index bi. Both indexes must be in range.
func (t *Table) Law(si, bi int) mathx.PowerLaw {
	if bi < 0 || bi >= t.nB {
		panic(fmt.Sprintf("profile: law (%d, %d) out of range", si, bi))
	}
	return t.laws[si*t.nB+bi]
}

// Retrain returns the node's retraining profile.
func (t *Table) Retrain() *RetrainProfile { return &t.retrain }

// PerBatch returns the per-batch latency of structure si at batch index
// bi and the GPU fraction: the measured cell when the fraction lies on
// the profiled grid, the fitted power law otherwise. A structure or
// batch index out of range (a batch index out of range reports batch
// -1) and a non-positive fraction are errors; a fraction above 1 is
// clamped to 1.
func (t *Table) PerBatch(si, bi int, fraction float64) (simtime.Duration, error) {
	if si < 0 || si >= len(t.structures) {
		return 0, fmt.Errorf("profile: node %q has no structure index %d", t.node, si)
	}
	if bi < 0 || bi >= t.nB {
		return 0, fmt.Errorf("profile: batch -1 not profiled for %v", t.structures[si])
	}
	if fraction <= 0 {
		return 0, fmt.Errorf("profile: fraction %g", fraction)
	}
	if fraction > 1 {
		fraction = 1
	}
	cell := si*t.nB + bi
	if fi := t.FracIdx(fraction); fi >= 0 {
		return t.perBatch[cell*len(t.fracs)+fi], nil
	}
	return simtime.Duration(t.laws[cell].At(fraction)), nil
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
