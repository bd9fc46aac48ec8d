package gpumem

import (
	"fmt"
	"slices"
)

// CheckInvariants validates the manager's §3.4 memory accounting:
//
//   - gpuUsed equals the byte sum of resident entries and never
//     exceeds the GPU capacity;
//   - pinUsed equals the byte sum of PIN entries and stays within the
//     PIN capacity;
//   - the residents list and the entries map agree (every locGPU
//     entry is listed exactly once at its recorded index; nothing
//     else is listed);
//   - a content whose last allocation was denied by Config.FailAlloc
//     is not resident (the fault-recovery invariant: denial sticks
//     until a later acquire succeeds);
//   - when Config.Audit is set, no earlier makeRoom call violated the
//     eviction order (victims taken highest priority score first,
//     S_c = (1−α)·R_c + α·L_s under the priority policy, with the
//     working set exempt), and every call's selected victims equal
//     the prefix of a full reference sort of its candidates.
//
// It returns nil when every invariant holds. The walk is read-only
// and deterministic (aggregates only — no map-order dependence).
func (m *Manager) CheckInvariants() error {
	if m.auditErr != nil {
		return m.auditErr
	}
	var gpu, pin int64
	nResident := 0
	for id, e := range m.entries {
		if e.content.ID != id {
			return fmt.Errorf("gpumem: entry keyed %v holds content %v", id, e.content.ID)
		}
		if e.content.Bytes <= 0 {
			return fmt.Errorf("gpumem: entry %v has %d bytes", id, e.content.Bytes)
		}
		switch e.loc {
		case locGPU:
			gpu += e.content.Bytes
			nResident++
			if e.resIdx < 0 || e.resIdx >= len(m.residents) || m.residents[e.resIdx] != e {
				return fmt.Errorf("gpumem: resident entry %v has stale residents index %d", id, e.resIdx)
			}
			// Recovery invariant: a denied allocation keeps the content
			// out of GPU memory until a later acquire succeeds (which
			// clears the fault mark).
			if e.faulted {
				return fmt.Errorf("gpumem: entry %v resident despite unrecovered allocation fault", id)
			}
		case locPinned:
			pin += e.content.Bytes
			if e.resIdx != -1 {
				return fmt.Errorf("gpumem: pinned entry %v has residents index %d", id, e.resIdx)
			}
		default:
			if e.resIdx != -1 {
				return fmt.Errorf("gpumem: pageable entry %v has residents index %d", id, e.resIdx)
			}
		}
	}
	if nResident != len(m.residents) {
		return fmt.Errorf("gpumem: %d resident entries, residents list has %d", nResident, len(m.residents))
	}
	if gpu != m.gpuUsed {
		return fmt.Errorf("gpumem: gpuUsed %d, resident bytes sum to %d", m.gpuUsed, gpu)
	}
	if pin != m.pinUsed {
		return fmt.Errorf("gpumem: pinUsed %d, pinned bytes sum to %d", m.pinUsed, pin)
	}
	if m.gpuUsed > m.cfg.GPUBytes {
		return fmt.Errorf("gpumem: resident bytes %d exceed GPU capacity %d", m.gpuUsed, m.cfg.GPUBytes)
	}
	if m.pinUsed > m.cfg.PinBytes {
		return fmt.Errorf("gpumem: PIN bytes %d exceed PIN capacity %d", m.pinUsed, m.cfg.PinBytes)
	}
	return nil
}

// auditSelection cross-checks one makeRoom call's victim selection
// against a full sort: it sorts a copy of the candidates by
// evictionCmp, audits that order, and requires the victims (held in
// ascending eviction priority, first victim last) to equal the sorted
// prefix element for element. The first mismatch is stashed in
// auditErr for CheckInvariants to surface.
func (m *Manager) auditSelection(candidates, victims []scoredEntry) {
	if m.auditErr != nil {
		return
	}
	sorted := append(m.auditScratch[:0], candidates...)
	slices.SortFunc(sorted, evictionCmp)
	m.auditScratch = sorted
	m.auditEvictionOrder(sorted)
	if m.auditErr != nil {
		return
	}
	for i := range victims {
		got, want := victims[len(victims)-1-i], sorted[i]
		if got.e != want.e {
			m.auditErr = fmt.Errorf(
				"gpumem: eviction selection took %v (score %g, seq %d) as victim %d, sorted order has %v (score %g, seq %d)",
				got.e.content.ID, got.score, got.e.seq, i, want.e.content.ID, want.score, want.e.seq)
			return
		}
	}
}

// auditEvictionOrder verifies one makeRoom call's sorted candidate
// list: scores non-increasing with the unique seq breaking ties
// ascending (a strict total order), and no working-set member offered
// as a victim. The first violation is stashed in auditErr for
// CheckInvariants to surface; later calls keep the first.
func (m *Manager) auditEvictionOrder(candidates []scoredEntry) {
	if m.auditErr != nil {
		return
	}
	for i := range candidates {
		c := &candidates[i]
		if c.e.stamp == m.stampGen {
			m.auditErr = fmt.Errorf("gpumem: eviction candidate %v is in the working set", c.e.content.ID)
			return
		}
		if i == 0 {
			continue
		}
		p := &candidates[i-1]
		if c.score > p.score || (c.score == p.score && c.e.seq <= p.e.seq) {
			m.auditErr = fmt.Errorf(
				"gpumem: eviction order broken at %d: %v (score %g, seq %d) before %v (score %g, seq %d)",
				i, p.e.content.ID, p.score, p.e.seq, c.e.content.ID, c.score, c.e.seq)
			return
		}
	}
}
