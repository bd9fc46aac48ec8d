package gpumem

import (
	"fmt"
	"slices"

	"adainf/internal/simtime"
)

// CheckInvariants validates the manager's §3.4 memory accounting:
//
//   - gpuUsed equals the byte sum of resident entries and never
//     exceeds the GPU capacity;
//   - pinUsed equals the byte sum of PIN entries and stays within the
//     PIN capacity;
//   - the eviction index and the entries map agree: every locGPU entry
//     sits at its recorded heap slot of the bucket its kind, last
//     phase and SLO name, nothing else is indexed, and each bucket's
//     heap is in the order its reuse class currently calls for;
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
			b := e.bkt
			if b == nil || e.hidx < 0 || e.hidx >= len(b.heap) || b.heap[e.hidx] != e {
				return fmt.Errorf("gpumem: resident entry %v has stale index slot %d", id, e.hidx)
			}
			if b.key != keyOf(e) {
				return fmt.Errorf("gpumem: resident entry %v filed under bucket %+v", id, b.key)
			}
		default:
			if e.loc == locPinned {
				pin += e.content.Bytes
			}
			if e.bkt != nil || e.hidx != -1 {
				return fmt.Errorf("gpumem: non-resident entry %v has index slot %d", id, e.hidx)
			}
		}
	}
	nIndexed := 0
	for _, b := range m.buckets {
		nIndexed += len(b.heap)
		if want := m.cfg.Policy.ageOrdered(m.TypeReuseMeanMs(ReuseClass{Kind: b.key.kind, Phase: b.key.phase})); b.byAge != want {
			return fmt.Errorf("gpumem: bucket %+v age-ordered %v, its class calls for %v", b.key, b.byAge, want)
		}
		for i := 1; i < len(b.heap); i++ {
			if b.less(i, (i-1)/2) {
				return fmt.Errorf("gpumem: bucket %+v heap order broken at %d", b.key, i)
			}
		}
	}
	if nResident != nIndexed {
		return fmt.Errorf("gpumem: %d resident entries, eviction index holds %d", nResident, nIndexed)
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

// auditCandidates scores every resident outside the working set: the
// candidate set auditSelection sorts in full.
func (m *Manager) auditCandidates(now simtime.Instant) []scoredEntry {
	cands := m.scratch[:0]
	for _, b := range m.buckets {
		for _, e := range b.heap {
			if e.stamp != m.stampGen {
				cands = append(cands, scoredEntry{e: e, score: m.score(e, now)})
			}
		}
	}
	m.scratch = cands
	return cands
}

// auditSelection cross-checks one makeRoom call's victim selection
// against a full sort: it sorts a copy of the candidates by
// evictionCmp, audits that order, and requires the victims (in
// selection order) to equal the sorted prefix element for element,
// scores included. The first mismatch is stashed in auditErr for
// CheckInvariants to surface.
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
	for i, got := range victims {
		want := sorted[i]
		if got.e != want.e || got.score != want.score {
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
