package gpumem

import "adainf/internal/simtime"

// The eviction index keeps every resident entry in one small binary
// heap per bucket: entries that share a reuse class (content kind,
// phase of the last access) and an SLO. Inside a bucket the policy's
// score is either constant or non-increasing in the last access (see
// Policy.ageOrdered), so each heap is kept in the order evictionCmp
// gives its entries at any instant:
//
//   - seq alone when the score is constant;
//   - (lastAccess, seq) when it is not. Distinct access times can
//     still round to one score (Duration.Seconds collides at gaps of
//     about 1e16 ns), so the bucket's best entry is the lowest seq in
//     the run of root-score entries (tieRun), not always the root.
//
// makeRoom then compares only bucket heads, by evictionCmp over the
// policy's Score, instead of scoring every resident.

// bucketKey identifies one eviction bucket.
type bucketKey struct {
	kind  Kind
	phase Phase
	slo   float64
}

func keyOf(e *entry) bucketKey {
	return bucketKey{kind: e.content.ID.Kind, phase: e.lastPhase, slo: e.content.SLOms}
}

// bucket is one heap of the eviction index.
type bucket struct {
	key   bucketKey
	byAge bool // heap order (lastAccess, seq); seq alone otherwise
	heap  []*entry
	// head and score cache the bucket's best non-working-set entry
	// during one makeRoom call (nil when it has none).
	head  *entry
	score float64
}

func (b *bucket) less(i, j int) bool {
	x, y := b.heap[i], b.heap[j]
	if b.byAge && x.lastAccess != y.lastAccess {
		return x.lastAccess < y.lastAccess
	}
	return x.seq < y.seq
}

func (b *bucket) swap(i, j int) {
	b.heap[i], b.heap[j] = b.heap[j], b.heap[i]
	b.heap[i].hidx = i
	b.heap[j].hidx = j
}

func (b *bucket) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !b.less(i, p) {
			return
		}
		b.swap(i, p)
		i = p
	}
}

func (b *bucket) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(b.heap) {
			return
		}
		if r := c + 1; r < len(b.heap) && b.less(r, c) {
			c = r
		}
		if !b.less(c, i) {
			return
		}
		b.swap(i, c)
		i = c
	}
}

func (b *bucket) push(e *entry) {
	e.bkt = b
	e.hidx = len(b.heap)
	b.heap = append(b.heap, e)
	b.up(e.hidx)
}

// remove takes the entry at heap index i out of the bucket.
func (b *bucket) remove(i int) {
	e := b.heap[i]
	last := len(b.heap) - 1
	if i != last {
		b.swap(i, last)
	}
	b.heap[last] = nil
	b.heap = b.heap[:last]
	if i != last {
		b.fix(i)
	}
	e.bkt, e.hidx = nil, -1
}

// fix restores the heap order after the entry at i changed its keys.
func (b *bucket) fix(i int) {
	e := b.heap[i]
	b.up(i)
	b.down(e.hidx)
}

func (b *bucket) heapify() {
	for i := len(b.heap)/2 - 1; i >= 0; i-- {
		b.down(i)
	}
}

// index puts a resident entry into its bucket, creating the bucket on
// first use. Buckets live until Reset: there are at most four per SLO
// the manager has seen, so a linear search beats hashing the key.
func (m *Manager) index(e *entry) {
	k := keyOf(e)
	for _, b := range m.buckets {
		if b.key == k {
			b.push(e)
			return
		}
	}
	var b *bucket
	if n := len(m.spareBuckets); n > 0 {
		b = m.spareBuckets[n-1]
		m.spareBuckets = m.spareBuckets[:n-1]
	} else {
		b = new(bucket)
	}
	b.key, b.byAge, b.head = k, m.byAge[k.kind][k.phase], nil
	m.buckets = append(m.buckets, b)
	b.push(e)
}

// refreshClass re-derives a reuse class's bucket order after its mean
// changed, and re-heapifies the class's buckets when the order flipped.
// A mean only goes from unknown to a value ≥ 0 (recordReuse skips
// negative gaps), so that happens at most once per class between resets.
func (m *Manager) refreshClass(kind Kind, phase Phase) {
	byAge := m.cfg.Policy.ageOrdered(m.TypeReuseMeanMs(ReuseClass{Kind: kind, Phase: phase}))
	if byAge == m.byAge[kind][phase] {
		return
	}
	m.byAge[kind][phase] = byAge
	for _, b := range m.buckets {
		if b.key.kind == kind && b.key.phase == phase {
			b.byAge = byAge
			b.heapify()
		}
	}
}

func (m *Manager) score(e *entry, now simtime.Instant) float64 {
	return m.cfg.Policy.Score(e, now, m.TypeReuseMeanMs(ReuseClass{Kind: e.content.ID.Kind, Phase: e.lastPhase}))
}

// resolveHead caches the bucket's first entry under evictionCmp that
// is outside the working set. Working-set entries met on the way are
// set aside (out of the heap) until makeRoom puts them back.
func (m *Manager) resolveHead(b *bucket, now simtime.Instant) {
	for len(b.heap) > 0 {
		top := m.score(b.heap[0], now)
		i := 0
		if b.byAge {
			i = m.tieRun(b, now, top)
		}
		e := b.heap[i]
		if e.stamp != m.stampGen {
			b.head, b.score = e, top
			return
		}
		b.remove(i)
		m.aside = append(m.aside, e)
	}
	b.head = nil
}

// tieRun returns the heap index of the lowest seq among the entries
// scoring top, the root's score. Scores are non-increasing down an
// age-ordered heap, so those entries form a subtree at the root.
func (m *Manager) tieRun(b *bucket, now simtime.Instant, top float64) int {
	best := 0
	stack := append(m.stack[:0], 0)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b.heap[i].seq < b.heap[best].seq {
			best = i
		}
		for c := 2*i + 1; c <= 2*i+2 && c < len(b.heap); c++ {
			if b.heap[c].lastAccess == b.heap[i].lastAccess || m.score(b.heap[c], now) == top {
				stack = append(stack, c)
			}
		}
	}
	m.stack = stack
	return best
}
