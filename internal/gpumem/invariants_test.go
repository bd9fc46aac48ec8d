package gpumem

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"adainf/internal/simtime"
)

// TestRandomOperationInvariants drives the manager with long random
// sequences of acquires and releases and checks the accounting
// invariants after every step:
//
//   - GPU usage never exceeds capacity;
//   - PIN usage never exceeds the PIN capacity and never goes negative;
//   - communication statistics only grow.
func TestRandomOperationInvariants(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		policies := []Policy{LRUPolicy{}, PriorityPolicy{Alpha: 0.4}}
		m := NewManager(Config{
			GPUBytes: int64(1+rng.Intn(64)) * mb,
			PinBytes: int64(rng.Intn(16)) * mb,
			Policy:   policies[rng.Intn(len(policies))],
			Audit:    true, // eviction-order audit surfaces via CheckInvariants below
		})
		now := simtime.Instant(0)
		var live []ContentID
		var lastComm simtime.Duration
		for step := 0; step < 2000; step++ {
			now = now.Add(time.Duration(1+rng.Intn(500)) * time.Microsecond)
			switch {
			case len(live) > 0 && rng.Intn(4) == 0:
				// Release a random live content.
				i := rng.Intn(len(live))
				m.Release(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			default:
				kind := Kind(rng.Intn(2))
				id := ContentID{
					App:   "app",
					Model: []string{"a", "b", "c"}[rng.Intn(3)],
					Layer: rng.Intn(6),
					Kind:  kind,
				}
				if kind == KindIntermediate {
					id.Seq = uint64(rng.Intn(10))
				}
				acc := Access{
					Content: Content{
						ID:            id,
						Bytes:         int64(1+rng.Intn(8)) * mb / 2,
						SLOms:         float64(400 + rng.Intn(200)),
						ProducedOnGPU: kind == KindIntermediate,
					},
					Phase: Phase(rng.Intn(2)),
					Model: id.Model,
					JobID: uint64(step / 100),
				}
				if _, err := m.Acquire(now, []Access{acc}); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				live = append(live, id)
			}
			if m.GPUUsed() < 0 || m.GPUUsed() > m.Capacity() {
				t.Fatalf("seed %d step %d: GPU usage %d outside [0, %d]",
					seed, step, m.GPUUsed(), m.Capacity())
			}
			if m.PinUsed() < 0 {
				t.Fatalf("seed %d step %d: negative PIN usage %d", seed, step, m.PinUsed())
			}
			if comm := m.Stats().CommTime(); comm < lastComm {
				t.Fatalf("seed %d step %d: comm time went backwards", seed, step)
			} else {
				lastComm = comm
			}
			// Full structural audit: per-entry location/backpointer
			// consistency, aggregate accounting, capacity bounds, and
			// any eviction-order violation the last makeRoom stashed.
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
		// Releasing everything must drain the accounting to zero.
		m.ReleaseMatching(func(ContentID) bool { return true })
		if m.GPUUsed() != 0 || m.PinUsed() != 0 {
			t.Fatalf("seed %d: usage after full release: gpu=%d pin=%d",
				seed, m.GPUUsed(), m.PinUsed())
		}
	}
}

// lockstep applies one random stream of acquires, releases, clock
// steps and seeded reuse means to several managers alike. Capacities
// in the tests below let 50–200 residents compete for eviction, and
// many scores tie (shared SLOs, shared access instants).
type lockstep struct {
	rng  *rand.Rand
	now  simtime.Instant
	live []ContentID
	slos []float64
	// step returns the clock change before operation i.
	step func(rng *rand.Rand, i int) time.Duration
	// seed, when non-nil, may seed reuse means before operation i.
	seed func(m *Manager, i int)
	i    int
}

// next applies one operation to every manager and fails the test if
// their communication charges differ.
func (d *lockstep) next(t *testing.T, ms ...*Manager) {
	t.Helper()
	d.now = d.now.Add(d.step(d.rng, d.i))
	if d.seed != nil {
		for _, m := range ms {
			d.seed(m, d.i)
		}
	}
	d.i++
	if len(d.live) > 0 && d.rng.Intn(8) == 0 {
		i := d.rng.Intn(len(d.live))
		for _, m := range ms {
			m.Release(d.live[i])
		}
		d.live[i] = d.live[len(d.live)-1]
		d.live = d.live[:len(d.live)-1]
		return
	}
	const kb = mb / 1024
	accs := make([]Access, 1+d.rng.Intn(3))
	for j := range accs {
		kind := Kind(d.rng.Intn(2))
		id := ContentID{App: "app", Model: []string{"a", "b", "c"}[d.rng.Intn(3)], Layer: d.rng.Intn(20), Kind: kind}
		if kind == KindIntermediate {
			id.Seq = uint64(d.rng.Intn(12))
		}
		accs[j] = Access{
			Content: Content{
				ID:            id,
				Bytes:         int64(1+d.rng.Intn(8)) * 64 * kb,
				SLOms:         d.slos[d.rng.Intn(len(d.slos))],
				ProducedOnGPU: kind == KindIntermediate,
			},
			Phase: Phase(d.rng.Intn(2)),
			Model: id.Model,
			JobID: uint64(d.i / 50),
		}
		d.live = append(d.live, id)
	}
	var first simtime.Duration
	for k, m := range ms {
		c, err := m.Acquire(d.now, accs)
		if err != nil {
			t.Fatalf("op %d: %v", d.i, err)
		}
		if k == 0 {
			first = c
		} else if c != first {
			t.Fatalf("op %d: manager %d charged %v, manager 0 %v", d.i, k, c, first)
		}
	}
}

// resident counts the entries in the eviction index.
func resident(m *Manager) int {
	n := 0
	for _, b := range m.buckets {
		n += len(b.heap)
	}
	return n
}

// lruTies counts pairs of residents with distinct last accesses whose
// LRU scores at now are equal (adjacent in access order).
func lruTies(m *Manager, now simtime.Instant) int {
	var es []*entry
	for _, b := range m.buckets {
		es = append(es, b.heap...)
	}
	slices.SortFunc(es, func(a, b *entry) int { return int(a.lastAccess - b.lastAccess) })
	n := 0
	for i := 1; i < len(es); i++ {
		a, b := es[i-1], es[i]
		if a.lastAccess != b.lastAccess && (LRUPolicy{}).Score(a, now, -1) == (LRUPolicy{}).Score(b, now, -1) {
			n++
		}
	}
	return n
}

// TestAuditedSelectionMatchesUnaudited drives identical random streams
// through an audited and an unaudited manager. The audit checks every
// makeRoom call's index selection against a full sort of all
// candidates; the two managers must also agree on state and
// statistics after every step, since auditing is read-only. The rows
// cover each order the index keeps a bucket in and each way a score
// can tie or a class can change order.
func TestAuditedSelectionMatchesUnaudited(t *testing.T) {
	hundredMicros := func(lo, hi int) func(*rand.Rand, int) time.Duration {
		return func(rng *rand.Rand, _ int) time.Duration {
			return time.Duration(lo+rng.Intn(hi-lo+1)) * 100 * time.Microsecond
		}
	}
	slos := []float64{400, 500, 600}
	rows := []struct {
		name   string
		policy Policy
		slos   []float64
		step   func(*rand.Rand, int) time.Duration
		seed   func(m *Manager, i int)
		// wantTies requires distinct access times to tie on the LRU
		// score while the row runs.
		wantTies bool
	}{
		{name: "lru", policy: LRUPolicy{}, slos: slos, step: hundredMicros(0, 2)},
		{name: "alpha0", policy: PriorityPolicy{Alpha: 0}, slos: slos, step: hundredMicros(0, 2)},
		{name: "alpha0.4", policy: PriorityPolicy{Alpha: 0.4}, slos: slos, step: hundredMicros(0, 2)},
		{name: "alpha1", policy: PriorityPolicy{Alpha: 1}, slos: slos, step: hundredMicros(0, 2)},
		{name: "sub-ulp-slos", policy: PriorityPolicy{Alpha: 0.4},
			slos: []float64{400, math.Nextafter(400, 500)}, step: hundredMicros(0, 2)},
		{name: "clock-backwards/lru", policy: LRUPolicy{}, slos: slos, step: hundredMicros(-2, 3)},
		{name: "clock-backwards/alpha0.4", policy: PriorityPolicy{Alpha: 0.4}, slos: slos, step: hundredMicros(-2, 3)},
		{name: "negative-seeded-mean", policy: PriorityPolicy{Alpha: 0.4}, slos: slos, step: hundredMicros(0, 2),
			// Every 100 operations one class's mean turns negative (the
			// fallback order) and then back, in turn.
			seed: func(m *Manager, i int) {
				if i%100 != 0 {
					return
				}
				class := ReuseClass{Kind: Kind(i / 100 % 2), Phase: Phase(i / 200 % 2)}
				mean := -1e6
				if i/100%4 >= 2 {
					mean = 1e6
				}
				if err := m.SeedTypeReuse(class, mean, 1); err != nil {
					panic(err)
				}
			}},
		{name: "lru-score-ties-at-1e16ns", policy: LRUPolicy{}, slos: slos, wantTies: true,
			// Nanosecond steps, with a 1e16 ns jump every 100
			// operations: the gaps then reach the range where
			// Duration.Seconds maps neighbouring instants to one value.
			step: func(rng *rand.Rand, i int) time.Duration {
				if i%100 == 99 {
					return 1e16
				}
				return time.Duration(rng.Intn(3))
			}},
	}
	for _, row := range rows {
		// The per-step digests dominate the run time. The lru and
		// alpha0.4 rows run two seeds, the others one; -short runs
		// the lru and alpha0.4 rows on one seed only.
		basic := row.name == "lru" || row.name == "alpha0.4"
		seeds := []int64{11}
		switch {
		case basic && !testing.Short():
			seeds = append(seeds, 12)
		case !basic && testing.Short():
			continue
		}
		for _, seed := range seeds {
			rng := rand.New(rand.NewSource(seed))
			cfg := Config{
				GPUBytes: int64(24+rng.Intn(24)) * mb,
				PinBytes: int64(rng.Intn(8)) * mb,
				Policy:   row.policy,
			}
			plain := NewManager(cfg)
			cfg.Audit = true
			audited := NewManager(cfg)
			d := &lockstep{rng: rng, slos: row.slos, step: row.step, seed: row.seed}
			maxResidents, ties := 0, 0
			for step := 0; step < 1500; step++ {
				if row.wantTies {
					ties += lruTies(audited, d.now.Add(row.step(rand.New(rand.NewSource(0)), d.i)))
				}
				d.next(t, plain, audited)
				if plain.StateDigest() != audited.StateDigest() || plain.Stats() != audited.Stats() {
					t.Fatalf("%s seed %d step %d: audited manager diverged: %+v vs %+v",
						row.name, seed, step, plain.Stats(), audited.Stats())
				}
				if err := audited.CheckInvariants(); err != nil {
					t.Fatalf("%s seed %d step %d: %v", row.name, seed, step, err)
				}
				if err := plain.CheckInvariants(); err != nil {
					t.Fatalf("%s seed %d step %d: unaudited: %v", row.name, seed, step, err)
				}
				maxResidents = max(maxResidents, resident(audited))
			}
			if st := audited.Stats(); st.Evictions == 0 || maxResidents < 50 {
				t.Fatalf("%s seed %d: vacuous run: %d evictions, at most %d residents",
					row.name, seed, st.Evictions, maxResidents)
			}
			if row.wantTies && ties == 0 {
				t.Fatalf("%s seed %d: no LRU score ties between distinct access times", row.name, seed)
			}
		}
	}
}

// TestResetMatchesNewManager checks that a reset manager is a new one:
// after a random history under another config, Reset(cfg) followed by
// a random stream must track NewManager(cfg) on the same stream in
// state digest, statistics, reuse CDFs and index consistency.
func TestResetMatchesNewManager(t *testing.T) {
	policies := []Policy{LRUPolicy{}, PriorityPolicy{Alpha: 0.4}, PriorityPolicy{Alpha: 1}}
	randomConfig := func(rng *rand.Rand) Config {
		return Config{
			GPUBytes: int64(16+rng.Intn(32)) * mb,
			PinBytes: int64(rng.Intn(8)) * mb,
			Policy:   policies[rng.Intn(len(policies))],
			Audit:    rng.Intn(2) == 0,
		}
	}
	step := func(rng *rand.Rand, _ int) time.Duration {
		return time.Duration(rng.Intn(3)) * 100 * time.Microsecond
	}
	slos := []float64{400, 500}
	seeds := int64(4)
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		used := NewManager(randomConfig(rng))
		history := &lockstep{rng: rng, slos: slos, step: step}
		for i := 0; i < 400+rng.Intn(400); i++ {
			history.next(t, used)
		}
		cfg := randomConfig(rng)
		if err := used.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		fresh := NewManager(cfg)
		d := &lockstep{rng: rng, slos: slos, step: step}
		for i := 0; i < 800; i++ {
			d.next(t, fresh, used)
			if fresh.StateDigest() != used.StateDigest() || fresh.Stats() != used.Stats() {
				t.Fatalf("seed %d op %d: reset manager diverged: %+v vs %+v", seed, i, used.Stats(), fresh.Stats())
			}
			if err := used.CheckInvariants(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, i, err)
			}
		}
		for _, k := range []Kind{KindParam, KindIntermediate} {
			for _, p := range []Phase{PhaseInference, PhaseRetraining} {
				c := ReuseClass{Kind: k, Phase: p}
				if !reflect.DeepEqual(fresh.ReuseCDF(c), used.ReuseCDF(c)) || fresh.TypeReuseMeanMs(c) != used.TypeReuseMeanMs(c) {
					t.Fatalf("seed %d: %v reuse samples differ after Reset", seed, c)
				}
			}
		}
		for _, ck := range []CrossKind{CrossTaskIntermediate, CrossTaskParam, CrossJobParam} {
			if !reflect.DeepEqual(fresh.CrossCDF(ck), used.CrossCDF(ck)) {
				t.Fatalf("seed %d: %v samples differ after Reset", seed, ck)
			}
		}
		if fresh.Stats().Evictions == 0 {
			t.Fatalf("seed %d: vacuous run: no evictions", seed)
		}
	}
}

// TestCheckInvariantsDetectsCorruption proves the auditor is not
// vacuous: hand-corrupting the accounting in each way it guards must
// produce an error.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	build := func(t *testing.T) *Manager {
		t.Helper()
		m := NewManager(Config{GPUBytes: 8 * mb, PinBytes: 4 * mb, Audit: true})
		for i := 0; i < 3; i++ {
			acc := Access{
				Content: Content{
					ID:    ContentID{App: "x", Model: "m", Layer: i, Kind: KindParam},
					Bytes: mb,
					SLOms: 400,
				},
				Phase: PhaseInference,
				Model: "m",
			}
			if _, err := m.Acquire(simtime.Instant(time.Duration(i)*time.Millisecond), []Access{acc}); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("clean manager failed audit: %v", err)
		}
		return m
	}
	corruptions := []struct {
		name string
		do   func(*Manager)
		want string // error substring; empty accepts any error
	}{
		{"gpuUsed drift", func(m *Manager) { m.gpuUsed++ }, ""},
		{"pinUsed drift", func(m *Manager) { m.pinUsed = mb }, ""},
		{"stale residents index", func(m *Manager) {
			h := m.buckets[0].heap
			h[0].hidx, h[len(h)-1].hidx = len(h)-1, 0
		}, "stale index slot"},
		{"residents list truncated", func(m *Manager) {
			b := m.buckets[0]
			b.heap = b.heap[:len(b.heap)-1]
		}, "stale index slot"},
		{"bucket heap order broken", func(m *Manager) {
			// LRU keeps the bucket age-ordered: put the newest first.
			b := m.buckets[0]
			b.swap(0, len(b.heap)-1)
		}, "heap order"},
		{"bucket order stale after class change", func(m *Manager) {
			m.buckets[0].byAge = false
		}, "age-ordered"},
		{"entry filed under the wrong bucket", func(m *Manager) {
			m.buckets[0].heap[0].content.SLOms++
		}, "filed under"},
		{"capacity overrun", func(m *Manager) {
			m.cfg.GPUBytes = m.gpuUsed - 1
		}, ""},
		{"stashed eviction-order violation", func(m *Manager) {
			m.auditErr = fmt.Errorf("stashed")
		}, ""},
		{"victim list differs from sorted prefix", func(m *Manager) {
			m.stampGen++ // a fresh call: no resident is in the working set
			h := m.buckets[0].heap
			cands := []scoredEntry{
				{e: h[0], score: 3},
				{e: h[1], score: 2},
				{e: h[2], score: 1},
			}
			// The sort takes score 3 then score 2; hand the audit the
			// right count with the second victim swapped for score 1.
			m.auditSelection(cands, []scoredEntry{cands[0], cands[2]})
		}, "eviction selection"},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			m := build(t)
			c.do(m)
			err := m.CheckInvariants()
			if err == nil {
				t.Fatal("corruption went undetected")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not report %q", err, c.want)
			}
		})
	}
}

// TestWorkingSetAlwaysServed verifies that an Acquire of any working
// set — even one larger than GPU memory — returns successfully and
// charges a non-negative communication time (the out-of-core fallback).
func TestWorkingSetAlwaysServed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewManager(Config{GPUBytes: 8 * mb, PinBytes: 4 * mb})
	for step := 0; step < 200; step++ {
		n := 1 + rng.Intn(6)
		accs := make([]Access, n)
		for i := range accs {
			accs[i] = Access{
				Content: Content{
					ID: ContentID{
						App: "x", Model: "m", Layer: rng.Intn(4),
						Kind: KindIntermediate, Seq: uint64(rng.Intn(100)),
					},
					Bytes:         int64(1+rng.Intn(6)) * mb,
					SLOms:         400,
					ProducedOnGPU: true,
				},
				Phase: PhaseInference,
				Model: "m",
			}
		}
		d, err := m.Acquire(simtime.Instant(time.Duration(step)*time.Millisecond), accs)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if d < 0 {
			t.Fatalf("step %d: negative comm %v", step, d)
		}
	}
}
