package gpumem

import (
	"fmt"
	"math/rand"
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

// TestAuditedSelectionMatchesUnaudited drives identical random acquire
// and release sequences through an audited and an unaudited manager
// under both policies, with capacities large enough that 50–200
// residents compete for eviction and many scores tie (shared SLOs,
// shared access instants). The audit cross-checks every call's heap
// selection against a full sort; the two managers must also agree on
// state and statistics after every step, since auditing is read-only.
func TestAuditedSelectionMatchesUnaudited(t *testing.T) {
	const kb = mb / 1024
	seeds := []int64{11, 12}
	if testing.Short() {
		seeds = seeds[:1] // the per-step digests dominate; halve them under -short
	}
	for _, pol := range []Policy{LRUPolicy{}, PriorityPolicy{Alpha: 0.4}} {
		for _, seed := range seeds {
			rng := rand.New(rand.NewSource(seed))
			cfg := Config{
				GPUBytes: int64(24+rng.Intn(24)) * mb,
				PinBytes: int64(rng.Intn(8)) * mb,
				Policy:   pol,
			}
			plain := NewManager(cfg)
			cfg.Audit = true
			audited := NewManager(cfg)
			now := simtime.Instant(0)
			var live []ContentID
			maxResidents := 0
			for step := 0; step < 1500; step++ {
				now = now.Add(time.Duration(rng.Intn(3)) * 100 * time.Microsecond)
				if len(live) > 0 && rng.Intn(8) == 0 {
					i := rng.Intn(len(live))
					plain.Release(live[i])
					audited.Release(live[i])
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				} else {
					accs := make([]Access, 1+rng.Intn(3))
					for j := range accs {
						kind := Kind(rng.Intn(2))
						id := ContentID{App: "app", Model: []string{"a", "b", "c"}[rng.Intn(3)], Layer: rng.Intn(20), Kind: kind}
						if kind == KindIntermediate {
							id.Seq = uint64(rng.Intn(12))
						}
						accs[j] = Access{
							Content: Content{
								ID:            id,
								Bytes:         int64(1+rng.Intn(8)) * 64 * kb,
								SLOms:         float64(400 + 100*rng.Intn(3)),
								ProducedOnGPU: kind == KindIntermediate,
							},
							Phase: Phase(rng.Intn(2)),
							Model: id.Model,
							JobID: uint64(step / 50),
						}
						live = append(live, id)
					}
					dp, errP := plain.Acquire(now, accs)
					da, errA := audited.Acquire(now, accs)
					if errP != nil || errA != nil {
						t.Fatalf("%s seed %d step %d: %v / %v", pol.Name(), seed, step, errP, errA)
					}
					if dp != da {
						t.Fatalf("%s seed %d step %d: comm %v unaudited, %v audited", pol.Name(), seed, step, dp, da)
					}
				}
				if plain.StateDigest() != audited.StateDigest() || plain.Stats() != audited.Stats() {
					t.Fatalf("%s seed %d step %d: audited manager diverged: %+v vs %+v",
						pol.Name(), seed, step, plain.Stats(), audited.Stats())
				}
				if err := audited.CheckInvariants(); err != nil {
					t.Fatalf("%s seed %d step %d: %v", pol.Name(), seed, step, err)
				}
				if err := plain.CheckInvariants(); err != nil {
					t.Fatalf("%s seed %d step %d: unaudited: %v", pol.Name(), seed, step, err)
				}
				maxResidents = max(maxResidents, len(audited.residents))
			}
			if st := audited.Stats(); st.Evictions == 0 || maxResidents < 50 {
				t.Fatalf("%s seed %d: vacuous run: %d evictions, at most %d residents",
					pol.Name(), seed, st.Evictions, maxResidents)
			}
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
			m.residents[0].resIdx = len(m.residents) - 1
			m.residents[len(m.residents)-1].resIdx = 0
		}, ""},
		{"residents list truncated", func(m *Manager) { m.residents = m.residents[:len(m.residents)-1] }, ""},
		{"capacity overrun", func(m *Manager) {
			m.cfg.GPUBytes = m.gpuUsed - 1
		}, ""},
		{"stashed eviction-order violation", func(m *Manager) {
			m.auditErr = fmt.Errorf("stashed")
		}, ""},
		{"victim list differs from sorted prefix", func(m *Manager) {
			m.stampGen++ // a fresh call: no resident is in the working set
			cands := []scoredEntry{
				{e: m.residents[0], score: 3},
				{e: m.residents[1], score: 2},
				{e: m.residents[2], score: 1},
			}
			// The sort takes score 3 then score 2; hand the audit the
			// right count with the second victim swapped for score 1,
			// first victim last as makeRoom holds them.
			m.auditSelection(cands, []scoredEntry{cands[2], cands[0]})
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
