package gpumem

import (
	"math"
	"testing"
	"time"

	"adainf/internal/simtime"
)

// FuzzEvictionIndex decodes bytes into a stream of acquires of one to
// three contents, releases, clock steps in both directions, seeded
// reuse means (negative ones included) and resets, and runs it on an
// audited manager: after every operation CheckInvariants must pass, so
// the eviction index stays consistent and every eviction matches a
// full sort of its candidates.
func FuzzEvictionIndex(f *testing.F) {
	f.Add([]byte{2, 8, 0, 3, 1, 2, 0, 5, 9, 0, 17, 33, 2, 200, 0, 1, 4, 3, 1, 2, 0, 7, 7, 7, 7, 7})
	f.Add([]byte{0, 4, 0, 2, 3, 5, 7, 9, 2, 0x80, 0, 1, 1, 1, 0, 4, 6, 8, 1, 3, 4, 1})
	f.Add([]byte{1, 12, 3, 2, 0x9c, 1, 0, 3, 1, 2, 3, 4, 5, 6, 0, 3, 11, 13, 15, 17, 19, 21})
	f.Add([]byte{3, 6, 0, 3, 1, 3, 5, 7, 9, 11, 0, 3, 2, 4, 6, 8, 10, 12, 4, 1, 0, 3, 1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		policies := []Policy{LRUPolicy{}, PriorityPolicy{Alpha: 0}, PriorityPolicy{Alpha: 0.4}, PriorityPolicy{Alpha: 1}}
		config := func() Config {
			b := next()
			return Config{
				GPUBytes: int64(2+b%14) * mb,
				PinBytes: int64(b>>4%4) * mb,
				Policy:   policies[int(next())%len(policies)],
				Audit:    true,
			}
		}
		slos := []float64{400, 500, math.Nextafter(400, 500)}
		content := func(b byte) Content {
			id := ContentID{App: "a", Model: "m", Layer: int(b >> 1 % 8), Kind: Kind(b & 1)}
			if id.Kind == KindIntermediate {
				id.Seq = uint64(b >> 4 % 4)
			}
			s := next()
			return Content{
				ID:            id,
				Bytes:         int64(1+s%8) * mb / 4,
				SLOms:         slos[int(s>>3)%len(slos)],
				ProducedOnGPU: id.Kind == KindIntermediate,
			}
		}
		m := NewManager(config())
		now := simtime.Instant(0)
		for op := 0; len(data) > 0 && op < 512; op++ {
			switch next() % 5 {
			case 0:
				accs := make([]Access, 1+next()%3)
				for i := range accs {
					b := next()
					accs[i] = Access{Content: content(b), Phase: Phase(b >> 6 & 1), Model: "m", JobID: uint64(op / 16)}
				}
				if _, err := m.Acquire(now, accs); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
			case 1:
				b := next()
				id := ContentID{App: "a", Model: "m", Layer: int(b >> 1 % 8), Kind: Kind(b & 1)}
				if id.Kind == KindIntermediate {
					id.Seq = uint64(b >> 4 % 4)
				}
				m.Release(id)
			case 2:
				now = now.Add(time.Duration(int8(next())) * 100 * time.Microsecond)
			case 3:
				b := next()
				class := ReuseClass{Kind: Kind(b & 1), Phase: Phase(b >> 1 & 1)}
				if err := m.SeedTypeReuse(class, float64(int8(next()))*10, int(b>>2)); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
			case 4:
				if err := m.Reset(config()); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	})
}
