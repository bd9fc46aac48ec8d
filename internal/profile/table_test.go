package profile

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// latProbe is one (node, structure, batch index, fraction) probe.
type latProbe struct {
	node, si, bi int
	fraction     float64
}

// checkLatencyProbes sends the probes through the memo in order and
// checks each answer, latency and error alike, against the node's table
// (or, for a node index out of range, that the memo reports an error).
func checkLatencyProbes(t *testing.T, c *LatencyCache, probes []latProbe) {
	t.Helper()
	tables := c.Tables()
	for i, p := range probes {
		got, gotErr := c.PerBatch(p.node, p.si, p.bi, p.fraction)
		if p.node < 0 || p.node >= len(tables) {
			if gotErr == nil {
				t.Fatalf("probe %d %+v: node out of range accepted (%v)", i, p, got)
			}
			continue
		}
		want, wantErr := tables[p.node].PerBatch(p.si, p.bi, p.fraction)
		if got != want || (gotErr == nil) != (wantErr == nil) ||
			(gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("probe %d %+v: memo (%v, %v), table (%v, %v)", i, p, got, gotErr, want, wantErr)
		}
	}
}

// edgeFractions are the fractions the memo must not cache wrongly: both
// zeros, a negative, above one, NaN, and exact grid points.
var edgeFractions = []float64{0, math.Copysign(0, -1), -0.25, 1.5, math.Inf(1), math.NaN(), 1, 0.5, 0.1}

func TestPerBatchRejectsIndexesOutOfRange(t *testing.T) {
	ap := vs(t)
	tb := ap.Tables()[0]
	c := NewLatencyCache(ap)
	cases := []struct {
		name         string
		node, si, bi int
	}{
		{"structure -1", 0, -1, 0},
		{"structure past the last", 0, tb.NumStructs(), 0},
		{"batch index -1", 0, 0, -1},
		{"batch index past the axis", 0, 0, len(tb.batches)},
		{"node -1", -1, 0, 0},
		{"node past the last", len(ap.Tables()), 0, 0},
	}
	for _, tc := range cases {
		if _, err := c.PerBatch(tc.node, tc.si, tc.bi, 0.5); err == nil {
			t.Errorf("%s: LatencyCache.PerBatch accepted it", tc.name)
		}
		if tc.node == 0 {
			if _, err := tb.PerBatch(tc.si, tc.bi, 0.5); err == nil {
				t.Errorf("%s: Table.PerBatch accepted it", tc.name)
			}
		}
	}
}

// TestLatencyCacheMatchesTable drives a seeded probe stream through the
// memo: every cell at the edge fractions and random ones, out-of-range
// and unprofiled indexes, then 1500 distinct fractions in one cell (its
// table doubles several times), each probed twice.
func TestLatencyCacheMatchesTable(t *testing.T) {
	ap := vs(t)
	rng := rand.New(rand.NewSource(7))
	var probes []latProbe
	for node, tb := range ap.Tables() {
		for si := -1; si <= tb.NumStructs(); si++ {
			for bi := -1; bi <= len(tb.batches); bi++ {
				for _, f := range edgeFractions {
					probes = append(probes, latProbe{node, si, bi, f})
				}
				for k := 0; k < 8; k++ {
					probes = append(probes, latProbe{node, si, bi, rng.Float64()})
				}
			}
		}
		probes = append(probes, latProbe{node, 0, tb.BatchIdx(3), 0.5}) // unprofiled batch
	}
	probes = append(probes, latProbe{-1, 0, 0, 0.5}, latProbe{len(ap.Tables()), 0, 0, 0.5})
	fill := make([]latProbe, 0, 1500)
	for len(fill) < cap(fill) {
		fill = append(fill, latProbe{0, 0, 0, rng.Float64()})
	}
	probes = append(append(probes, fill...), fill...)
	// Replay the whole stream so every cacheable probe is also a hit.
	probes = append(probes, probes...)
	checkLatencyProbes(t, NewLatencyCache(ap), probes)
}

// TestLatencyCacheHitAllocatesNothing checks that a warm probe, the
// serving loop's common case, allocates nothing.
func TestLatencyCacheHitAllocatesNothing(t *testing.T) {
	ap := vs(t)
	c := NewLatencyCache(ap)
	bi := ap.Tables()[0].BatchIdx(8)
	if _, err := c.PerBatch(0, 0, bi, 0.37); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = c.PerBatch(0, 0, bi, 0.37) }); n != 0 {
		t.Fatalf("%v allocations per hit", n)
	}
}

// FuzzLatencyCache decodes probes from five bytes each (node, structure
// and batch indexes around their ranges, then a 16-bit fraction code
// whose lowest values pick an edge fraction) and checks the memo
// against the tables.
func FuzzLatencyCache(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0, 1})
	f.Add([]byte{1, 2, 3, 200, 7, 255, 0, 9, 0, 3, 0, 1, 1, 40, 0})
	ap := vs(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var probes []latProbe
		for ; len(data) >= 5; data = data[5:] {
			code := binary.LittleEndian.Uint16(data[3:])
			frac := float64(code) / 60000
			if int(code) < len(edgeFractions) {
				frac = edgeFractions[code]
			}
			probes = append(probes, latProbe{
				node: int(data[0]%8) - 2, si: int(data[1]%8) - 1, bi: int(data[2]%16) - 1, fraction: frac,
			})
		}
		checkLatencyProbes(t, NewLatencyCache(ap), probes)
	})
}
