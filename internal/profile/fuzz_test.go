package profile

import (
	"bytes"
	"encoding/gob"
	"os"
	"testing"
	"time"

	"adainf/internal/app"
)

// FuzzCacheKey fuzzes the on-disk profile cache's identity function.
// The cache deduplicates expensive offline profiling runs, so the key
// must be deterministic, and the app's SLO, which changes what
// BuildAppProfile measures, must change the key — a collision would
// silently serve a profile built under different conditions.
func FuzzCacheKey(f *testing.F) {
	f.Add(int64(100 * time.Millisecond))
	f.Add(int64(50 * time.Millisecond))
	f.Add(int64(1 * time.Second))
	f.Fuzz(func(t *testing.T, sloNS int64) {
		if sloNS <= 0 || sloNS > int64(10*time.Second) {
			return
		}
		a := app.VideoSurveillance()
		a.SLO = time.Duration(sloNS)
		var cfg Config

		key := CacheKey(a, cfg)
		if key == "" {
			t.Fatal("empty cache key")
		}
		if again := CacheKey(a, cfg); again != key {
			t.Fatalf("CacheKey not deterministic:\n%q\n%q", key, again)
		}
		if cachePath("d", key) != cachePath("d", key) {
			t.Fatal("cachePath not deterministic")
		}

		// The audit knob never changes measurements and must not enter
		// the key (a warm cache satisfies an audited build).
		audited := cfg
		audited.Audit = true
		if CacheKey(a, audited) != key {
			t.Fatal("Audit changed the cache key")
		}

		// A knob that changes measurements must change the key.
		b := app.VideoSurveillance()
		b.SLO = a.SLO + time.Nanosecond
		if CacheKey(b, cfg) == key {
			t.Fatalf("SLO change kept key %q", key)
		}
	})
}

// FuzzLoadCached writes arbitrary bytes at an entry's cache path. The
// load must then miss, or return a profile that answers every probe
// without a panic: in-range probes with a latency, out-of-range ones
// with an error. The seeds are a valid entry and copies of it whose
// arrays, exits or node name do not fit the app and grid; setup checks
// that the first hits and the others miss.
func FuzzLoadCached(f *testing.F) {
	a := testApp(f)
	cfg := fastConfig()
	load := func(tb testing.TB, data []byte) (*AppProfile, bool) {
		dir := tb.TempDir()
		if err := os.WriteFile(cachePath(dir, CacheKey(a, cfg)), data, 0o644); err != nil {
			tb.Fatal(err)
		}
		ap, ok, _ := loadCached(dir, a, cfg)
		return ap, ok
	}
	built, err := BuildAppProfile(a, cfg)
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	if err := StoreCached(dir, a, cfg, built); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(cachePath(dir, CacheKey(a, cfg)))
	if err != nil {
		f.Fatal(err)
	}
	if _, ok := load(f, valid); !ok {
		f.Fatal("valid entry missed")
	}
	f.Add(valid)
	for _, bent := range []struct {
		name string
		bend func(n *cachedNode)
	}{
		{"short laws", func(n *cachedNode) { n.Laws = n.Laws[1:] }},
		{"long cells", func(n *cachedNode) { n.PerBatch = append(n.PerBatch, 1) }},
		{"no comm", func(n *cachedNode) { n.Comm = nil }},
		{"short retrain", func(n *cachedNode) { n.RetrainPerSample = n.RetrainPerSample[1:] }},
		{"other exit", func(n *cachedNode) { n.Exits[0]++ }},
		{"missing exit", func(n *cachedNode) { n.Exits = n.Exits[1:] }},
		{"other node", func(n *cachedNode) { n.Name += "x" }},
	} {
		var c cachedProfile
		if err := gob.NewDecoder(bytes.NewReader(valid)).Decode(&c); err != nil {
			f.Fatal(err)
		}
		bent.bend(&c.Nodes[len(c.Nodes)-1])
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&c); err != nil {
			f.Fatal(err)
		}
		if _, ok := load(f, buf.Bytes()); ok {
			f.Fatalf("%s: entry of the wrong shape hit", bent.name)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("garbage"))
	fractions := []float64{-1, 0, 0.3, 0.5, 1, 1.5}
	f.Fuzz(func(t *testing.T, data []byte) {
		ap, ok := load(t, data)
		if !ok {
			return
		}
		if len(ap.Tables()) != len(a.Nodes) {
			t.Fatalf("%d tables for %d nodes", len(ap.Tables()), len(a.Nodes))
		}
		memo := NewLatencyCache(ap)
		for n, tb := range ap.Tables() {
			for si := -1; si <= tb.NumStructs(); si++ {
				for bi := -1; bi <= len(tb.Batches()); bi++ {
					for _, frac := range fractions {
						inRange := si >= 0 && si < tb.NumStructs() && bi >= 0 && bi < len(tb.Batches()) && frac > 0
						if _, err := tb.PerBatch(si, bi, frac); (err == nil) != inRange {
							t.Fatalf("node %d PerBatch(%d, %d, %g): err %v", n, si, bi, frac, err)
						}
						if _, err := memo.PerBatch(n, si, bi, frac); (err == nil) != inRange {
							t.Fatalf("node %d memo PerBatch(%d, %d, %g): err %v", n, si, bi, frac, err)
						}
					}
				}
			}
			rp := tb.Retrain()
			for _, frac := range fractions {
				if _, err := rp.Latency(10, frac); (err == nil) != (frac > 0) {
					t.Fatalf("node %d retrain Latency(10, %g): err %v", n, frac, err)
				}
				rp.SamplesWithinF(time.Second, frac)
			}
		}
	})
}
