package profile

import (
	"bytes"
	"encoding/gob"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"adainf/internal/app"
	"adainf/internal/gpumem"
	"adainf/internal/simtime"
	"adainf/internal/telemetry"
)

// canonicalDump is a deterministic, gob-encodable projection of an
// AppProfile: every map is flattened into a slice in a canonical sort
// order, so two profiles encode to the same bytes iff every measured
// value (gob encodes float64 by bit pattern), the digest, and the
// reuse means are bit-identical. Raw gob of the profile itself cannot
// serve here — Go map iteration makes its encoding nondeterministic.
type canonicalDump struct {
	MemDigest uint64
	Nodes     []dumpNode
	Reuse     []dumpReuse
}

// gob numbers a type the first time any encoder in the process meets
// it, so the dump's bytes would otherwise depend on which tests encoded
// other types (cache entries) first. Encoding the dump type at init
// fixes its numbering for every test selection and order, which lets
// TestPinnedProfileDigests hash the bytes.
func init() {
	if err := gob.NewEncoder(io.Discard).Encode(&canonicalDump{}); err != nil {
		panic(err)
	}
}

type dumpNode struct {
	Name       string
	Structures []dumpStructure
	Retrain    dumpRetrain
}

type dumpStructure struct {
	Exit    int
	Batches []int
	Points  []dumpPoint
	Laws    []dumpLaw
}

type dumpPoint struct {
	Batch    int
	Fraction float64
	PerBatch simtime.Duration
	Comm     simtime.Duration
}

type dumpLaw struct {
	Batch int
	A, B  float64
}

type dumpRetrain struct {
	Fractions []float64
	PerSample []simtime.Duration
	A, B      float64
}

type dumpReuse struct {
	Kind  gpumem.Kind
	Phase gpumem.Phase
	Mean  float64
}

func dumpProfile(t *testing.T, a *app.App, ap *AppProfile) []byte {
	t.Helper()
	d := canonicalDump{MemDigest: ap.MemDigest}
	for i := range a.Nodes {
		name := a.Nodes[i].Name
		dn := dumpNode{Name: name}
		for _, sp := range ap.Structures[name] {
			ds := dumpStructure{
				Exit:    sp.Structure.ExitAfter(),
				Batches: sp.Batches(),
			}
			for _, batch := range sp.Batches() {
				var fractions []float64
				for f := range sp.Points[batch] {
					fractions = append(fractions, f)
				}
				sort.Float64s(fractions)
				for _, f := range fractions {
					cell := sp.Points[batch][f]
					ds.Points = append(ds.Points, dumpPoint{
						Batch: batch, Fraction: f, PerBatch: cell.PerBatch, Comm: cell.Comm,
					})
				}
				law := sp.Scaling[batch]
				ds.Laws = append(ds.Laws, dumpLaw{Batch: batch, A: law.A, B: law.B})
			}
			dn.Structures = append(dn.Structures, ds)
		}
		rp := ap.Retrain[name]
		if rp == nil {
			t.Fatalf("node %s: no retraining profile", name)
		}
		dr := dumpRetrain{A: rp.Scaling.A, B: rp.Scaling.B}
		for f := range rp.PerSample {
			dr.Fractions = append(dr.Fractions, f)
		}
		sort.Float64s(dr.Fractions)
		for _, f := range dr.Fractions {
			dr.PerSample = append(dr.PerSample, rp.PerSample[f])
		}
		dn.Retrain = dr
		d.Nodes = append(d.Nodes, dn)
	}
	for class := range ap.TypeReuse {
		d.Reuse = append(d.Reuse, dumpReuse{Kind: class.Kind, Phase: class.Phase, Mean: ap.TypeReuse[class]})
	}
	sort.Slice(d.Reuse, func(i, j int) bool {
		if d.Reuse[i].Kind != d.Reuse[j].Kind {
			return d.Reuse[i].Kind < d.Reuse[j].Kind
		}
		return d.Reuse[i].Phase < d.Reuse[j].Phase
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelBuildBitIdentity is the tentpole's contract: a profile
// built with any worker count is bit-identical to the serial build —
// same canonical gob bytes, same MemDigest, same TypeReuse means.
func TestParallelBuildBitIdentity(t *testing.T) {
	a := testApp(t)
	cfg := fastConfig()
	cfg.Workers = 1
	serial, err := BuildAppProfile(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := dumpProfile(t, a, serial)

	for _, workers := range []int{2, 8} {
		pcfg := fastConfig()
		pcfg.Workers = workers
		got, err := BuildAppProfile(a, pcfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.MemDigest != serial.MemDigest {
			t.Errorf("workers=%d: MemDigest %#x, serial %#x", workers, got.MemDigest, serial.MemDigest)
		}
		if !reflect.DeepEqual(got.TypeReuse, serial.TypeReuse) {
			t.Errorf("workers=%d: TypeReuse %v, serial %v", workers, got.TypeReuse, serial.TypeReuse)
		}
		if !bytes.Equal(dumpProfile(t, a, got), want) {
			t.Errorf("workers=%d: canonical encoding differs from serial", workers)
		}
	}
}

// The full default grid is the configuration the figures actually
// profile under; one parallel run at the package-default entry point
// guards it too (heavier, so only two worker counts).
func TestParallelBuildBitIdentityDefaultGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid identity check skipped in -short")
	}
	a := testApp(t)
	serial, err := BuildAppProfile(a, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildAppProfile(a, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dumpProfile(t, a, serial), dumpProfile(t, a, par)) {
		t.Error("4-worker full-grid build differs from serial")
	}
}

func TestCleanCacheEvictionOrder(t *testing.T) {
	dir := t.TempDir()
	base := time.Now().Add(-time.Hour)
	names := []string{
		"profile-000000000000000a.gob", // oldest
		"profile-000000000000000b.gob",
		"profile-000000000000000c.gob", // newest
	}
	for i, name := range names {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, make([]byte, 100), 0o644); err != nil {
			t.Fatal(err)
		}
		mtime := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(path, mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	// Foreign files are never eviction candidates and never counted.
	foreign := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(foreign, make([]byte, 1000), 0o644); err != nil {
		t.Fatal(err)
	}

	// 300 bytes of entries, budget 250: exactly the oldest must go.
	removed, err := CleanCache(dir, 250)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("removed %d entries, want 1", removed)
	}
	if _, err := os.Stat(filepath.Join(dir, names[0])); !os.IsNotExist(err) {
		t.Error("oldest entry survived the eviction")
	}
	for _, name := range names[1:] {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("newer entry %s was evicted: %v", name, err)
		}
	}

	// Budget 0 clears every entry but leaves foreign files alone.
	if removed, err = CleanCache(dir, 0); err != nil || removed != 2 {
		t.Fatalf("clear removed %d entries (err %v), want 2", removed, err)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Errorf("foreign file evicted: %v", err)
	}

	// A missing directory is an empty cache, not an error.
	if removed, err = CleanCache(filepath.Join(dir, "nope"), 0); err != nil || removed != 0 {
		t.Errorf("missing dir: removed %d, err %v", removed, err)
	}
}

// TestCleanCacheEqualMtimeTiebreak pins the deterministic survivor set
// when entries share a modification time (common on coarse-mtime
// filesystems and parallel builds): ties evict in filename order, so
// every machine that runs the same eviction keeps the same entries.
func TestCleanCacheEqualMtimeTiebreak(t *testing.T) {
	dir := t.TempDir()
	mtime := time.Now().Add(-time.Hour)
	names := []string{
		"profile-000000000000000c.gob",
		"profile-000000000000000a.gob",
		"profile-000000000000000b.gob",
	}
	for _, name := range names {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, make([]byte, 100), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}

	// 300 bytes of same-mtime entries, budget 150: the two lowest
	// filenames must go, whatever order the directory listed them in.
	removed, err := CleanCache(dir, 150)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("removed %d entries, want 2", removed)
	}
	for _, name := range []string{"profile-000000000000000a.gob", "profile-000000000000000b.gob"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived; ties must evict in filename order", name)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "profile-000000000000000c.gob")); err != nil {
		t.Errorf("highest-named tie was evicted: %v", err)
	}
}

// TestCorruptCacheRecovery pins the lifecycle of an undecodable cache
// entry: the load deletes the file on the spot, the event is counted,
// and the next cached build rebuilds and restores a valid entry.
func TestCorruptCacheRecovery(t *testing.T) {
	a := testApp(t)
	cfg := fastConfig()
	dir := t.TempDir()

	built, err := BuildAppProfile(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := StoreCached(dir, a, cfg, built); err != nil {
		t.Fatal(err)
	}
	path := cachePath(dir, CacheKey(a, cfg))
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	tel := telemetry.New(telemetry.Options{Hist: true})
	cfg.Telemetry = tel
	if _, ok := LoadCached(dir, a, cfg); ok {
		t.Fatal("corrupt entry hit the cache")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt entry left on disk after the failed load")
	}
	if n := tel.CacheCorruptCount(); n != 1 {
		t.Errorf("cache-corrupt counter = %d, want 1", n)
	}

	// The cached build after the eviction is a plain miss + rebuild.
	rebuilt, info, err := BuildAppProfileCachedInfo(a, cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.CacheHit {
		t.Error("build after corruption reported a cache hit")
	}
	if rebuilt.MemDigest != built.MemDigest {
		t.Error("rebuilt profile differs from the original")
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("rebuild did not restore the cache entry: %v", err)
	}
	_, info, err = BuildAppProfileCachedInfo(a, cfg, dir)
	if err != nil || !info.CacheHit {
		t.Errorf("second build after recovery: hit=%v err=%v, want a hit", info.CacheHit, err)
	}

	// BuildAppProfileCachedInfo surfaces the corruption too.
	if err := os.WriteFile(path, []byte("garbage again"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, info, err = BuildAppProfileCachedInfo(a, cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !info.CorruptEvicted || info.CacheHit {
		t.Errorf("info = %+v, want CorruptEvicted and a miss", info)
	}
	if n := tel.CacheCorruptCount(); n != 2 {
		t.Errorf("cache-corrupt counter = %d, want 2", n)
	}
}

// Stored entries must trigger the size GC so the cache cannot grow
// without bound across configuration churn.
func TestStoreRunsCacheGC(t *testing.T) {
	a := testApp(t)
	cfg := fastConfig()
	dir := t.TempDir()

	old := CacheMaxBytes
	CacheMaxBytes = 1 // every store immediately evicts down to nothing
	defer func() { CacheMaxBytes = old }()

	if _, _, err := BuildAppProfileCachedInfo(a, cfg, dir); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "profile-*.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("GC left %d entries above the byte budget", len(entries))
	}
}
