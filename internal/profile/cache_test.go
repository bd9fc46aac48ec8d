package profile

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"adainf/internal/app"
	"adainf/internal/dnn"
	"adainf/internal/gpu"
	"adainf/internal/gpumem"
)

// fastConfig keeps cache tests cheap: a 2×2 measurement grid instead
// of the full 7×4 default.
func fastConfig() Config {
	return Config{
		BatchSizes: []int{1, 4},
		Fractions:  []float64{0.5, 1.0},
	}
}

func testApp(t testing.TB) *app.App {
	t.Helper()
	apps, err := app.CatalogN(1)
	if err != nil {
		t.Fatal(err)
	}
	return apps[0]
}

func TestCacheKeyDiscriminates(t *testing.T) {
	a := testApp(t)
	base := CacheKey(a, fastConfig())

	variants := map[string]Config{
		"strategy": func() Config {
			c := fastConfig()
			c.Strategy = gpu.Strategy{MaximizeUsage: true}
			return c
		}(),
		"policy": func() Config {
			c := fastConfig()
			c.NewPolicy = func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: 0.4} }
			return c
		}(),
		"batches": func() Config {
			c := fastConfig()
			c.BatchSizes = []int{1, 8}
			return c
		}(),
	}
	for name, cfg := range variants {
		if CacheKey(a, cfg) == base {
			t.Errorf("%s change did not change the cache key", name)
		}
	}

	// The policy's parameters are part of the key, not just its name.
	mk := func(alpha float64) Config {
		c := fastConfig()
		c.NewPolicy = func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: alpha} }
		return c
	}
	if CacheKey(a, mk(0.4)) == CacheKey(a, mk(0.6)) {
		t.Error("priority alpha change did not change the cache key")
	}

	// The app name is irrelevant to profiling and must not split the
	// cache; the SLO does change measurements' inputs and must.
	renamed := *a
	renamed.Name = "renamed-app"
	if CacheKey(&renamed, fastConfig()) != base {
		t.Error("app rename changed the cache key")
	}
	slower := *a
	slower.SLO = a.SLO * 2
	if CacheKey(&slower, fastConfig()) == base {
		t.Error("SLO change did not change the cache key")
	}
}

func TestCacheRoundTrip(t *testing.T) {
	a := testApp(t)
	cfg := fastConfig()
	dir := t.TempDir()

	built, err := BuildAppProfile(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := loadCached(dir, a, cfg); ok {
		t.Fatal("cache hit before any store")
	}
	if err := StoreCached(dir, a, cfg, built); err != nil {
		t.Fatal(err)
	}
	loaded, ok, _ := loadCached(dir, a, cfg)
	if !ok {
		t.Fatal("cache miss after store")
	}

	if loaded.MemDigest != built.MemDigest {
		t.Errorf("MemDigest: got %#x, want %#x", loaded.MemDigest, built.MemDigest)
	}
	if !reflect.DeepEqual(loaded.TypeReuse, built.TypeReuse) {
		t.Errorf("TypeReuse differs: got %v, want %v", loaded.TypeReuse, built.TypeReuse)
	}
	if len(loaded.Tables()) != len(built.Tables()) {
		t.Fatalf("%d tables loaded, want %d", len(loaded.Tables()), len(built.Tables()))
	}
	for i, bt := range built.Tables() {
		lt := loaded.Tables()[i]
		// Arch pointers are never canonical (dnn.ByName constructs a
		// fresh Arch per call, and profiles already hold different
		// pointers than instances in the build path); structures are
		// identified by exit depth everywhere.
		if !slices.EqualFunc(bt.structures, lt.structures, func(x, y dnn.Structure) bool { return x.ExitAfter() == y.ExitAfter() }) {
			t.Errorf("node %s: structures %v != %v", bt.node, lt.structures, bt.structures)
		}
		lt.structures = bt.structures
		if !reflect.DeepEqual(bt, lt) {
			t.Errorf("node %s: loaded table differs from the built one", bt.node)
		}
	}
	if loaded.App != a {
		t.Error("loaded profile not bound to the requesting app")
	}

	// A config change must miss even with the entry on disk.
	miss := cfg
	miss.Strategy = gpu.Strategy{MaximizeUsage: true}
	if _, ok, _ := loadCached(dir, a, miss); ok {
		t.Error("strategy change hit the cache")
	}

	// Corruption is a miss, not an error.
	entries, err := filepath.Glob(filepath.Join(dir, "profile-*.gob"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("expected one cache entry, got %v (err %v)", entries, err)
	}
	if err := os.WriteFile(entries[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := loadCached(dir, a, cfg); ok {
		t.Error("corrupt entry hit the cache")
	}
}

func TestBuildAppProfileCached(t *testing.T) {
	a := testApp(t)
	cfg := fastConfig()
	dir := t.TempDir()

	first, err := BuildAppProfileCached(a, cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	second, err := BuildAppProfileCached(a, cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if first.MemDigest != second.MemDigest {
		t.Error("cached rebuild produced a different memory digest")
	}
	bi := first.Tables()[0].BatchIdx(4)
	p1, err1 := first.Tables()[0].PerBatch(0, bi, 0.7)
	p2, err2 := second.Tables()[0].PerBatch(0, bi, 0.7)
	if err1 != nil || err2 != nil || p1 != p2 {
		t.Errorf("cached profile diverges: %v/%v (%v/%v)", p1, p2, err1, err2)
	}
}
