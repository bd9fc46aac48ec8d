package profile

import (
	"hash/fnv"
	"testing"

	"adainf/internal/app"
	"adainf/internal/gpu"
	"adainf/internal/gpumem"
)

// pinnedMem is one §3.4 memory configuration profiles are built under,
// mirroring the AdaInf, /M1 and /M2 variants the experiments run.
type pinnedMem struct {
	name      string
	strategy  gpu.Strategy
	newPolicy func() gpumem.Policy
}

var (
	pinnedAda = pinnedMem{"ada", gpu.Strategy{MaximizeUsage: true},
		func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: 0.4} }}
	pinnedM1 = pinnedMem{"m1", gpu.Strategy{MaximizeUsage: false},
		func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: 0.4} }}
	pinnedM2 = pinnedMem{"m2", gpu.Strategy{MaximizeUsage: true},
		func() gpumem.Policy { return gpumem.LRUPolicy{} }}
	// At α = 1 the priority score is the SLO alone, so every eviction
	// bucket is in seq order from the first access on.
	pinnedAdaAlpha1 = pinnedMem{"ada-alpha1", gpu.Strategy{MaximizeUsage: true},
		func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: 1} }}
	pinnedM1Alpha1 = pinnedMem{"m1-alpha1", gpu.Strategy{MaximizeUsage: false},
		func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: 1} }}
)

// TestPinnedProfileDigests freezes the bytes of full-grid profiles
// under each memory configuration: the FNV-64a of the canonical gob
// dump (every latency cell, power law and reuse mean) and the
// MemDigest over the profiled managers' final states. Any change to
// eviction choice, PIN placement or transfer accounting in gpumem or
// the executor moves at least one of them. The constants were derived
// from serial builds before the eviction-selection rewrite and must
// hold unchanged; building through the default entry point pins the
// parallel unit pool to them as well.
func TestPinnedProfileDigests(t *testing.T) {
	cases := []struct {
		app             func() *app.App
		mem             pinnedMem
		dump, memDigest uint64
	}{
		{app.BikeRackOccupancy, pinnedAda, 0x46dead53324f5c26, 0x0fbc2e6c7871f38e},
		{app.BikeRackOccupancy, pinnedM1, 0x05ac612d2110a14c, 0x0abdc499f776d71e},
		{app.BikeRackOccupancy, pinnedM2, 0x13ea47f8a006bcdf, 0x1b4944ad7f9644d2},
		{app.VideoSurveillance, pinnedAda, 0xcee819189b944c26, 0xc940ed01f26d04e2},
		{app.BikeRackOccupancy, pinnedAdaAlpha1, 0xdf8850b5cf282deb, 0x86fd6f165e845997},
		{app.BikeRackOccupancy, pinnedM1Alpha1, 0x36e7dbed7cb79cd0, 0x21de6051e28f8140},
	}
	for _, c := range cases {
		a := c.app()
		t.Run(a.Name+"/"+c.mem.name, func(t *testing.T) {
			ap, err := BuildAppProfile(a, Config{
				Strategy:  c.mem.strategy,
				NewPolicy: c.mem.newPolicy,
			})
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(dumpProfile(t, a, ap))
			if got := h.Sum64(); got != c.dump {
				t.Errorf("canonical dump FNV-64a %#x, pinned %#x", got, c.dump)
			}
			if ap.MemDigest != c.memDigest {
				t.Errorf("MemDigest %#x, pinned %#x", ap.MemDigest, c.memDigest)
			}
		})
	}
}

// TestPinnedCacheKeys freezes the FNV-64a of CacheKey for every catalog
// application under the AdaInf, /M1 and /M2 memory configurations the
// programs profile with. The hash names an entry's file under
// results/profiles, so a change to a profiler constant or to the key's
// format fails here instead of silently cold-starting every cached
// profile. Update the constants only together with CacheVersion or a
// deliberate change of what the profiler measures.
func TestPinnedCacheKeys(t *testing.T) {
	pinned := map[string][3]uint64{
		"video-surveillance": {0xd9cac9384d8c11e4, 0x099defec3d9e7ddf, 0x4d682292524172e5},
		"social-media":       {0x3406e87854c4a809, 0x5f92c485d5fe0d0c, 0x83bf5225a6693eb2},
		"game-analysis":      {0x9a9519f77d9453c1, 0x0fca7e34b79cdb3e, 0x47dd968735624c78},
		"dance-rating":       {0xeba168eeb3109f4d, 0x22724f56df58cb78, 0x3e41eba64cc71b8e},
		"billboard-response": {0x6628c0c098c7fc14, 0xed89c7abca32b6eb, 0x53e7b2f0d7a31e29},
		"bikerack-occupancy": {0x226608f744cb35a2, 0x8833edd3fc5b1425, 0x3912858ca9da2ae7},
		"amber-alert":        {0x8da7fa2e2c8c4d51, 0xe1e83e2044fc92ec, 0xef65f2464c7d8a3e},
		"logo-placement":     {0xd47163f79ae06623, 0x8b1d0cc36cfeaa04, 0xaf5363df8be2548e},
	}
	catalog := app.Catalog()
	if len(catalog) != len(pinned) {
		t.Fatalf("catalog has %d apps, %d pinned", len(catalog), len(pinned))
	}
	for _, a := range catalog {
		want, ok := pinned[a.Name]
		if !ok {
			t.Errorf("app %q has no pinned keys", a.Name)
			continue
		}
		for i, m := range []pinnedMem{pinnedAda, pinnedM1, pinnedM2} {
			h := fnv.New64a()
			h.Write([]byte(CacheKey(a, Config{Strategy: m.strategy, NewPolicy: m.newPolicy})))
			if got := h.Sum64(); got != want[i] {
				t.Errorf("%s/%s: CacheKey FNV-64a %#016x, pinned %#016x", a.Name, m.name, got, want[i])
			}
		}
	}
}
