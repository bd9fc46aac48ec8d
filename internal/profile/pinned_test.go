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
