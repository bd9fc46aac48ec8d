package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"

	"adainf/internal/faults"
	"adainf/internal/telemetry"
)

// pinnedSingleGPU holds the FNV-1a digests of the normalized Result and
// of the JSONL trace bytes for every NGPUs=1 configuration of
// TestPinnedSingleGPU. They were recorded before the single-GPU server
// became the degenerate one-lane cluster, so they hold the serving loop
// to the exact results and traces the dedicated single-partition path
// produced under faults, which the committed experiment goldens do not
// cover. The trace digests were later derived, not re-recorded, when
// the session-plan memo was removed: each is the hash of the earlier
// trace with every plan_memo line dropped and the plan_hits,
// plan_misses and plan_invalidated fields cut from every counters line.
// When the steady-state fast-forward memo was removed, the six entries
// recorded with it enabled were dropped; the six kept are the ones
// recorded with it disabled, unchanged.
var pinnedSingleGPU = map[string][2]uint64{
	"adainf/none":     {0x5ae2262530bdf7d4, 0x9fcc948bc8d87373},
	"adainf/default":  {0x9b4b6205ce949ce8, 0xb3596c45d55e94c1},
	"ekya/none":       {0x69778ec69f9dfa41, 0xb335ecffada2bd8f},
	"ekya/default":    {0xc3b333fc196cbb77, 0xb80aaf4d84190a53},
	"scrooge/none":    {0x361d40160431a03c, 0x9239852b380d8a0e},
	"scrooge/default": {0xd7a92e076b8b555e, 0xbe0dd0010d2802c7},
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestPinnedSingleGPU runs the single-GPU server for AdaInf, Ekya and
// Scrooge, fault-free and under the default fault schedule (seed 7),
// each traced and audited, and compares the result and trace digests
// against pinnedSingleGPU.
func TestPinnedSingleGPU(t *testing.T) {
	def := faults.Default()
	def.Seed = 7
	schedules := []struct {
		name string
		fc   *faults.Config
	}{{"none", nil}, {"default", &def}}
	for _, m := range faultMethods() {
		for _, s := range schedules {
			label := m.name + "/" + s.name
			var buf bytes.Buffer
			tel := telemetry.New(telemetry.Options{Trace: &buf})
			cfg := faultConfig(t, s.fc)
			cfg.Method = m.build()
			cfg.Telemetry = tel
			cfg.Audit = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := tel.Close(); err != nil {
				t.Fatalf("%s: trace write: %v", label, err)
			}
			js, err := json.Marshal(normalize(res))
			if err != nil {
				t.Fatal(err)
			}
			got := [2]uint64{fnv64(js), fnv64(buf.Bytes())}
			if got != pinnedSingleGPU[label] {
				t.Errorf("%s: digests %s, pinned %s", label, hexPair(got), hexPair(pinnedSingleGPU[label]))
			}
		}
	}
}

func hexPair(p [2]uint64) string { return fmt.Sprintf("{%#x, %#x}", p[0], p[1]) }
