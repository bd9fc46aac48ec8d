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
// recorded with it disabled, unchanged. When feature vectors came to
// be drawn on first read from a feature RNG of their own, every later
// class draw moved: all six result digests and AdaInf's trace digests
// were re-recorded, and the baselines' trace digests did not move.
var pinnedSingleGPU = map[string][2]uint64{
	"adainf/none":     {0xe4a9be82dac4f38e, 0xc3a7978298a20238},
	"adainf/default":  {0x79e68488e94e3b72, 0x729b44bc0fa0da92},
	"ekya/none":       {0x76db3c40905bf395, 0xb335ecffada2bd8f},
	"ekya/default":    {0x39d640868199e43e, 0xb80aaf4d84190a53},
	"scrooge/none":    {0x68ebaf09f8c59efb, 0x9239852b380d8a0e},
	"scrooge/default": {0xc92ab1f88349ba4a, 0xbe0dd0010d2802c7},
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
