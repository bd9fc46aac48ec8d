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
// produced — under faults and with fast-forward on and off, which the
// committed experiment goldens do not cover.
var pinnedSingleGPU = map[string][2]uint64{
	"adainf/ff/none":       {0x5ae2262530bdf7d4, 0x36e79306c26ae638},
	"adainf/ff/default":    {0x9b4b6205ce949ce8, 0xd6420bce6174ba96},
	"adainf/noff/none":     {0x5ae2262530bdf7d4, 0xa2296b2a62f9e48},
	"adainf/noff/default":  {0x9b4b6205ce949ce8, 0x6af486211ec93895},
	"ekya/ff/none":         {0x69778ec69f9dfa41, 0x222bad99c2ae6eb2},
	"ekya/ff/default":      {0xc3b333fc196cbb77, 0x9e0e97c6bd76de8b},
	"ekya/noff/none":       {0x69778ec69f9dfa41, 0x234361d6b1fa117e},
	"ekya/noff/default":    {0xc3b333fc196cbb77, 0x33387b5fe2fa5f1c},
	"scrooge/ff/none":      {0x361d40160431a03c, 0xceaca18a21f5aa4d},
	"scrooge/ff/default":   {0xd7a92e076b8b555e, 0xf5315544e12baeb2},
	"scrooge/noff/none":    {0x361d40160431a03c, 0xceaca18a21f5aa4d},
	"scrooge/noff/default": {0xd7a92e076b8b555e, 0xf5315544e12baeb2},
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestPinnedSingleGPU runs the single-GPU server for AdaInf, Ekya and
// Scrooge with fast-forward on and off, fault-free and under the
// default fault schedule (seed 7), each traced and audited, and
// compares the result and trace digests against pinnedSingleGPU.
func TestPinnedSingleGPU(t *testing.T) {
	def := faults.Default()
	def.Seed = 7
	schedules := []struct {
		name string
		fc   *faults.Config
	}{{"none", nil}, {"default", &def}}
	for _, m := range faultMethods() {
		for _, disableFF := range []bool{false, true} {
			for _, s := range schedules {
				label := m.name + "/ff/" + s.name
				if disableFF {
					label = m.name + "/noff/" + s.name
				}
				var buf bytes.Buffer
				tel := telemetry.New(telemetry.Options{Trace: &buf})
				cfg := faultConfig(t, s.fc)
				cfg.Method = m.build()
				cfg.DisableFastForward = disableFF
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
}

func hexPair(p [2]uint64) string { return fmt.Sprintf("{%#x, %#x}", p[0], p[1]) }
