package faults

import (
	"testing"
)

// FuzzFaultPlan exercises the fault-schedule decoder: any spec Parse
// accepts must validate, render through String, and decode back to the
// identical configuration (the CLI and the experiment dedup key both
// rely on this round trip). Rejected specs must never produce a config.
func FuzzFaultPlan(f *testing.F) {
	f.Add("")
	f.Add("default")
	f.Add("retrain-fail=0.3,retrain-slow=0.25,slow-factor=2,retries=3,backoff=1s")
	f.Add("mem-fail=0.05,burst=0.5,burst-factor=4,burst-sessions=100")
	f.Add("drift-spike=0.4,spike-intensity=0.9")
	f.Add("retrain-fail=1.5")
	f.Add(" burst = 0.5 , mem-fail=1 ")
	f.Add("backoff=300ms,retries=1")
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := Parse(spec)
		if err != nil {
			if c != (Config{}) {
				t.Fatalf("Parse(%q) errored but returned config %+v", spec, c)
			}
			return
		}
		if verr := c.Validate(); verr != nil {
			t.Fatalf("Parse(%q) accepted an invalid config: %v", spec, verr)
		}
		rendered := c.String()
		back, err := Parse(rendered)
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not re-parse: %v", spec, rendered, err)
		}
		if back != c {
			t.Fatalf("round trip of %q: %+v -> %q -> %+v", spec, c, rendered, back)
		}
		// An accepted config must be safe to instantiate: New either
		// declines (nothing can fire) or returns a usable injector.
		if in := New(&c); in != nil {
			in.MemFail(0, "app", 0)
			in.IncrementalRetrain(0, "app", "node")
		} else if c.Enabled() {
			t.Fatalf("New declined the enabled config %q", rendered)
		}
	})
}
