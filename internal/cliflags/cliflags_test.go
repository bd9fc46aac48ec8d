package cliflags

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"adainf/internal/simtime"
)

// TestValidators is the table-driven flag-validation suite the CLIs
// rely on: worker flags accept zero (auto) and reject negatives, counts
// must be at least one, the eviction weight α must lie in [0, 1] (NaN
// rejected), lane counts must be at least one, fractional GPU amounts must be strictly
// positive (NaN included in the rejections), rates must be finite and
// positive and horizons at least one session long, with 0 accepted only
// where it selects the default.
func TestValidators(t *testing.T) {
	tests := []struct {
		name string
		err  error
		ok   bool
	}{
		{"workers auto", Workers("-parallel", 0), true},
		{"workers serial", Workers("-parallel", 1), true},
		{"workers many", Workers("-parallel", 64), true},
		{"workers negative", Workers("-parallel", -1), false},
		{"workers very negative", Workers("-parallel", -100), false},

		{"count one", Count("-pool", 1), true},
		{"count default", Count("-pool", 8000), true},
		{"count zero", Count("-pool", 0), false},
		{"count negative", Count("-pool", -1), false},

		{"alpha zero", Alpha("-alpha", 0), true},
		{"alpha default", Alpha("-alpha", 0.4), true},
		{"alpha one", Alpha("-alpha", 1), true},
		{"alpha negative", Alpha("-alpha", -3), false},
		{"alpha above one", Alpha("-alpha", 1.5), false},
		{"alpha nan", Alpha("-alpha", math.NaN()), false},
		{"alpha inf", Alpha("-alpha", math.Inf(1)), false},

		{"lanes one", Lanes("-gpus", 1), true},
		{"lanes many", Lanes("-gpus", 8), true},
		{"lanes max", Lanes("-gpus", 64), true},
		{"lanes beyond mask", Lanes("-ngpus", 65), false},
		{"lanes zero", Lanes("-gpus", 0), false},
		{"lanes negative", Lanes("-ngpus", -2), false},

		{"amount fractional", GPUAmount("-gpus", 0.5), true},
		{"amount whole", GPUAmount("-gpus", 4), true},
		{"amount zero", GPUAmount("-gpus", 0), false},
		{"amount negative", GPUAmount("-gpus", -1), false},
		{"amount nan", GPUAmount("-gpus", math.NaN()), false},

		{"rate positive", Rate("-rate", 80, false), true},
		{"rate fractional", Rate("-rate", 0.5, false), true},
		{"rate zero", Rate("-rate", 0, false), false},
		{"rate negative", Rate("-rate", -5, false), false},
		{"rate nan", Rate("-rate", math.NaN(), false), false},
		{"rate inf", Rate("-rate", math.Inf(1), false), false},
		{"rate -inf", Rate("-rate", math.Inf(-1), false), false},
		{"rate zero default", Rate("-rate", 0, true), true},
		{"rate positive zero-default", Rate("-rate", 250, true), true},
		{"rate negative zero-default", Rate("-rate", -5, true), false},
		{"rate nan zero-default", Rate("-rate", math.NaN(), true), false},
		{"rate inf zero-default", Rate("-rate", math.Inf(1), true), false},

		{"horizon positive", Horizon("-horizon", 60*time.Second, false), true},
		{"horizon zero", Horizon("-horizon", 0, false), false},
		{"horizon negative", Horizon("-horizon", -100*time.Second, false), false},
		{"horizon zero default", Horizon("-horizon", 0, true), true},
		{"horizon positive zero-default", Horizon("-horizon", time.Second, true), true},
		{"horizon negative zero-default", Horizon("-horizon", -time.Nanosecond, true), false},
		{"horizon one session", Horizon("-horizon", simtime.DefaultSession, false), true},
		{"horizon 1ms", Horizon("-horizon", time.Millisecond, false), false},
		{"horizon one session minus 1ns", Horizon("-horizon", simtime.DefaultSession-1, false), false},
		{"horizon 1ms zero-default", Horizon("-horizon", time.Millisecond, true), false},
		{"horizon one session zero-default", Horizon("-horizon", simtime.DefaultSession, true), true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.ok && tc.err != nil {
				t.Fatalf("unexpected error: %v", tc.err)
			}
			if !tc.ok {
				if tc.err == nil {
					t.Fatal("invalid value accepted")
				}
				if !strings.Contains(tc.err.Error(), "-") {
					t.Errorf("error %q does not name the flag", tc.err)
				}
			}
		})
	}
}

// TestErrorNamesFlag pins the message contract: the user sees which
// flag failed and the value they passed.
func TestErrorNamesFlag(t *testing.T) {
	err := Workers("-parallel", -3)
	if err == nil || !strings.Contains(err.Error(), "-parallel") ||
		!strings.Contains(err.Error(), "-3") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// TestFaults pins the -faults flag contract: an empty spec quietly
// disables injection, a valid spec parses with the fault seed stamped
// on, and a bad spec — unknown kind or out-of-range probability, lane
// kinds included — fails at flag-check time with the flag named.
func TestFaults(t *testing.T) {
	cfg, err := Faults("-faults", "", 7)
	if cfg != nil || err != nil {
		t.Fatalf("empty spec: (%v, %v), want (nil, nil)", cfg, err)
	}
	cfg, err = Faults("-faults", "gpu-crash=0.5,gpu-crash-max=2", 7)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.GPUCrash != 0.5 || cfg.GPUCrashMax != 2 {
		t.Errorf("parsed config %+v lost the spec or the seed", cfg)
	}
	for _, spec := range []string{"gpu-crash=1.5", "gpu-smash=1", "gpu-crash-after=-1"} {
		cfg, err = Faults("-faults", spec, 7)
		if err == nil {
			t.Errorf("spec %q accepted: %+v", spec, cfg)
			continue
		}
		if !strings.Contains(err.Error(), "-faults") {
			t.Errorf("error %q does not name the flag", err)
		}
	}
}

// TestFirst returns the leftmost failure and nil when all pass.
func TestFirst(t *testing.T) {
	if err := First(nil, nil, nil); err != nil {
		t.Fatalf("all-nil: %v", err)
	}
	a := errors.New("a")
	b := errors.New("b")
	if err := First(nil, a, b); err != a {
		t.Errorf("got %v, want first error", err)
	}
	if err := First(); err != nil {
		t.Errorf("empty: %v", err)
	}
}
