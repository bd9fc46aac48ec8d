package serving

import (
	"math"
	"testing"
	"time"

	"adainf/internal/baselines"
	"adainf/internal/cluster"
	"adainf/internal/core"
	"adainf/internal/faults"
	"adainf/internal/sched"
	"adainf/internal/simtime"
)

// FuzzConfig drives Run over tiny horizons (at most three periods), 1–4
// GPU lanes, random rates, pool sizes, seeds and fault specs, for AdaInf, Ekya and Scrooge, under the fail-fast
// auditor. Inputs outside the documented ranges must be rejected with
// an error; every other case must finish audit-clean. No case may
// panic or hang.
func FuzzConfig(f *testing.F) {
	apps, profs := fixtures(f)
	spp := clock.SessionsPerPeriod()

	// sessions, lanes, rate, pool, seed, method, fault spec.
	f.Add(uint32(600), 1, 50.0, 500, int64(1), uint8(0), "")
	f.Add(uint32(2*spp+300), 2, 80.0, 300, int64(2), uint8(1), "default")
	f.Add(uint32(spp+1), 4, 30.0, 200, int64(3), uint8(2), "gpu-crash=1,gpu-recover=0.5,mem-fail=0.2")
	f.Add(uint32(900), 3, 100.0, 0, int64(4), uint8(0), "retrain-fail=0.5,retries=1,burst=1")
	// fillDefaults must reject each of these.
	f.Add(uint32(600), 1, math.NaN(), 500, int64(1), uint8(0), "")
	f.Add(uint32(600), 1, 50.0, -1, int64(1), uint8(1), "")
	f.Add(uint32(600), 0, 50.0, 500, int64(1), uint8(2), "") // 0 lanes defaults to 1
	f.Add(uint32(600), -1, 50.0, 500, int64(1), uint8(0), "")
	f.Add(uint32(600), cluster.MaxGPUs+1, 50.0, 500, int64(1), uint8(0), "")
	f.Add(uint32(600), 2, 50.0, 500, int64(1), uint8(0), "mem-fail")
	// faults.Parse must reject a burst factor past MaxBurstFactor, which
	// would push a burst session past an int32 arrival row.
	f.Add(uint32(600), 1, 50.0, 500, int64(1), uint8(0), "burst=1,burst-factor=1099511627776")

	f.Fuzz(func(t *testing.T, sessions uint32, lanes int, rate float64, pool int, seed int64, method uint8, spec string) {
		fc, err := faults.Parse(spec)
		if err != nil {
			return // a malformed spec never reaches Run
		}
		if fc.BurstFactor > faults.MaxBurstFactor {
			t.Fatalf("faults.Parse accepted burst-factor %d", fc.BurstFactor)
		}
		// Keep every accepted case small: fold in-range values into the
		// fuzzed ranges and pass out-of-range ones through unchanged.
		if lanes >= 1 && lanes <= cluster.MaxGPUs {
			lanes = (lanes-1)%4 + 1
		}
		if rate > 0 && !math.IsInf(rate, 0) {
			rate = math.Mod(rate, 100) + 1
		}
		if pool > 0 {
			pool = pool%2000 + 1
		}
		ms := []func() sched.Method{
			func() sched.Method { return core.New(core.Options{}) },
			func() sched.Method { return baselines.NewEkya() },
			func() sched.Method { return baselines.NewScrooge(false) },
		}
		cfg := Config{
			Apps:               apps,
			Method:             ms[int(method)%len(ms)](),
			GPUs:               2,
			NGPUs:              lanes,
			Horizon:            simtime.Duration(int(sessions)%(3*spp)+1) * clock.Session,
			Seed:               seed,
			RatePerApp:         rate,
			Retraining:         true,
			DivergentSelection: true,
			PoolSamples:        pool,
			Profiles:           profs,
			Faults:             &fc,
			Audit:              true,
		}
		invalid := lanes < 0 || lanes > cluster.MaxGPUs ||
			math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 || pool < 0

		done := make(chan error, 1)
		go func() {
			_, err := Run(cfg)
			done <- err
		}()
		select {
		case err = <-done:
		case <-time.After(time.Minute):
			t.Fatalf("Run did not finish within a minute: %+v", cfg)
		}
		switch {
		case invalid && err == nil:
			t.Fatalf("invalid config accepted: lanes %d, rate %g, pool %d", lanes, rate, pool)
		case !invalid && err != nil:
			t.Fatalf("valid config failed: %v (lanes %d, rate %g, pool %d, seed %d, method %d, faults %q)",
				err, lanes, rate, pool, seed, method, spec)
		}
	})
}
