package serving

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"adainf/internal/audit"
	"adainf/internal/baselines"
	"adainf/internal/core"
	"adainf/internal/gpu"
	"adainf/internal/gpumem"
	"adainf/internal/profile"
	"adainf/internal/sched"
	"adainf/internal/telemetry"
)

// propertyConfig is one randomized trial of the property suite.
type propertyConfig struct {
	seed    int64
	gpus    float64
	rate    float64
	oneApp  bool
	retrain bool
}

// TestPropertyInvariants drives randomized serving configurations
// through all three methods with the auditor accumulating, and asserts
// the full invariant catalog holds: zero violations over thousands of
// checks per run. The trial set is itself seeded, so failures
// reproduce.
func TestPropertyInvariants(t *testing.T) {
	apps, profs := fixtures(t)
	rng := rand.New(rand.NewSource(7))
	const trials = 2
	var cfgs []propertyConfig
	for i := 0; i < trials; i++ {
		cfgs = append(cfgs, propertyConfig{
			seed:    rng.Int63(),
			gpus:    []float64{1, 2, 4}[rng.Intn(3)],
			rate:    []float64{80, 150, 250}[rng.Intn(3)],
			oneApp:  rng.Intn(2) == 0,
			retrain: i > 0 || rng.Intn(2) == 0, // keep at least one retraining trial
		})
	}
	methods := []struct {
		name  string
		build func() sched.Method
	}{
		{"adainf", func() sched.Method { return core.New(core.Options{}) }},
		{"ekya", func() sched.Method { return baselines.NewEkya() }},
		{"scrooge", func() sched.Method { return baselines.NewScrooge(false) }},
	}
	for _, cfg := range cfgs {
		runApps := apps
		if cfg.oneApp {
			runApps = apps[:1]
		}
		for _, m := range methods {
			var rep audit.Report
			res, err := Run(Config{
				Apps:               runApps,
				Method:             m.build(),
				GPUs:               cfg.gpus,
				Horizon:            100 * time.Second, // 2 periods
				Seed:               cfg.seed,
				RatePerApp:         cfg.rate,
				Retraining:         cfg.retrain,
				DivergentSelection: cfg.retrain,
				PoolSamples:        2000,
				Profiles:           profs,
				AuditReport:        &rep,
			})
			if err != nil {
				t.Fatalf("%s %+v: %v", m.name, cfg, err)
			}
			if rep.Total != 0 {
				t.Errorf("%s %+v: %v", m.name, cfg, rep.Err())
			}
			if rep.Checks == 0 {
				t.Errorf("%s %+v: auditor performed no checks", m.name, cfg)
			}
			if res.AuditChecks != rep.Checks {
				t.Errorf("%s %+v: AuditChecks %d != report %d", m.name, cfg, res.AuditChecks, rep.Checks)
			}
		}
	}
}

// normalize strips the fields that legitimately differ between two
// runs of the same simulation: wall-clock measurements, the
// diagnostics of the machinery under metamorphic test, and the
// telemetry summaries (populated only when histograms are on).
func normalize(r *Result) Result {
	n := *r
	n.MeasuredPeriodPlanning = 0
	n.MeasuredSessionPlanning = 0
	n.FastForwardHits = 0
	n.AuditChecks = 0
	n.InferLatency = telemetry.Summary{}
	n.RetrainLatency = telemetry.Summary{}
	n.QueueDelay = telemetry.Summary{}
	n.PlanningTime = telemetry.Summary{}
	return n
}

// sameResult compares two runs' deterministic metrics bit for bit.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	ja, err := json.Marshal(normalize(a))
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(normalize(b))
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Errorf("%s: results diverged\n  a: %s\n  b: %s", label, ja, jb)
	}
}

// TestMetamorphicFastForward asserts the steady-state fast-forward
// memo is a pure optimization: disabling it (full planning and
// execution of every session) yields bit-identical metrics. Both
// steady-state methods are covered, audited, and the enabled run must
// actually replay sessions so the test cannot pass vacuously.
func TestMetamorphicFastForward(t *testing.T) {
	apps, profs := fixtures(t)
	methods := []struct {
		name  string
		build func() sched.Method
	}{
		{"adainf", func() sched.Method { return core.New(core.Options{}) }},
		{"ekya", func() sched.Method { return baselines.NewEkya() }},
	}
	for _, m := range methods {
		base := Config{
			Apps:               apps,
			GPUs:               4,
			Horizon:            100 * time.Second,
			Seed:               11,
			RatePerApp:         150,
			Retraining:         true,
			DivergentSelection: true,
			PoolSamples:        2000,
			Profiles:           profs,
			Audit:              true,
		}
		fast := base
		fast.Method = m.build()
		withFF, err := Run(fast)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		slow := base
		slow.Method = m.build()
		slow.DisableFastForward = true
		withoutFF, err := Run(slow)
		if err != nil {
			t.Fatalf("%s disabled: %v", m.name, err)
		}
		if withFF.FastForwardHits == 0 {
			t.Errorf("%s: no sessions replayed; metamorphic check is vacuous", m.name)
		}
		if withoutFF.FastForwardHits != 0 {
			t.Errorf("%s: %d replays with fast-forward disabled", m.name, withoutFF.FastForwardHits)
		}
		sameResult(t, m.name, withFF, withoutFF)
	}
}

// TestMetamorphicTelemetry asserts the telemetry collector is strictly
// read-only: a run with the full trace and histograms enabled produces
// bit-identical metrics to an untraced run, the emitted trace passes
// schema validation and converts to a well-formed Chrome trace, and a
// traced run with fast-forward disabled emits the same number of job
// spans (replays re-emit exactly what full execution would).
func TestMetamorphicTelemetry(t *testing.T) {
	apps, profs := fixtures(t)
	base := Config{
		Apps:               apps,
		GPUs:               4,
		Horizon:            100 * time.Second,
		Seed:               11,
		RatePerApp:         150,
		Retraining:         true,
		DivergentSelection: true,
		PoolSamples:        2000,
		Profiles:           profs,
		Audit:              true,
	}

	plain := base
	plain.Method = core.New(core.Options{})
	rOff, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}

	runTraced := func(disableFF bool) (*Result, *bytes.Buffer) {
		t.Helper()
		var buf bytes.Buffer
		tel := telemetry.New(telemetry.Options{Trace: &buf, Hist: true})
		cfg := base
		cfg.Method = core.New(core.Options{})
		cfg.Telemetry = tel
		cfg.DisableFastForward = disableFF
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := tel.Close(); err != nil {
			t.Fatalf("trace write: %v", err)
		}
		return r, &buf
	}
	rOn, trace := runTraced(false)
	sameResult(t, "telemetry on vs off", rOff, rOn)

	if rOn.InferLatency.Count == 0 {
		t.Error("no inference latency samples collected")
	}
	if rOn.InferLatency.P99Ms < rOn.InferLatency.P50Ms {
		t.Errorf("p99 %v < p50 %v", rOn.InferLatency.P99Ms, rOn.InferLatency.P50Ms)
	}

	counts, err := telemetry.Validate(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatalf("trace schema: %v", err)
	}
	if counts[telemetry.EvRun] != 1 {
		t.Errorf("run headers = %d, want 1", counts[telemetry.EvRun])
	}
	for _, ev := range []string{telemetry.EvPeriod, telemetry.EvSessionPlan, telemetry.EvJob} {
		if counts[ev] == 0 {
			t.Errorf("no %q events in trace", ev)
		}
	}

	var chrome bytes.Buffer
	if err := telemetry.ExportChrome(bytes.NewReader(trace.Bytes()), &chrome); err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	if !json.Valid(chrome.Bytes()) {
		t.Error("chrome trace is not valid JSON")
	}

	// Replays must re-emit the spans full execution would have emitted:
	// same job count whether or not any session fast-forwarded.
	rSlow, slowTrace := runTraced(true)
	sameResult(t, "traced ff vs no-ff", rOn, rSlow)
	if rOn.FastForwardHits == 0 {
		t.Error("no sessions replayed; span-consistency check is vacuous")
	}
	slowCounts, err := telemetry.Validate(bytes.NewReader(slowTrace.Bytes()))
	if err != nil {
		t.Fatalf("no-ff trace schema: %v", err)
	}
	if counts[telemetry.EvJob] != slowCounts[telemetry.EvJob] {
		t.Errorf("job spans: ff %d != no-ff %d", counts[telemetry.EvJob], slowCounts[telemetry.EvJob])
	}
}

// TestMetamorphicProfileCache asserts the on-disk profile cache is
// invisible to results: a run on freshly built profiles, a run on
// cache-loaded profiles, and a run on an audited warm-cache build all
// produce bit-identical metrics.
func TestMetamorphicProfileCache(t *testing.T) {
	apps, _ := fixtures(t)
	one := apps[:1]
	strat := gpu.Strategy{MaximizeUsage: true}
	policy := func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: 0.4} }
	dir := t.TempDir()

	cold, err := BuildProfilesCached(one, strat, policy, dir)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := BuildProfilesCached(one, strat, policy, dir)
	if err != nil {
		t.Fatal(err)
	}
	// An audited build shares cache keys with an unaudited one: the
	// audit never changes the profile, so the warm cache satisfies it.
	warmAudited, err := BuildProfilesAudited(one, strat, policy, dir)
	if err != nil {
		t.Fatal(err)
	}

	run := func(profs map[string]*profile.AppProfile) (*Result, error) {
		return Run(Config{
			Apps:               one,
			Method:             core.New(core.Options{}),
			GPUs:               1,
			Horizon:            100 * time.Second,
			Seed:               17,
			RatePerApp:         150,
			Retraining:         true,
			DivergentSelection: true,
			PoolSamples:        2000,
			Profiles:           profs,
			Audit:              true,
		})
	}
	rCold, err := run(cold)
	if err != nil {
		t.Fatal(err)
	}
	rWarm, err := run(warm)
	if err != nil {
		t.Fatal(err)
	}
	rAudited, err := run(warmAudited)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "cold vs warm", rCold, rWarm)
	sameResult(t, "cold vs audited-warm", rCold, rAudited)
}
