package serving

import (
	"math"
	"testing"
	"time"

	"adainf/internal/app"
	"adainf/internal/baselines"
	"adainf/internal/core"
	"adainf/internal/gpu"
	"adainf/internal/gpumem"
	"adainf/internal/mathx"
	"adainf/internal/profile"
	"adainf/internal/sched"
)

// Shared fixtures: profiles are the expensive part, build once.
var (
	vsApps     []*app.App
	vsProfiles map[string]*profile.AppProfile
)

func fixtures(t *testing.T) ([]*app.App, map[string]*profile.AppProfile) {
	t.Helper()
	if vsProfiles == nil {
		vsApps = []*app.App{app.VideoSurveillance(), app.BikeRackOccupancy()}
		p, err := BuildProfiles(vsApps, gpu.Strategy{MaximizeUsage: true},
			func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: 0.4} })
		if err != nil {
			t.Fatal(err)
		}
		vsProfiles = p
	}
	return vsApps, vsProfiles
}

func shortRun(t *testing.T, m sched.Method, retrain bool) *Result {
	t.Helper()
	apps, profs := fixtures(t)
	res, err := Run(Config{
		Apps:               apps,
		Method:             m,
		GPUs:               4,
		Horizon:            150 * time.Second, // 3 periods
		Seed:               42,
		RatePerApp:         150,
		Retraining:         retrain,
		DivergentSelection: retrain,
		PoolSamples:        2000,
		Profiles:           profs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunProducesMetrics(t *testing.T) {
	res := shortRun(t, core.New(core.Options{}), true)
	if res.Method != "AdaInf" {
		t.Fatalf("method = %q", res.Method)
	}
	if res.Requests == 0 || res.Jobs == 0 {
		t.Fatal("no work simulated")
	}
	if len(res.PeriodAccuracy) != 3 {
		t.Fatalf("periods = %d", len(res.PeriodAccuracy))
	}
	if res.MeanAccuracy <= 0.5 || res.MeanAccuracy > 1 {
		t.Fatalf("accuracy = %v", res.MeanAccuracy)
	}
	if res.MeanFinishRate <= 0.5 || res.MeanFinishRate > 1 {
		t.Fatalf("finish rate = %v", res.MeanFinishRate)
	}
	if res.MeanInferLatencyMs <= 0 {
		t.Fatal("no inference latency recorded")
	}
	if u := mathx.MeanOf(res.UtilizationPerSec); u <= 0 || u > 1 {
		t.Fatalf("utilization = %v", u)
	}
	if res.SessionOverhead != core.DefaultOverhead {
		t.Fatalf("session overhead = %v", res.SessionOverhead)
	}
	if res.PeriodOverhead != core.DAGUpdateOverhead {
		t.Fatalf("period overhead = %v", res.PeriodOverhead)
	}
}

func TestRetrainingImprovesAccuracy(t *testing.T) {
	with := shortRun(t, core.New(core.Options{}), true)
	without := shortRun(t, core.New(core.Options{Label: "NoRetrain"}), false)
	if without.MeanRetrainLatencyMs != 0 {
		t.Fatal("no-retraining run retrained")
	}
	// Observation 1 / Fig. 4a: retraining must help, and the gap widens
	// in the later (more drifted) periods.
	if with.MeanAccuracy <= without.MeanAccuracy {
		t.Fatalf("retraining did not help: %v vs %v", with.MeanAccuracy, without.MeanAccuracy)
	}
	last := len(with.PeriodAccuracy) - 1
	if with.PeriodAccuracy[last] <= without.PeriodAccuracy[last] {
		t.Fatalf("late-period gap missing: %v vs %v",
			with.PeriodAccuracy[last], without.PeriodAccuracy[last])
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	a := shortRun(t, core.New(core.Options{}), true)
	b := shortRun(t, core.New(core.Options{}), true)
	if a.MeanAccuracy != b.MeanAccuracy || a.MeanFinishRate != b.MeanFinishRate || a.Requests != b.Requests {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestEkyaRunsAndReportsTransferFree(t *testing.T) {
	res := shortRun(t, baselines.NewEkya(), true)
	if res.EdgeCloudBytes != 0 {
		t.Fatal("Ekya transferred to the cloud")
	}
	if res.PeriodOverhead != baselines.EkyaOverhead {
		t.Fatalf("Ekya overhead = %v", res.PeriodOverhead)
	}
	// Ekya retrains whole pools: updated-model fraction must be well
	// below 100% (Fig. 4b: 53–60% in the paper).
	upd := mathx.MeanOf(res.UpdatedModelFraction)
	if upd <= 0.05 || upd >= 0.95 {
		t.Fatalf("Ekya updated-model fraction = %v", upd)
	}
}

func TestScroogeReportsWANTransfer(t *testing.T) {
	res := shortRun(t, baselines.NewScrooge(false), true)
	if res.EdgeCloudBytes == 0 || res.EdgeCloudTransfer == 0 {
		t.Fatal("Scrooge reported no WAN transfer (Table 1)")
	}
}

func TestBuildProfilesSharedAcrossClones(t *testing.T) {
	apps, err := app.CatalogN(10)
	if err != nil {
		t.Fatal(err)
	}
	profs, err := BuildProfiles(apps[:2], gpu.Strategy{MaximizeUsage: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != 2 {
		t.Fatalf("profiles = %d", len(profs))
	}
}

// TestBuildProfilesWithParallelMatchesSerial pins the cross-app
// parallel path: distinct apps built concurrently produce the same
// profiles as the serial walk, and clone dedup still shares the built
// profile by pointer.
func TestBuildProfilesWithParallelMatchesSerial(t *testing.T) {
	clone := *app.VideoSurveillance()
	clone.Name = "video-surveillance-2"
	apps := []*app.App{app.VideoSurveillance(), app.BikeRackOccupancy(), &clone}
	strat := gpu.Strategy{MaximizeUsage: true}
	policy := func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: 0.4} }

	serial, err := BuildProfilesWith(apps, strat, policy, ProfileBuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildProfilesWith(apps, strat, policy, ProfileBuildOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(serial) {
		t.Fatalf("parallel built %d profiles, serial %d", len(par), len(serial))
	}
	for name, sp := range serial {
		pp, ok := par[name]
		if !ok {
			t.Fatalf("parallel build missing %q", name)
		}
		if pp.MemDigest != sp.MemDigest {
			t.Errorf("%s: MemDigest %#x (parallel) vs %#x (serial)", name, pp.MemDigest, sp.MemDigest)
		}
	}
	if par["video-surveillance-2"] != par["video-surveillance"] {
		t.Error("clone no longer shares its base app's profile under the parallel build")
	}
}

// TestConfigValidation pins that every out-of-range Config value left
// after defaulting is rejected with an error before the run starts —
// never a hang (NaN rate) or a panic (negative horizon).
func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("nil method accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		mod  func(*Config)
	}{
		{"negative GPUs", func(c *Config) { c.GPUs = -1 }},
		{"NaN GPUs", func(c *Config) { c.GPUs = nan }},
		{"infinite GPUs", func(c *Config) { c.GPUs = inf }},
		{"-infinite GPUs", func(c *Config) { c.GPUs = -inf }},
		{"negative horizon", func(c *Config) { c.Horizon = -100 * time.Second }},
		{"negative rate", func(c *Config) { c.RatePerApp = -5 }},
		{"NaN rate", func(c *Config) { c.RatePerApp = nan }},
		{"infinite rate", func(c *Config) { c.RatePerApp = inf }},
		{"negative pool samples", func(c *Config) { c.PoolSamples = -1 }},
		{"negative bootstrap samples", func(c *Config) { c.BootstrapSamples = -1 }},
		{"negative alpha", func(c *Config) { c.PredictAlpha = -0.1 }},
		{"alpha above one", func(c *Config) { c.PredictAlpha = 1.5 }},
		{"NaN alpha", func(c *Config) { c.PredictAlpha = nan }},
		{"negative lanes", func(c *Config) { c.NGPUs = -1 }},
		{"lanes beyond the mask", func(c *Config) { c.NGPUs = 65 }},
	} {
		cfg := Config{Method: core.New(core.Options{})}
		tc.mod(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	// The edge of the alpha range is valid: defaulting must not reject it.
	cfg := Config{Method: core.New(core.Options{}), PredictAlpha: 1}
	if err := cfg.fillDefaults(); err != nil {
		t.Errorf("alpha 1 rejected: %v", err)
	}
}

func TestMemoryVariantProfilesDiffer(t *testing.T) {
	// The /M1 configuration (no MaximizeUsage) must produce slower
	// profiles under memory pressure, which is how the ablation's
	// effect reaches the scheduler.
	apps := []*app.App{app.VideoSurveillance()}
	ada, err := BuildProfiles(apps, gpu.Strategy{MaximizeUsage: true},
		func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: 0.4} })
	if err != nil {
		t.Fatal(err)
	}
	m1, err := BuildProfiles(apps, gpu.Strategy{MaximizeUsage: false},
		func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: 0.4} })
	if err != nil {
		t.Fatal(err)
	}
	adaSp := ada["video-surveillance"].Structures["object-detection"]
	m1Sp := m1["video-surveillance"].Structures["object-detection"]
	adaLat, err := adaSp[len(adaSp)-1].PerBatch(16, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	m1Lat, err := m1Sp[len(m1Sp)-1].PerBatch(16, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if m1Lat <= adaLat {
		t.Fatalf("/M1 per-batch %v not slower than AdaInf %v", m1Lat, adaLat)
	}
}
