package serving

import (
	"math"
	"runtime"
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

func fixtures(t testing.TB) ([]*app.App, map[string]*profile.AppProfile) {
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

// TestBuildProfilesWithDedup pins the catalog dedup: a clone shares
// its base app's profile by pointer, and every distinct app's profile
// matches a direct profile.BuildAppProfile of that app.
func TestBuildProfilesWithDedup(t *testing.T) {
	clone := *app.VideoSurveillance()
	clone.Name = "video-surveillance-2"
	apps := []*app.App{app.VideoSurveillance(), app.BikeRackOccupancy(), &clone}
	strat := gpu.Strategy{MaximizeUsage: true}
	policy := func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: 0.4} }

	profs, err := BuildProfilesWith(apps, strat, policy, ProfileBuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != len(apps) {
		t.Fatalf("built %d profiles for %d apps", len(profs), len(apps))
	}
	if profs["video-surveillance-2"] != profs["video-surveillance"] {
		t.Error("clone does not share its base app's profile")
	}
	for _, a := range apps[:2] {
		direct, err := profile.BuildAppProfile(a, profile.Config{Strategy: strat, NewPolicy: policy})
		if err != nil {
			t.Fatal(err)
		}
		if got := profs[a.Name].MemDigest; got != direct.MemDigest {
			t.Errorf("%s: MemDigest %#x, direct build %#x", a.Name, got, direct.MemDigest)
		}
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
		{"nil app", func(c *Config) { c.Apps = []*app.App{app.VideoSurveillance(), nil} }},
		{"duplicate app names", func(c *Config) { c.Apps = []*app.App{app.VideoSurveillance(), app.VideoSurveillance()} }},
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

// jobRecorder wraps AdaInf (its DagFor is promoted) and records every
// job request serving hands it, in both the period and the session
// contexts.
type jobRecorder struct {
	*core.Scheduler
	period, session []sched.JobRequest
	// dagMismatch counts session jobs whose Dag is not the method's
	// current DAG for the app.
	dagMismatch int
}

func (r *jobRecorder) OnPeriodStart(ctx *sched.PeriodContext) (*sched.PeriodPlan, error) {
	r.period = append(r.period, ctx.Jobs...)
	return r.Scheduler.OnPeriodStart(ctx)
}

func (r *jobRecorder) PlanSession(ctx *sched.SessionContext) (*sched.SessionPlan, error) {
	for i := range ctx.Jobs {
		if ctx.Jobs[i].Dag != r.DagFor(ctx.Jobs[i].Instance.App.Name) {
			r.dagMismatch++
		}
	}
	r.session = append(r.session, ctx.Jobs...)
	return r.Scheduler.PlanSession(ctx)
}

// TestRunSuppliesOneLatencyMemoPerProfile checks the latency memo's
// single owner: every job serving hands a method, in period and session
// contexts alike, carries a non-nil Costs; apps that share a profile
// (a catalog clone and its base) share one memo, and distinct profiles
// get distinct memos. Session jobs also carry the method's current DAG.
func TestRunSuppliesOneLatencyMemoPerProfile(t *testing.T) {
	apps, profs := fixtures(t)
	clone := *apps[0]
	clone.Name = apps[0].Name + "-2"
	clone.Nodes = append([]app.Node(nil), apps[0].Nodes...)
	withClone := append(append([]*app.App(nil), apps...), &clone)
	shared := map[string]*profile.AppProfile{clone.Name: profs[apps[0].Name]}
	for name, p := range profs {
		shared[name] = p
	}
	rec := &jobRecorder{Scheduler: core.New(core.Options{})}
	if _, err := Run(Config{
		Apps:        withClone,
		Method:      rec,
		GPUs:        4,
		Horizon:     100 * time.Second,
		Seed:        3,
		RatePerApp:  50,
		Retraining:  true,
		PoolSamples: 1000,
		Profiles:    shared,
		Audit:       true,
	}); err != nil {
		t.Fatal(err)
	}
	if len(rec.period) == 0 || len(rec.session) == 0 {
		t.Fatalf("recorded %d period and %d session jobs", len(rec.period), len(rec.session))
	}
	memo := make(map[*profile.AppProfile]*profile.LatencyCache)
	for ctx, jobs := range map[string][]sched.JobRequest{"period": rec.period, "session": rec.session} {
		for _, jr := range jobs {
			name := jr.Instance.App.Name
			if jr.Costs == nil {
				t.Fatalf("%s job %q: nil Costs", ctx, name)
			}
			if want, ok := memo[jr.Profile]; ok && jr.Costs != want {
				t.Fatalf("%s job %q: a second memo for its profile", ctx, name)
			}
			memo[jr.Profile] = jr.Costs
		}
	}
	if len(memo) != 2 {
		t.Fatalf("%d profiles seen, want 2", len(memo))
	}
	if memo[profs[apps[0].Name]] == memo[profs[apps[1].Name]] {
		t.Fatal("distinct profiles share one memo")
	}
	if rec.dagMismatch != 0 {
		t.Fatalf("%d session jobs carry a DAG other than the method's current one", rec.dagMismatch)
	}
}

// TestWorkSessionAllocsPerJob guards the allocation-free session path:
// for every method, the objects a 200 s run allocates beyond a 100 s
// run, divided by the jobs it serves beyond it, stay below 0.1. The
// per-run setup cancels in the difference, so what is left is the
// steady-state cost of planning and executing sessions (plus two period
// boundaries, which recycle their storage).
func TestWorkSessionAllocsPerJob(t *testing.T) {
	apps, profs := fixtures(t)
	run := func(m sched.Method, horizon time.Duration) (mallocs uint64, jobs int) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := Run(Config{
			Apps:               apps,
			Method:             m,
			GPUs:               4,
			Horizon:            horizon,
			Seed:               7,
			RatePerApp:         250,
			Retraining:         true,
			DivergentSelection: true,
			PoolSamples:        1000,
			Profiles:           profs,
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs, res.Jobs
	}
	for _, m := range []struct {
		name  string
		build func() sched.Method
	}{
		{"AdaInf", func() sched.Method { return core.New(core.Options{}) }},
		{"Ekya", func() sched.Method { return baselines.NewEkya() }},
		{"Scrooge", func() sched.Method { return baselines.NewScrooge(false) }},
		{"Scrooge*", func() sched.Method { return baselines.NewScrooge(true) }},
	} {
		shortAllocs, shortJobs := run(m.build(), 100*time.Second)
		longAllocs, longJobs := run(m.build(), 200*time.Second)
		if longJobs <= shortJobs {
			t.Fatalf("%s: %d jobs in 200 s, %d in 100 s", m.name, longJobs, shortJobs)
		}
		perJob := (float64(longAllocs) - float64(shortAllocs)) / float64(longJobs-shortJobs)
		t.Logf("%s: %.3f allocations per job over %d extra jobs", m.name, perJob, longJobs-shortJobs)
		if perJob >= 0.1 {
			t.Errorf("%s: %.3f allocations per served job, want < 0.1", m.name, perJob)
		}
	}
}

// BenchmarkRun is one unaudited serving run of one app for one 50 s
// period at the default rate, profiles prebuilt, per method: its
// allocs/op is each method's session path plus the run's setup.
func BenchmarkRun(b *testing.B) {
	apps, profs := fixtures(b)
	for _, m := range faultMethods() {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := Run(Config{
					Apps:               apps[:1],
					Method:             m.build(),
					Horizon:            50 * time.Second,
					Seed:               1,
					Retraining:         true,
					DivergentSelection: true,
					Profiles:           profs,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
