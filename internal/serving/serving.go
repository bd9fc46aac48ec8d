// Package serving is the edge-server runtime: it replays a request
// trace against live application instances, drives a scheduling method
// (AdaInf, a variant, Ekya, or Scrooge) period by period and session by
// session, executes the resulting plans against the profiled cost
// model, applies retraining to the models' knowledge, and collects the
// §5 metrics.
//
// Execution is analytic on the hot path: job latencies come from the
// same offline profiles the schedulers plan with (built by actually
// executing structures on the simulated GPU), so the scheduler and the
// "hardware" agree the way they do after profiling in the real system.
// Prediction error — plans are made for the predicted request count,
// requests are served at the actual count — is what produces SLO
// misses, exactly as §5.1 describes.
package serving

import (
	"fmt"
	"math"
	"slices"
	"time"

	"adainf/internal/app"
	"adainf/internal/audit"
	"adainf/internal/cluster"
	"adainf/internal/dist"
	"adainf/internal/dnn"
	"adainf/internal/faults"
	"adainf/internal/gpu"
	"adainf/internal/gpumem"
	"adainf/internal/metrics"
	"adainf/internal/profile"
	"adainf/internal/sched"
	"adainf/internal/simtime"
	"adainf/internal/telemetry"
	"adainf/internal/trace"
)

// clock is every run's session and period granularity (5 ms / 50 s).
var clock = simtime.NewClock()

// predictAlpha is the request predictor's EWMA factor.
const predictAlpha = 0.4

// Config parameterizes one serving run.
type Config struct {
	// Apps are the concurrent applications (default: the §4 catalog).
	Apps []*app.App
	// Method is the scheduling method under test.
	Method sched.Method
	// GPUs is the edge server's GPU count (default 4).
	GPUs float64
	// NGPUs shards the server into that many GPU lanes. Each lane runs
	// its own session planning over its GPUs/NGPUs share of the compute,
	// and retraining is charged to the owning lane. The default 1 is the
	// one-lane cluster: every app shares the single partition, with no
	// per-GPU capacity check, no placement events and no per-GPU
	// utilization series. With NGPUs > 1, apps are bin-packed onto lanes
	// by profiled working-set bytes and predicted load (internal/cluster).
	NGPUs int
	// Horizon is the simulated duration (default 1000 s as §2).
	Horizon simtime.Duration
	// Seed drives all randomness.
	Seed int64
	// RatePerApp is the mean request rate per application in req/s.
	// Default 250.
	RatePerApp float64
	// Retraining false disables all retraining (the Fig. 4 "w/o"
	// baseline).
	Retraining bool
	// DivergentSelection applies AdaInf's most-divergent-sample
	// selection boost to incremental retraining.
	DivergentSelection bool
	// MemStrategy and NewPolicy select the §3.4 memory behaviour the
	// profiles are built under (AdaInf: MaximizeUsage + priority
	// eviction; /M1 drops MaximizeUsage; /M2 drops the priority
	// policy).
	MemStrategy gpu.Strategy
	NewPolicy   func() gpumem.Policy
	// PoolSamples sizes the per-period retraining pool.
	PoolSamples int
	// Profiles, when non-nil, supplies pre-built app profiles keyed by
	// app name (reuse across runs of an experiment sweep).
	Profiles map[string]*profile.AppProfile
	// Audit enables the runtime invariant auditor (internal/audit):
	// every session plan, retrain application, and period's request
	// accounting is validated against the §3.3/§3.4 invariants. The
	// auditor is read-only, so audited runs produce bit-identical
	// metrics. With a nil AuditReport the first violation fails the
	// run. When the run builds its own profiles (Profiles == nil),
	// profiling also runs under the GPU-memory invariant checks —
	// unless a warm on-disk cache satisfies the build.
	Audit bool
	// AuditReport, when non-nil, enables auditing in accumulate mode:
	// violations collect here and the run completes. Implies Audit.
	AuditReport *audit.Report
	// Telemetry, when non-nil, collects the run's latency histograms
	// and/or JSONL decision trace (see internal/telemetry). Telemetry
	// is strictly read-only observability: it never draws from the RNG
	// or mutates simulation state, so a traced run produces
	// bit-identical metrics to an untraced one. A nil collector is the
	// zero-cost no-op.
	Telemetry *telemetry.Collector
	// Faults, when non-nil with any probability set, enables the
	// deterministic fault injector (see internal/faults): seed-derived
	// retraining failures/slowdowns, transient GPU-memory allocation
	// failures with graceful degradation, and workload drift-spike and
	// arrival-burst perturbations. Unset (or all-zero), every code path
	// and every metric is byte-identical to a build without the
	// injector.
	Faults *faults.Config
}

func (c *Config) fillDefaults() error {
	if len(c.Apps) == 0 {
		c.Apps = app.Catalog()
	}
	// Apps are keyed by name throughout the run (plans, profiles,
	// retrains), so every entry must exist and carry its own name.
	seen := make(map[string]int, len(c.Apps))
	for i, a := range c.Apps {
		if a == nil {
			return fmt.Errorf("serving: app %d is nil", i)
		}
		if j, dup := seen[a.Name]; dup {
			return fmt.Errorf("serving: apps %d and %d share the name %q", j, i, a.Name)
		}
		seen[a.Name] = i
	}
	if c.Method == nil {
		return fmt.Errorf("serving: no method")
	}
	if c.GPUs == 0 {
		c.GPUs = 4
	}
	if !(c.GPUs > 0) || math.IsInf(c.GPUs, 0) {
		return fmt.Errorf("serving: %g GPUs", c.GPUs)
	}
	if c.NGPUs == 0 {
		c.NGPUs = 1
	}
	if c.NGPUs < 1 || c.NGPUs > cluster.MaxGPUs {
		return fmt.Errorf("serving: %d GPU lanes, want 1..%d", c.NGPUs, cluster.MaxGPUs)
	}
	if c.Horizon == 0 {
		c.Horizon = 1000 * time.Second
	}
	if c.RatePerApp == 0 {
		c.RatePerApp = 250
	}
	if c.PoolSamples == 0 {
		c.PoolSamples = 8000
	}
	// Defaulting only replaces zeros: reject what is left out of range
	// before it can hang the arrival generator (NaN rate), size the
	// metric series negatively (negative horizon) or run no session at
	// all (a horizon shorter than one session).
	switch {
	case c.Horizon <= 0:
		return fmt.Errorf("serving: horizon %v not positive", c.Horizon)
	case c.Horizon < clock.Session:
		return fmt.Errorf("serving: horizon %v shorter than one %v session", c.Horizon, clock.Session)
	case !(c.RatePerApp > 0) || math.IsInf(c.RatePerApp, 0):
		return fmt.Errorf("serving: rate %g req/s not finite and positive", c.RatePerApp)
	case c.PoolSamples < 0:
		return fmt.Errorf("serving: negative pool sample count %d", c.PoolSamples)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Result carries everything the experiments report.
type Result struct {
	Method string

	PeriodAccuracy    []float64
	MeanAccuracy      float64
	FinishRateWindows []float64
	MeanFinishRate    float64

	UpdatedModelFraction []float64
	UtilizationPerSec    []float64

	MeanInferLatencyMs   float64
	MeanRetrainLatencyMs float64

	RetrainTimePerPeriodS []float64
	RetrainSampleFraction []float64

	// Table 1 accounting.
	PeriodOverhead    simtime.Duration
	SessionOverhead   simtime.Duration
	EdgeCloudTransfer simtime.Duration
	EdgeCloudBytes    int64
	// MeasuredPeriodPlanning and MeasuredSessionPlanning are the
	// wall-clock times this implementation actually spent planning.
	MeasuredPeriodPlanning  time.Duration
	MeasuredSessionPlanning time.Duration

	Requests int
	Jobs     int

	// Deprecated: FastForwardHits is always zero, because every work
	// session plans and executes. It remains only so existing readers
	// compile.
	FastForwardHits int

	// AuditChecks counts the invariant evaluations the auditor
	// performed (zero when auditing was disabled).
	AuditChecks int

	// PerGPUUtilization is each GPU lane's mean busy fraction over the
	// horizon, relative to its GPUs/NGPUs compute share (nil unless
	// Config.NGPUs > 1).
	PerGPUUtilization []float64

	// FinishRateValid and UpdatedModelValid mask the corresponding
	// series: entries are true where the window (period) observed at
	// least one arrival (prediction). Aggregates over the series must
	// skip invalid entries — a 0-filled empty window carries no
	// information and would silently dilute a mean.
	FinishRateValid   []bool
	UpdatedModelValid []bool

	// Overflow totals the events stamped outside the horizon (excluded
	// from the per-period/per-window series above, included in the
	// aggregate means).
	Overflow metrics.Overflow

	// UtilizationOvershootMax and UtilizationOvershootWindows surface
	// raw busy-time over-accounting: the maximum unclamped per-second
	// utilization and how many 1 s windows exceeded 1 (the reported
	// UtilizationPerSec series clamps at 1).
	UtilizationOvershootMax     float64
	UtilizationOvershootWindows int

	// InferLatency, RetrainLatency, and QueueDelay summarize the
	// telemetry latency histograms (zero unless Config.Telemetry had
	// histograms enabled). QueueDelay is job latency minus time spent
	// inferring and retraining: scheduling lead plus in-job waiting.
	InferLatency   telemetry.Summary
	RetrainLatency telemetry.Summary
	QueueDelay     telemetry.Summary

	// Deprecated: PlanMemo* are always zero, because no method memoizes
	// session plans. They remain only so existing readers compile.
	PlanMemoHits        uint64
	PlanMemoMisses      uint64
	PlanMemoInvalidated uint64
	// PlanningTime summarizes the wall-clock planning histogram (zero
	// unless Config.Telemetry had histograms enabled).
	PlanningTime telemetry.Summary

	// Fault* count the injections a faulted run (Config.Faults) actually
	// fired; all zero with faults disabled. They are deterministic —
	// pure functions of the fault seed and the workload — so repeated
	// runs report identical counts.
	FaultRetrainSlowed     int // whole-pool retrains stretched by the slow factor
	FaultRetrainFailures   int // failed whole-pool attempts (retries included)
	FaultRetrainAbandoned  int // whole-pool retrains given up on (stale model serves)
	FaultIncrementalFailed int // incremental slices that trained nothing
	FaultIncrementalSlowed int // incremental slices that trained 1/factor samples
	FaultDegradedJobs      int // jobs degraded to smallest structures by a memory fault
	FaultBursts            int // arrival-burst windows injected
	FaultDriftSpikes       int // period-boundary distribution shocks injected

	// GPU lane failure accounting (Config.Faults with gpu-crash set and
	// NGPUs > 1; all zero otherwise). Like the fault counters above they
	// are pure functions of the fault seed and the workload.
	FaultGPUCrashes    int // lane-crash events fired at period boundaries
	FaultGPURecoveries int // dead lanes brought back at period boundaries
	FaultReplacements  int // failover re-packs forced by a liveness change
	FaultShedRequests  int // requests shed by degraded admission (counted missed)
	// FaultSuspendedRetrainPeriods counts app-periods in which the
	// admission gate suspended an application's whole-pool retraining.
	FaultSuspendedRetrainPeriods int
}

// appState is the runtime bundle per application.
type appState struct {
	inst *app.Instance
	prof *profile.AppProfile
	gen  *trace.Generator
	pred *trace.Predictor
	// Per-node state is indexed by node position (App.Nodes order, as
	// in Instance.Nodes(), the profile's Tables() and NodePlan.Index).
	// liveDists caches each node's live distribution for the period and
	// liveCDFs its cumulative vector (dist.Categorical.AppendCDF).
	liveDists []*dist.Categorical
	liveCDFs  [][]float64
	poolDists []*dist.Categorical
	// updated marks the nodes whose model was retrained within the
	// current period.
	updated []bool
	// carry holds fractional incremental-retraining progress per node:
	// a short slice at a small GPU fraction may train less than one
	// whole sample; the remainder carries to the app's next job.
	carry  []float64
	leaves []int
	// fallbackNodes is the precomputed full-structure plan used when the
	// scheduler did not plan for the app. It must be its own storage:
	// scheduler plans alias reusable arenas that a fallback job must not
	// scribble over.
	fallbackNodes []sched.NodePlan
	// degradedNodes is the graceful-degradation plan a transient GPU
	// memory fault falls back to: every node at its smallest profiled
	// structure with no retraining slice. Strictly faster than any
	// planned structure set, so a degraded job never violates the
	// latency SLO its plan was built for.
	degradedNodes []sched.NodePlan
	// probMemo caches each leaf's per-class correctness probabilities,
	// keyed by everything that can change them: the period's live-dist
	// snapshot (a fresh immutable clone each period, so pointer
	// identity suffices), the model-state version (bumped by every
	// effective Train), and the served structure. Scoring reuses the
	// vector until one of those moves. Only leaves' entries are used.
	probMemo []leafProbs
	// dag is the method's retraining-inference DAG for the current
	// period (nil when the method builds none), bound to every session
	// job of the app.
	dag *sched.RIDag
	// costs memoizes (node, structure, batch, fraction) latency probes
	// behind the profile's tables. It is the run's one memo
	// for the profile, shared by every app with that profile: runJob's
	// inference latencies and the method's planning probes (as
	// JobRequest.Costs) both go through it.
	costs *profile.LatencyCache
}

// leafProbs is one probMemo entry: the cached correctness vector and
// the inputs it was computed from. The *Seq and *Off fields locate the
// snapshots of the vector and of the live CDF in the scorer's current
// batch (see scorer.add): a miss clears probsSeq, a new period cdfSeq.
type leafProbs struct {
	live    *dist.Categorical
	version uint64
	stct    dnn.Structure
	probs   []float64

	cdfSeq, probsSeq uint64
	cdfOff, probsOff int32
}

// pendingRetrain is a scheduled whole-pool retraining awaiting its
// completion instant.
type pendingRetrain struct {
	sched.PeriodRetrain
	applied bool
	// abandoned marks a fault-injected job that never completed (every
	// retry failed or no retry fit the retraining window); it never
	// applies, claims no GPU beyond its failed attempts, and the stale
	// model keeps serving.
	abandoned bool
	// app and node are the retrain's app (states order) and node
	// positions.
	app, node int
}

// ProfileBuildOptions tunes BuildProfilesWith beyond the memory
// configuration. The zero value profiles from scratch with no audit
// and no telemetry.
type ProfileBuildOptions struct {
	// CacheDir backs the build with the on-disk profile cache (see
	// profile.BuildAppProfileCached); empty profiles from scratch.
	CacheDir string
	// Audit enables the GPU-memory invariant checks during profiling
	// (profile.Config.Audit). Audited and unaudited builds produce
	// identical profiles and share the same on-disk cache keys; a warm
	// cache satisfies the build without re-running the measurements.
	Audit bool
	// Telemetry receives profile-cache hit/miss events and the
	// profiled partitions' eviction events. Neither enters the cache
	// key.
	Telemetry *telemetry.Collector
}

// BuildProfiles builds the per-app offline profiles for the memory
// configuration.
func BuildProfiles(apps []*app.App, strat gpu.Strategy, newPolicy func() gpumem.Policy) (map[string]*profile.AppProfile, error) {
	return BuildProfilesWith(apps, strat, newPolicy, ProfileBuildOptions{})
}

// BuildProfilesWith builds (or loads from cache) the per-app offline
// profiles for the memory configuration under the given options.
//
// CatalogN clones share profiles with their base app — same models,
// same SLO band — so apps are deduplicated on profileKeyOf: each
// distinct shape profiles exactly once, however many clones reference
// it. Distinct apps build one after another in catalog order, and the
// first failing build's error is returned. Each build runs its own work
// units concurrently (see profile.BuildAppProfile).
func BuildProfilesWith(apps []*app.App, strat gpu.Strategy, newPolicy func() gpumem.Policy,
	opts ProfileBuildOptions) (map[string]*profile.AppProfile, error) {

	cfg := profile.Config{
		Strategy:  strat,
		NewPolicy: newPolicy,
		Audit:     opts.Audit,
		Telemetry: opts.Telemetry,
	}
	built := make(map[string]*profile.AppProfile)
	out := make(map[string]*profile.AppProfile, len(apps))
	for _, a := range apps {
		k := profileKeyOf(a)
		p, ok := built[k]
		if !ok {
			var err error
			if p, err = profile.BuildAppProfileCached(a, cfg, opts.CacheDir); err != nil {
				return nil, err
			}
			built[k] = p
		}
		out[a.Name] = p
	}
	return out, nil
}

// profileKeyOf summarizes the profile-relevant identity of an app: its
// SLO and each node's name and model, in order. A profile's per-node
// data is named and ordered by its app's nodes, so apps that differ in
// a node name cannot share one.
func profileKeyOf(a *app.App) string {
	key := fmt.Sprintf("slo=%v", a.SLO)
	for _, n := range a.Nodes {
		key += fmt.Sprintf("|%q:%q", n.Name, n.Model)
	}
	return key
}

// Run executes one serving simulation.
func Run(cfg Config) (*Result, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	profiles := cfg.Profiles
	if profiles == nil {
		var err error
		profiles, err = BuildProfilesWith(cfg.Apps, cfg.MemStrategy, cfg.NewPolicy, ProfileBuildOptions{
			Audit:     cfg.Audit || cfg.AuditReport != nil,
			Telemetry: cfg.Telemetry,
		})
		if err != nil {
			return nil, err
		}
	}

	states := make([]*appState, len(cfg.Apps))
	costs := make(map[*profile.AppProfile]*profile.LatencyCache)
	for i, a := range cfg.Apps {
		inst, err := app.NewInstance(a, app.InstanceConfig{
			Seed:        cfg.Seed + int64(i)*104729,
			PoolSamples: cfg.PoolSamples,
		})
		if err != nil {
			return nil, err
		}
		prof, ok := profiles[a.Name]
		if !ok {
			return nil, fmt.Errorf("serving: no profile for app %q", a.Name)
		}
		// Per-node state is positional: the profile must list the app's
		// nodes in order.
		if !slices.EqualFunc(prof.Tables(), a.Nodes, func(t *profile.Table, n app.Node) bool { return t.Node() == n.Name }) {
			return nil, fmt.Errorf("serving: profile for app %q does not list its nodes in order", a.Name)
		}
		curve := trace.DefaultTwitterLike(cfg.RatePerApp, cfg.Horizon, cfg.Seed+int64(i)*31)
		pred, err := trace.NewPredictor(predictAlpha)
		if err != nil {
			return nil, err
		}
		if costs[prof] == nil {
			costs[prof] = profile.NewLatencyCache(prof)
		}
		n := len(a.Nodes)
		st := &appState{
			inst:      inst,
			prof:      prof,
			gen:       trace.NewGenerator(curve, cfg.Seed+int64(i)*17+1),
			pred:      pred,
			liveDists: make([]*dist.Categorical, n),
			liveCDFs:  make([][]float64, n),
			poolDists: make([]*dist.Categorical, n),
			updated:   make([]bool, n),
			carry:     make([]float64, n),
			costs:     costs[prof],
			probMemo:  make([]leafProbs, n),
		}
		for _, leaf := range a.Leaves() {
			st.leaves = append(st.leaves, nodeIndex(inst, leaf))
		}
		for ni, nd := range inst.Nodes() {
			st.fallbackNodes = append(st.fallbackNodes, sched.NodePlan{
				Node: nd.Node.Name, Index: ni, Structure: nd.FullStructure(),
			})
			st.degradedNodes = append(st.degradedNodes, sched.NodePlan{
				Node: nd.Node.Name, Index: ni, Structure: nd.SmallestStructure(),
			})
		}
		states[i] = st
	}

	rec, err := metrics.NewRecorder(cfg.Horizon, clock.Period, cfg.GPUs)
	if err != nil {
		return nil, err
	}
	res := &Result{Method: cfg.Method.Name()}
	rng := dist.NewRNG(cfg.Seed ^ 0x5eed)

	cfg.Telemetry.Run(cfg.Method.Name(), cfg.GPUs, cfg.Horizon, len(cfg.Apps))
	if err := newRunLoop(&cfg, states, rec, res).run(rng); err != nil {
		return nil, err
	}

	res.PeriodAccuracy = rec.PeriodAccuracy()
	res.MeanAccuracy = rec.MeanAccuracy()
	res.FinishRateWindows = rec.FinishRateWindows()
	res.MeanFinishRate = rec.MeanFinishRate()
	res.UpdatedModelFraction = rec.UpdatedModelFraction()
	res.UtilizationPerSec = rec.UtilizationPerSecond()
	res.MeanInferLatencyMs = rec.MeanInferLatencyMs()
	res.MeanRetrainLatencyMs = rec.MeanRetrainLatencyMs()
	res.RetrainTimePerPeriodS = rec.RetrainTimePerPeriodS()
	res.RetrainSampleFraction = rec.RetrainSampleFraction()
	res.FinishRateValid = rec.WindowsWithArrivals()
	res.UpdatedModelValid = rec.PeriodsWithPredictions()
	res.Overflow = rec.Overflow()
	res.UtilizationOvershootMax, res.UtilizationOvershootWindows = rec.UtilizationOvershoot()
	if tel := cfg.Telemetry; tel.HistEnabled() {
		res.InferLatency = tel.Infer.Summary()
		res.RetrainLatency = tel.Retrain.Summary()
		res.QueueDelay = tel.Queue.Summary()
		res.PlanningTime = tel.Planning.Summary()
	}
	return res, nil
}

// jobPlanFor returns the plan's job for the app, which a method
// normally plans at the app's position li in the session's jobs.
func jobPlanFor(plan *sched.SessionPlan, li int, appName string) *sched.JobPlan {
	if li < len(plan.Jobs) && plan.Jobs[li].App == appName {
		return &plan.Jobs[li]
	}
	for i := range plan.Jobs {
		if plan.Jobs[i].App == appName {
			return &plan.Jobs[i]
		}
	}
	return nil
}

// runJob executes one job against the cost model: incremental
// retraining (when planned) followed by inference per DAG node, scoring
// every request's predictions and SLO outcome. It returns the job's
// completion offset from the session start.
func (l *runLoop) runJob(st *appState, jp *sched.JobPlan,
	lead simtime.Duration, start simtime.Instant, actual int) (simtime.Duration, error) {

	cfg := l.cfg
	rec := l.rec
	res := l.res
	a := st.inst.App
	fraction := 0.0
	batch := 0
	var nodes []sched.NodePlan
	if jp != nil {
		fraction, batch, nodes = jp.Fraction, jp.Batch, jp.Nodes
	}
	if fraction <= 0 || batch <= 0 || len(nodes) == 0 {
		// The scheduler did not plan for this app (predicted zero
		// requests): serve with a minimal fallback allocation. The
		// precomputed full-structure plan is used as-is — appending into
		// jp.Nodes would scribble over the scheduler's plan arena.
		fraction = cluster.MinFraction
		batch = fallbackBatch(actual)
		nodes = st.fallbackNodes
	}

	t := start.Add(lead)
	jobStart := t
	nBatches := (actual + batch - 1) / batch
	var inferTotal, retrainTotal simtime.Duration

	insts := st.inst.Nodes()
	for _, np := range nodes {
		k := np.Index
		if k < 0 || k >= len(insts) || insts[k].Node.Name != np.Node {
			return 0, fmt.Errorf("serving: plan for unknown node %q (index %d) of %q", np.Node, k, a.Name)
		}
		ni := insts[k]
		// Incremental retraining before the node's inference (§3.2):
		// the job trains for its allocated slice, with fractional
		// sample progress carried to the app's next job.
		if cfg.Retraining && np.RetrainTime > 0 {
			remaining := ni.RemainingSamples()
			rp := st.prof.Tables()[k].Retrain()
			if remaining > 0 {
				samplesF := rp.SamplesWithinF(np.RetrainTime, fraction)
				lat := np.RetrainTime
				if samplesF > float64(remaining) {
					// The pool cannot absorb the whole slice.
					lat = simtime.Duration(float64(lat) * float64(remaining) / samplesF)
					samplesF = float64(remaining)
				}
				if l.flt != nil && samplesF > 0 {
					// Incremental slice faults: a failure discards the
					// slice's samples, a slowdown trains 1/factor of them.
					// The planned slice latency stands either way, so the
					// session's latency SLO is untouched.
					fail, slow := l.flt.IncrementalRetrain(l.ctx.Session, a.Name, np.Node)
					if fail {
						res.FaultIncrementalFailed++
						l.tel.RetrainFault(start, a.Name, np.Node, "increm-fail", 0)
						t = t.Add(lat)
						retrainTotal += lat
						rec.RecordRetrainEffort(start, lat, 0)
						samplesF = 0
					} else if slow {
						res.FaultIncrementalSlowed++
						l.tel.RetrainFault(start, a.Name, np.Node, "increm-slow", 0)
						samplesF /= l.flt.Config().RetrainSlowFactor
					}
				}
				if samplesF > 0 {
					st.carry[k] += samplesF
					whole := int(st.carry[k])
					if whole > 0 {
						st.carry[k] -= float64(whole)
						ni.ConsumeSamples(whole)
					}
					eff := samplesF
					if cfg.DivergentSelection {
						eff *= dnn.DivergentSelectionBoost
					}
					ni.State.Train(st.poolDists[k], eff)
					ni.NoteTrained()
					t = t.Add(lat)
					retrainTotal += lat
					st.updated[k] = true
					rec.RecordRetrainEffort(start, lat, whole)
				}
			}
		}
		// Inference at the realized request count.
		per, err := st.perBatch(np, batch, fraction)
		if err != nil {
			return 0, err
		}
		inferLat := per * simtime.Duration(nBatches)
		t = t.Add(inferLat)
		inferTotal += inferLat
	}

	jobEnd := t
	latency := jobEnd.Sub(start)
	met := latency <= a.SLO
	rec.RecordJob(inferTotal, retrainTotal)
	l.book(l.curLane, jobStart, jobEnd, fraction)
	l.tel.Job(start, l.ctx.Session, a.Name, actual, lead, inferTotal, retrainTotal, latency, met, false)
	res.Jobs++

	// Score every request: one SLO outcome per request and one
	// prediction per leaf model. The scorer draws each prediction's
	// class from the live distribution's CDF, then its correctness.
	rec.RecordRequests(start, met, actual)
	res.Requests += actual
	for _, leaf := range st.leaves {
		ni := insts[leaf]
		live := st.liveDists[leaf]
		stct := ni.FullStructure()
		for i := range nodes {
			if nodes[i].Index == leaf {
				stct = nodes[i].Structure
				break
			}
		}
		pm := &st.probMemo[leaf]
		if pm.probs == nil || pm.live != live || pm.version != ni.State.Version() || pm.stct != stct {
			// Overwrite the entry in place: a retrained leaf misses on
			// every job, so the vector is reused rather than reallocated.
			if pm.live != live {
				pm.cdfSeq = 0 // a new period's CDF
			}
			pm.live, pm.version, pm.stct, pm.probsSeq = live, ni.State.Version(), stct, 0
			if cap(pm.probs) < live.K() {
				pm.probs = make([]float64, live.K())
			}
			pm.probs = pm.probs[:live.K()]
			for c := range pm.probs {
				pm.probs[c] = ni.State.CorrectProb(c, live, stct)
			}
		}
		rec.RecordPredictions(start, actual, st.updated[leaf])
		l.score.add(start, actual, st.liveCDFs[leaf], pm)
	}
	return latency, nil
}

// perBatch is one node's per-batch inference latency under the node
// plan's structure at the given batch size and GPU fraction, through the
// profile's probe memo (bit-identical to Table.PerBatch). np.Index must
// be in range.
func (st *appState) perBatch(np sched.NodePlan, batch int, fraction float64) (simtime.Duration, error) {
	tb := st.costs.Tables()[np.Index]
	si, err := tb.StructIdx(np.Structure)
	if err != nil {
		return 0, err
	}
	return st.costs.PerBatch(np.Index, si, tb.BatchIdx(batch), fraction)
}

// nodeIndex returns the position of the named node in the instance, or
// -1 when it has none.
func nodeIndex(inst *app.Instance, name string) int {
	for i, ni := range inst.Nodes() {
		if ni.Node.Name == name {
			return i
		}
	}
	return -1
}

func fallbackBatch(actual int) int {
	for _, b := range profile.DefaultBatchSizes {
		if b >= actual {
			return b
		}
	}
	return profile.DefaultBatchSizes[len(profile.DefaultBatchSizes)-1]
}
