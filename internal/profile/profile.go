// Package profile implements AdaInf's offline profiling (§3.3, §6) and
// the non-linear regression models the scheduler evaluates on-line.
//
// For every early-exit structure of every model of an application, the
// profiler measures per-batch inference latency across a grid of
// request batch sizes and GPU-space fractions by actually executing the
// structure on the simulated GPU (internal/gpu), then fits a power law
// latency(f) = A·f^B per batch size. Retraining latency per sample is
// profiled the same way. Schedulers never run the executor on the hot
// path — they evaluate these fitted profiles, mirroring how the real
// system schedules from offline V100 profiles.
package profile

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"adainf/internal/app"
	"adainf/internal/dnn"
	"adainf/internal/gpu"
	"adainf/internal/gpumem"
	"adainf/internal/mathx"
	"adainf/internal/simtime"
	"adainf/internal/telemetry"
)

// DefaultBatchSizes is the batch grid the paper sweeps (Figs. 8–10).
var DefaultBatchSizes = []int{1, 2, 4, 8, 16, 32, 64}

// DefaultFractions is the GPU-space grid (Fig. 9).
var DefaultFractions = []float64{0.25, 0.5, 0.75, 1.0}

// DefaultMemShare is the slice of partition memory available to one
// job — the rest of the partition's memory is held by the other
// concurrently running sessions' jobs. Calibrated so the optimal
// request batch size lands at 16 on a full GPU and shrinks to 8 and 4
// at 50% and 25% GPU space (Figs. 8–9), with CPU–GPU communication
// around a quarter of per-batch latency at the optimum (Fig. 11).
const DefaultMemShare = 0.04

// retrainBatch is the training batch size and retrainSamples the
// sample count of each retraining measurement.
const (
	retrainBatch   = 32
	retrainSamples = 64
)

// spec is the profiled GPU: the paper's V100.
var spec = gpu.V100()

// Config parameterizes profiling.
type Config struct {
	BatchSizes []int
	Fractions  []float64
	// Strategy is the execution strategy to profile under (§3.4
	// strategies change the profiles, so each variant profiles its
	// own).
	Strategy gpu.Strategy
	// NewPolicy creates a fresh eviction policy per profiled cell;
	// nil profiles under LRU.
	NewPolicy func() gpumem.Policy
	// Audit validates every profiled partition's memory accounting and
	// eviction order after each measurement (gpumem CheckInvariants).
	// Auditing never changes the built profile, and does not enter the
	// on-disk cache key — a warm cache satisfies an audited build.
	Audit bool
	// Telemetry, when non-nil, receives eviction events from the
	// profiled partitions and cache hit/miss events from cached builds.
	// Pure observability: it never changes the built profile and does
	// not enter the on-disk cache key. A tracing collector makes the
	// build serial so the JSONL event order stays deterministic.
	Telemetry *telemetry.Collector
}

func (c *Config) fillDefaults() {
	if len(c.BatchSizes) == 0 {
		c.BatchSizes = DefaultBatchSizes
	}
	if len(c.Fractions) == 0 {
		c.Fractions = DefaultFractions
	}
}

// axes returns the sorted batch and fraction axes every node table
// shares. A repeated value is an error naming its field, since each
// value is one position on a table axis.
func (c *Config) axes() ([]int, []float64, error) {
	batches, err := axis("BatchSizes", c.BatchSizes)
	if err != nil {
		return nil, nil, err
	}
	fracs, err := axis("Fractions", c.Fractions)
	return batches, fracs, err
}

func axis[T cmp.Ordered](field string, xs []T) ([]T, error) {
	s := slices.Clone(xs)
	slices.Sort(s)
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return nil, fmt.Errorf("profile: %s repeats %v", field, s[i])
		}
	}
	return s, nil
}

func (c *Config) policy() gpumem.Policy {
	if c.NewPolicy == nil {
		return gpumem.LRUPolicy{}
	}
	return c.NewPolicy()
}

// partition returns the partition config every profiled cell uses.
func (c *Config) partition() gpu.PartitionConfig {
	return gpu.PartitionConfig{
		MemShare: DefaultMemShare,
		Policy:   c.policy(),
		Audit:    c.Audit,
		Trace:    c.Telemetry,
	}
}

// RetrainProfile holds one node's per-sample training cost.
type RetrainProfile struct {
	// PerSample is the amortized per-sample training latency measured
	// at each fraction of the node table's fraction axis.
	PerSample []simtime.Duration
	// Scaling is the fitted per-sample latency(f) power law.
	Scaling mathx.PowerLaw
}

// Latency returns the modelled retraining latency for the sample count
// at the fraction.
func (rp *RetrainProfile) Latency(samples int, fraction float64) (simtime.Duration, error) {
	if samples < 0 {
		return 0, fmt.Errorf("profile: %d retraining samples", samples)
	}
	if fraction <= 0 {
		return 0, fmt.Errorf("profile: fraction %g", fraction)
	}
	if fraction > 1 {
		fraction = 1
	}
	per := rp.Scaling.At(fraction)
	return simtime.Duration(per * float64(samples)), nil
}

// SamplesWithinF returns how many samples, fractional ones included,
// can be retrained within the budget at the fraction — the inverse
// profile lookup behind AdaInf's retraining-setting choice (§3.3.2). A
// job's incremental retraining slice may cover only part of a sample's
// training step at a small GPU fraction; the fractional progress
// carries over to the application's next job rather than being lost.
func (rp *RetrainProfile) SamplesWithinF(budget simtime.Duration, fraction float64) float64 {
	if budget <= 0 || fraction <= 0 {
		return 0
	}
	if fraction > 1 {
		fraction = 1
	}
	per := rp.Scaling.At(fraction)
	if per <= 0 {
		return 0
	}
	return float64(budget) / per
}

// AppProfile aggregates profiles for every node of an application.
type AppProfile struct {
	App *app.App
	// tables holds one latency table per node, in App.Nodes order.
	tables []*Table
	// TypeReuse holds the mean reuse latency (ms) per data type
	// observed during profiling, used to seed the priority eviction
	// policy (§3.4.2).
	TypeReuse map[gpumem.ReuseClass]float64
	// MemDigest fingerprints the final state of every GPU memory
	// manager the profiler ran (gpumem.Manager.StateDigest, mixed in
	// partition order). It changes whenever the memory strategy or
	// eviction policy changes profiling behaviour, so downstream
	// memoization keyed on it cannot conflate profiles built under
	// different memory systems.
	MemDigest uint64
}

// Tables returns the per-node latency tables in App.Nodes order (the
// order of Instance.Nodes). They are read-only once built, so they are
// safe to share across goroutines.
func (ap *AppProfile) Tables() []*Table { return ap.tables }

// SetDefaultWorkers does nothing: a build always runs its work units on
// one worker per CPU (runtime.GOMAXPROCS), or serially when tracing.
//
// Deprecated: the profiler's worker count is no longer configurable;
// the call remains only so existing callers compile.
func SetDefaultWorkers(int) {}

// workerCount is the number of work units a build under this config
// measures concurrently: one per CPU, or one when tracing, because a
// shared JSONL sink is single-goroutine and its event order must stay
// deterministic.
func (c *Config) workerCount() int {
	if c.Telemetry.Tracing() {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// buildUnit is one independent measurement task of an app build: the
// full batch × fraction grid of one (node, structure) pair, or — with
// structIdx == -1 — one node's retraining sweep. Units share only
// immutable inputs (the app, the resolved architectures, the config)
// and write disjoint cells of their node's table; a unit profiles on
// the partition of the worker running it.
type buildUnit struct {
	nodeIdx   int
	structIdx int
	arch      *dnn.Arch
}

// unitResult is a unit's staged output: in exact measurement order,
// its contributions to the shared accumulators. Float sums are not
// associative and the MemDigest fold is order-sensitive, so
// contributions are replayed serially in canonical unit order rather
// than merged as per-unit partials — that replay is what makes a
// parallel build bit-identical to the serial one.
type unitResult struct {
	stage unitStage
	wall  time.Duration
	err   error
}

// unitStage records one unit's shared-accumulator contributions in the
// order the serial profiler would have produced them.
type unitStage struct {
	reuse   []reuseObs
	digests []uint64
}

type reuseObs struct {
	class gpumem.ReuseClass
	mean  float64
}

// appUnits enumerates the build's work units in canonical order: node
// by node in App.Nodes order, each node's structures shallowest exit
// first, then the node's retraining unit — exactly the serial
// profiler's measurement order.
func appUnits(tables []*Table, arches []*dnn.Arch) []buildUnit {
	var units []buildUnit
	for i, t := range tables {
		for j := range t.structures {
			units = append(units, buildUnit{nodeIdx: i, structIdx: j, arch: arches[i]})
		}
		units = append(units, buildUnit{nodeIdx: i, structIdx: -1, arch: arches[i]})
	}
	return units
}

// UnitCount returns how many work units profiling the app decomposes
// into (diagnostic; 0 when a node's model is unknown).
func UnitCount(a *app.App) int {
	n := 0
	for i := range a.Nodes {
		arch, ok := dnn.ByName(a.Nodes[i].Model)
		if !ok {
			return 0
		}
		n += len(dnn.EarlyExitStructures(arch, dnn.ExitStride)) + 1
	}
	return n
}

// parallelUnits runs fn(w, 0..n-1) over a bounded pool of workers
// w ∈ [0, workers), the calling goroutine being worker 0. Iterations
// must be independent: they may only write state owned by their index
// k or by their worker w. Serial when workers ≤ 1.
func parallelUnits(workers, n int, fn func(w, k int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for k := 0; k < n; k++ {
			fn(0, k)
		}
		return
	}
	var next atomic.Int64
	run := func(w int) {
		for {
			k := int(next.Add(1)) - 1
			if k >= n {
				return
			}
			fn(w, k)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			run(w)
		}(w)
	}
	run(0)
	wg.Wait()
}

// BuildAppProfile profiles every structure of every node of the
// application under the config by executing them on simulated
// partitions, each cell on one reset to a fresh state. It returns an
// error for an invalid app or config. The independent work units run
// on one worker per CPU, or serially under a tracing collector; each
// unit fills its own cells of its node's table and stages its
// shared-accumulator contributions, which are merged serially in
// canonical node/structure order, so the output is byte-identical to a
// serial build (cells, laws, MemDigest and TypeReuse alike).
func BuildAppProfile(a *app.App, cfg Config) (*AppProfile, error) {
	return buildAppProfile(a, cfg, cfg.workerCount())
}

// buildAppProfile is BuildAppProfile on the given number of workers.
func buildAppProfile(a *app.App, cfg Config, workers int) (*AppProfile, error) {
	cfg.fillDefaults()
	if err := a.Validate(); err != nil {
		return nil, err
	}
	batches, fracs, err := cfg.axes()
	if err != nil {
		return nil, err
	}
	// Resolve every node's architecture up front, serially in node
	// order, so unknown-model errors surface exactly as they always
	// have. Arch values are immutable during profiling, so units may
	// share them.
	arches := make([]*dnn.Arch, len(a.Nodes))
	ap := &AppProfile{
		App:       a,
		tables:    make([]*Table, len(a.Nodes)),
		TypeReuse: make(map[gpumem.ReuseClass]float64),
	}
	for i := range a.Nodes {
		arch, ok := dnn.ByName(a.Nodes[i].Model)
		if !ok {
			return nil, fmt.Errorf("profile: unknown model %q", a.Nodes[i].Model)
		}
		arches[i] = arch
		ap.tables[i] = newTable(a.Nodes[i].Name, dnn.EarlyExitStructures(arch, dnn.ExitStride), batches, fracs)
	}
	units := appUnits(ap.tables, arches)
	results := make([]unitResult, len(units))
	// One partition per worker, reset for every measured cell.
	parts := make([]gpu.Partition, max(workers, 1))
	parallelUnits(workers, len(units), func(w, k int) {
		u := &units[k]
		r := &results[k]
		start := time.Now()
		node, t := &a.Nodes[u.nodeIdx], ap.tables[u.nodeIdx]
		if u.structIdx < 0 {
			r.err = profileRetraining(a, node, t, u.arch, cfg, &parts[w], &r.stage)
		} else {
			r.err = profileStructure(a, node, t, u.structIdx, cfg, &parts[w], &r.stage)
		}
		r.wall = time.Since(start)
	})

	reuseSum := make(map[gpumem.ReuseClass]float64)
	reuseN := make(map[gpumem.ReuseClass]int)
	for k := range units {
		u := &units[k]
		r := &results[k]
		if r.err != nil {
			// Canonical order makes the lowest-indexed unit's error the
			// one a serial build would have returned.
			return nil, r.err
		}
		for _, d := range r.stage.digests {
			ap.MemDigest = ap.MemDigest*1099511628211 ^ d
		}
		for _, o := range r.stage.reuse {
			reuseSum[o.class] += o.mean
			reuseN[o.class]++
		}
		label := "retrain"
		if u.structIdx >= 0 {
			label = ap.tables[u.nodeIdx].structures[u.structIdx].String()
		}
		cfg.Telemetry.ProfileUnit(a.Name, a.Nodes[u.nodeIdx].Name, label, r.wall)
	}
	for class, sum := range reuseSum {
		ap.TypeReuse[class] = sum / float64(reuseN[class])
	}
	return ap, nil
}

// profileStructure measures structure si of the node's table over the
// config's grid, in config order, and fills its cells and laws.
func profileStructure(a *app.App, node *app.Node, t *Table, si int, cfg Config,
	part *gpu.Partition, stage *unitStage) error {

	st := t.structures[si]
	for _, batch := range cfg.BatchSizes {
		cell := si*t.nB + t.BatchIdx(batch)
		var fr, lat []float64
		for _, f := range cfg.Fractions {
			if err := part.Reset(spec, f, cfg.partition()); err != nil {
				return fmt.Errorf("profile: %s/%v: %w", node.Name, st, err)
			}
			ex := gpu.NewExecutor(part, cfg.Strategy)
			task := gpu.InferenceTask{
				App: a.Name, JobID: 1, Structure: st, Batch: batch, SLOms: a.SLOms(),
			}
			// Warm-up run loads parameters; the measured run reflects
			// steady state.
			warm, err := ex.RunInference(0, task)
			if err != nil {
				return fmt.Errorf("profile: %s/%v warm-up: %w", node.Name, st, err)
			}
			ex.FinishJob(a.Name)
			task.JobID = 2
			res, err := ex.RunInference(warm.End, task)
			if err != nil {
				return fmt.Errorf("profile: %s/%v measure: %w", node.Name, st, err)
			}
			ex.FinishJob(a.Name)
			// Reset accepted f, so it lies in (0, 1] and is on the axis.
			at := cell*len(t.fracs) + t.FracIdx(f)
			t.perBatch[at], t.comm[at] = res.Total(), res.Comm
			fr = append(fr, f)
			lat = append(lat, math.Max(float64(res.Total()), 1))
			stage.harvest(part.Mem())
			if cfg.Audit {
				if err := part.Mem().CheckInvariants(); err != nil {
					return fmt.Errorf("profile: %s/%v b=%d f=%g: %w", node.Name, st, batch, f, err)
				}
			}
		}
		law, err := mathx.FitPowerLaw(fr, lat)
		if err != nil {
			return fmt.Errorf("profile: %s/%v scaling fit: %w", node.Name, st, err)
		}
		t.laws[cell] = law
	}
	return nil
}

// profileRetraining measures the node's per-sample retraining cost at
// every fraction, in config order, into the table's retraining profile.
func profileRetraining(a *app.App, node *app.Node, t *Table, arch *dnn.Arch, cfg Config,
	part *gpu.Partition, stage *unitStage) error {

	rp := &t.retrain
	var fr, lat []float64
	for _, f := range cfg.Fractions {
		if err := part.Reset(spec, f, cfg.partition()); err != nil {
			return fmt.Errorf("profile: %s retraining: %w", node.Name, err)
		}
		ex := gpu.NewExecutor(part, cfg.Strategy)
		res, _, err := ex.RunRetraining(0, gpu.RetrainTask{
			App: a.Name, JobID: 1, Arch: arch,
			Samples: retrainSamples, BatchSize: retrainBatch, SLOms: a.SLOms(),
		})
		if err != nil {
			return fmt.Errorf("profile: %s retraining: %w", node.Name, err)
		}
		per := res.Total() / retrainSamples
		rp.PerSample[t.FracIdx(f)] = per
		fr = append(fr, f)
		lat = append(lat, math.Max(float64(per), 1))
		stage.harvest(part.Mem())
		if cfg.Audit {
			if err := part.Mem().CheckInvariants(); err != nil {
				return fmt.Errorf("profile: %s retraining f=%g: %w", node.Name, f, err)
			}
		}
	}
	law, err := mathx.FitPowerLaw(fr, lat)
	if err != nil {
		return fmt.Errorf("profile: %s retraining scaling fit: %w", node.Name, err)
	}
	rp.Scaling = law
	return nil
}

// harvest stages one profiled partition's reuse-time means and memory
// fingerprint. The serial merge in BuildAppProfile later replays the
// staged sequence: per-class sums accumulate in exactly the serial
// order (float addition is not associative) and the digest fold keeps
// partition order significant (FNV-style mix).
func (st *unitStage) harvest(m *gpumem.Manager) {
	for _, kind := range []gpumem.Kind{gpumem.KindParam, gpumem.KindIntermediate} {
		for _, phase := range []gpumem.Phase{gpumem.PhaseInference, gpumem.PhaseRetraining} {
			class := gpumem.ReuseClass{Kind: kind, Phase: phase}
			if mean := m.TypeReuseMeanMs(class); mean >= 0 {
				st.reuse = append(st.reuse, reuseObs{class: class, mean: mean})
			}
		}
	}
	st.digests = append(st.digests, m.StateDigest())
}
