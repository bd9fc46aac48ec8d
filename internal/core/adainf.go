// Package core implements the AdaInf scheduler — the paper's primary
// contribution (§3). For every 5 ms time session it:
//
//  1. divides the session's GPU space among the applications in
//     proportion to the space each needs to meet its SLO (§3.3.1),
//     computed from offline profiles and the fitted non-linear scaling
//     laws;
//  2. picks the optimal request batch size for each job, re-adjusting
//     after space allocation and structure selection (Observations 5–6);
//  3. chooses an early-exit structure per model — the cheapest whose
//     accuracy clears the application threshold A_m — to leave more
//     SLO time for retraining (§3.3.2);
//  4. gives the SLO time left after inference to the models'
//     retraining tasks, split by drift impact degree, and converts each
//     retraining budget into a retraining-sample count via the profiled
//     retraining latency (incremental retraining, §3.3.2).
//
// The ablation variants of §5.2 (/I /S /E) are switches on Options;
// the memory-strategy variants (/M1 /M2) live in the serving engine's
// execution configuration, and /U in its DAG-update policy.
//
// PlanSession plans every session in full, serially; only the
// per-period caches described on Scheduler let it skip work.
package core

import (
	"math"
	"time"

	"adainf/internal/app"
	"adainf/internal/cluster"
	"adainf/internal/dist"
	"adainf/internal/dnn"
	"adainf/internal/drift"
	"adainf/internal/sched"
	"adainf/internal/simtime"
)

// DefaultOverhead is the scheduling lead the paper measures for AdaInf
// (Table 1): plans made at τ apply to [τ+2, τ+7) ms.
const DefaultOverhead = 2 * time.Millisecond

// Options configures the scheduler and its ablation variants.
type Options struct {
	// EqualRetrainSplit divides spare time evenly across retraining
	// tasks instead of by impact degree (AdaInf/I).
	EqualRetrainSplit bool
	// EqualSpaceSplit divides GPU space evenly across jobs instead of
	// by SLO need (AdaInf/S).
	EqualSpaceSplit bool
	// FullStructureOnly disables early-exit structures (AdaInf/E).
	FullStructureOnly bool
	// NoDAGUpdate freezes the first period's retraining-inference DAG
	// and impact degrees (AdaInf/U).
	NoDAGUpdate bool
	// PreferEarlyExit serves every node through the cheapest structure
	// above its threshold even when the node is not retraining — the
	// Early-w/o comparison arm of Fig. 7.
	PreferEarlyExit bool
	// Label overrides Name() for variant reporting.
	Label string
}

// SetDefaultPlanWorkers does nothing: PlanSession is serial.
//
// Deprecated: the planner's worker pool was removed; the call remains
// only so existing callers compile.
func SetDefaultPlanWorkers(int) {}

// Scheduler is the AdaInf session scheduler.
type Scheduler struct {
	opts Options
	dags map[string]*sched.RIDag

	// Caches, coarsest to finest:
	//
	// reqFracCache holds the §3.3.1 SLO-space inversion per (app,
	// padded requests). It is computed at full structures from the
	// immutable profile only, so it survives periods.
	//
	// jobBaseCache holds the per-job structure/batch choice per (app,
	// requests, quantized fraction). Structure choice reads the model
	// states and the retraining pools, so it is dropped every
	// OnPeriodStart — and deliberately not refreshed within a period.
	//
	// poolDists holds each node's retraining-pool distribution, which
	// structure choice reads; the pool only changes at AdvancePeriod, so
	// it too is dropped every OnPeriodStart.
	//
	// Individual latency probes go through the jobs' Costs memo, which
	// the serving runtime supplies.
	reqFracCache map[reqKey]float64
	jobBaseCache map[baseKey]*jobBase
	poolDists    map[*app.NodeInstance]*dist.Categorical

	// Reusable planning storage. PlanSession runs every 5 ms session;
	// these arenas keep its steady state allocation-free. The returned
	// plan aliases them, which is why sched.Scheduler documents that a
	// plan is only valid until the next PlanSession call. jobs is the
	// padded, DAG-bound copy of the session's jobs, so the caller's jobs
	// stay untouched; structs is structure-choice scratch.
	jobs      []sched.JobRequest
	structs   []dnn.Structure
	required  []float64
	fractions []float64
	plan      sched.SessionPlan
	nodeBuf   []sched.NodePlan

	// spareBases recycles the jobBase values dropped at period
	// boundaries (their slices dominate the planner's steady-state
	// allocations).
	spareBases []*jobBase

	// detect holds the period-start drift detection's PCA rows and
	// score buffer; each run builds its own scheduler, so it is never
	// shared across goroutines.
	detect drift.Scratch
}

type reqKey struct {
	app      string
	requests int
}

type baseKey struct {
	app       string
	requests  int
	fracMilli int
}

// fracKey quantizes a GPU fraction to the cache key's 1e-3 grid.
// Rounding (not truncation) keeps near-identical fractions on the same
// side of a grid boundary: 0.299999... and 0.3 must share an entry.
func fracKey(fraction float64) int {
	return int(math.Round(fraction * 1000))
}

// resizeSlice returns a zeroed slice of length n, reusing the backing
// array when large enough.
func resizeSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// jobBase is the cached inference-side plan of a job: everything
// except the retraining assignment, which depends on the (draining)
// sample pool and is recomputed every session. nodes carry each node's
// structure and inference time, with no retraining.
type jobBase struct {
	batch      int
	nodes      []sched.NodePlan
	inferTotal simtime.Duration
}

// New returns an AdaInf scheduler with the options.
func New(opts Options) *Scheduler {
	return &Scheduler{
		opts:         opts,
		dags:         make(map[string]*sched.RIDag),
		reqFracCache: make(map[reqKey]float64),
		jobBaseCache: make(map[baseKey]*jobBase),
		poolDists:    make(map[*app.NodeInstance]*dist.Categorical),
	}
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string {
	if s.opts.Label != "" {
		return s.opts.Label
	}
	return "AdaInf"
}

// SteadyStatePlanning implements sched.SteadyStatePlanner: PlanSession
// depends only on the GPU share, the jobs' request counts, and the
// per-period caches filled in OnPeriodStart — never on the session
// index or start instant — so its fractions audit against the current
// share strictly.
func (s *Scheduler) SteadyStatePlanning() {}

// PlanSession implements sched.Scheduler. The returned plan aliases the
// scheduler's reusable storage and is valid until the next PlanSession
// call (see sched.Scheduler).
func (s *Scheduler) PlanSession(ctx *sched.SessionContext) (*sched.SessionPlan, error) {
	s.plan = sched.SessionPlan{
		Session:  ctx.Session,
		Overhead: DefaultOverhead,
		Jobs:     s.plan.Jobs[:0],
	}
	if len(ctx.Jobs) == 0 {
		return &s.plan, nil
	}
	// Copy the jobs into reused storage, bind each copy to its current
	// retraining-inference DAG (built by OnPeriodStart) unless the caller
	// supplied one explicitly, and plan against a conservative request
	// quantile. The caller's jobs are never written.
	s.jobs = append(s.jobs[:0], ctx.Jobs...)
	totalNodes := 0
	for i := range s.jobs {
		jr := &s.jobs[i]
		if jr.Dag == nil {
			jr.Dag = s.dags[jr.Instance.App.Name]
		}
		jr.Requests = sched.PadRequests(jr.Requests)
		totalNodes += len(jr.Instance.Nodes())
	}
	return s.planFull(s.jobs, ctx.GPUShare, totalNodes)
}

// planFull computes the session plan from the bound jobs at the
// session's GPU share, filling the per-period caches on a miss.
func (s *Scheduler) planFull(jobs []sched.JobRequest, share float64, totalNodes int) (*sched.SessionPlan, error) {
	plan := &s.plan
	// Pre-grow the node arena: once sliced, the per-job sub-slices must
	// not be invalidated by a later append's reallocation.
	if cap(s.nodeBuf) < totalNodes {
		s.nodeBuf = make([]sched.NodePlan, 0, totalNodes)
	}
	s.nodeBuf = s.nodeBuf[:0]
	if cap(plan.Jobs) < len(jobs) {
		plan.Jobs = make([]sched.JobPlan, 0, len(jobs))
	}

	// Step 1 (§3.3.1): per job, optimal batch at full GPU and the GPU
	// space required to meet the SLO.
	s.required = resizeSlice(s.required, len(jobs))
	required := s.required
	var totalRequired float64
	active := 0
	for i := range jobs {
		jr := &jobs[i]
		if jr.Requests <= 0 {
			continue
		}
		key := reqKey{app: jr.Instance.App.Name, requests: jr.Requests}
		req, ok := s.reqFracCache[key]
		if !ok {
			var err error
			s.structs = sched.AppendFullStructures(s.structs[:0], jr)
			if req, err = sched.RequiredFraction(jr, s.structs, cluster.MinFraction); err != nil {
				return nil, err
			}
			s.reqFracCache[key] = req
		}
		required[i] = req
		totalRequired += req
		active++
	}

	// Step 2: split the session's GPU amount.
	s.fractions = resizeSlice(s.fractions, len(jobs))
	fractions := s.fractions
	var totalAllocated float64
	for i := range jobs {
		if jobs[i].Requests <= 0 {
			continue
		}
		var f float64
		if s.opts.EqualSpaceSplit || totalRequired == 0 {
			f = share / float64(active)
		} else {
			f = share * required[i] / totalRequired
		}
		if f > 1 {
			f = 1
		}
		if f < cluster.MinFraction {
			f = cluster.MinFraction
		}
		fractions[i] = f
		totalAllocated += f
	}
	// Clamping can oversubscribe the session's GPU amount (a flooring
	// raised some job without shrinking the others). Renormalize the
	// headroom above the floors so Σ fractions ≤ GPUShare again; when
	// even the floors alone oversubscribe, fall back to an equal split
	// of the share (the floor is unsatisfiable this session).
	if share > 0 && totalAllocated > share {
		floorTotal := float64(active) * cluster.MinFraction
		if floorTotal >= share {
			f := share / float64(active)
			for i := range jobs {
				if jobs[i].Requests > 0 {
					fractions[i] = f
				}
			}
		} else {
			scale := (share - floorTotal) / (totalAllocated - floorTotal)
			for i := range jobs {
				if jobs[i].Requests > 0 {
					fractions[i] = cluster.MinFraction + (fractions[i]-cluster.MinFraction)*scale
				}
			}
		}
	}

	// Steps 3–5 (§3.3.2): per job, choose structures, re-adjust batch,
	// and divide SLO time between inference and retraining. The
	// structure/batch search (jobBase) is the expensive part and is
	// cached; the retraining assignment reads the draining pools and is
	// recomputed every session.
	for i := range jobs {
		jr := &jobs[i]
		if jr.Requests <= 0 {
			plan.Jobs = append(plan.Jobs, sched.JobPlan{App: jr.Instance.App.Name})
			continue
		}
		key := baseKey{app: jr.Instance.App.Name, requests: jr.Requests, fracMilli: fracKey(fractions[i])}
		base, ok := s.jobBaseCache[key]
		if !ok {
			var err error
			if base, err = s.computeJobBase(jr, fractions[i]); err != nil {
				return nil, err
			}
			s.jobBaseCache[key] = base
		}
		plan.Jobs = append(plan.Jobs, sched.JobPlan{})
		s.finishJob(jr, fractions[i], base, &plan.Jobs[len(plan.Jobs)-1])
	}
	return plan, nil
}

// finishJob fills jp from the job's cached inference-side base and
// assigns retraining time. Node plans are sliced out of the scheduler's
// pre-grown arena.
func (s *Scheduler) finishJob(jr *sched.JobRequest, fraction float64, base *jobBase, jp *sched.JobPlan) {
	*jp = sched.JobPlan{
		App:       jr.Instance.App.Name,
		Fraction:  fraction,
		Batch:     base.batch,
		InferTime: base.inferTotal,
	}
	start := len(s.nodeBuf)
	s.nodeBuf = append(s.nodeBuf, base.nodes...)
	nodePlans := s.nodeBuf[start:len(s.nodeBuf):len(s.nodeBuf)]

	// Spare time within the SLO goes to retraining:
	// T_r = L_s − Σ l_k − scheduling lead, with a small safety margin
	// held back so bursts beyond the planning quantile do not push the
	// job past its SLO.
	spare := simtime.Duration(float64(jr.Instance.App.SLO-base.inferTotal-DefaultOverhead) * 0.9)
	if spare < 0 {
		spare = 0
	}
	jp.RetrainTime = s.assignRetraining(jr, nodePlans, spare, fraction)
	jp.Nodes = nodePlans
}

// computeJobBase is the step-3 cache-miss computation: structure per
// node, batch size, inference times at the fraction. The caller owns
// the cache insert.
func (s *Scheduler) computeJobBase(jr *sched.JobRequest, fraction float64) (*jobBase, error) {
	var base *jobBase
	if n := len(s.spareBases); n > 0 {
		base, s.spareBases = s.spareBases[n-1], s.spareBases[:n-1]
	} else {
		base = new(jobBase)
	}
	s.structs = resizeSlice(s.structs, len(jr.Instance.Nodes()))
	if err := s.chooseStructures(jr, fraction, s.structs); err != nil {
		return nil, err
	}
	batch, _, err := sched.BestBatch(jr, s.structs, fraction)
	if err != nil {
		return nil, err
	}
	base.batch = batch
	// Inference time: parallel DAG tasks are time-sliced in the job's
	// space, so the job's inference time is the sum over tasks (§3.3.2).
	base.nodes, base.inferTotal, err = sched.AppendNodePlans(base.nodes[:0], jr, s.structs, batch, fraction)
	if err != nil {
		return nil, err
	}
	return base, nil
}

// assignRetraining splits the spare time across retraining vertices and
// converts budgets to sample counts. It returns the total retraining
// time actually assigned.
func (s *Scheduler) assignRetraining(jr *sched.JobRequest, nodePlans []sched.NodePlan, spare simtime.Duration, fraction float64) simtime.Duration {
	if spare <= 0 || jr.Dag == nil || len(jr.Dag.Impact) == 0 {
		return 0
	}
	totalImpact := jr.Dag.TotalImpact()
	nRetrain := len(jr.Dag.Impact)
	var assigned simtime.Duration
	for i := range nodePlans {
		np := &nodePlans[i]
		impact, ok := jr.Dag.Impact[np.Node]
		if !ok {
			continue
		}
		var budget simtime.Duration
		if s.opts.EqualRetrainSplit || totalImpact == 0 {
			budget = spare / simtime.Duration(nRetrain)
		} else {
			budget = simtime.Duration(float64(spare) * impact / totalImpact)
		}
		rp := jr.Profile.Tables()[np.Index].Retrain()
		remaining := jr.Instance.Nodes()[np.Index].RemainingSamples()
		if remaining <= 0 || budget <= 0 {
			continue
		}
		// Don't hold GPU time beyond what the unused pool can absorb.
		if maxLat, err := rp.Latency(remaining, fraction); err == nil && maxLat < budget {
			budget = maxLat
		}
		samplesF := rp.SamplesWithinF(budget, fraction)
		if samplesF <= 0 {
			continue
		}
		// RetrainSamples is the scheduler's whole-sample estimate;
		// fractional training progress carries across jobs in the
		// runtime (incremental retraining trains "as much as possible
		// every time", §1).
		np.RetrainSamples = int(samplesF + 0.5)
		np.RetrainTime = budget
		assigned += budget
	}
	return assigned
}

// chooseStructures picks each node's structure into out (positional,
// node order): the full structure when the node does not retrain this
// period (or under /E), otherwise the fastest structure whose accuracy
// clears the node threshold A_m. Latency comparisons go through the
// job's profile tables and its probe memo, when supplied.
func (s *Scheduler) chooseStructures(jr *sched.JobRequest, fraction float64, out []dnn.Structure) error {
	tables := jr.Tables()
	for i, ni := range jr.Instance.Nodes() {
		full := ni.FullStructure()
		if s.opts.FullStructureOnly || !s.nodeStateMatters(jr, ni) {
			out[i] = full
			continue
		}
		poolDist, err := s.poolDistFor(ni)
		if err != nil {
			return err
		}
		t := tables[i]
		refBi := t.BatchIdx(referenceBatch)
		best := full
		bestPer, err := jr.PerBatch(i, t.FullIdx(), refBi, fraction)
		if err != nil {
			return err
		}
		for _, st := range ni.Structures {
			if st.IsFull() {
				continue
			}
			// Stored structure accuracy, refreshed each period on the
			// S most-divergent new samples (§3.3.2) — modelled as the
			// structure's expected accuracy on the pool distribution.
			if ni.State.AccuracyWith(poolDist, st) < ni.Node.AccThreshold {
				continue
			}
			si, err := t.StructIdx(st)
			if err != nil {
				return err
			}
			per, err := jr.PerBatch(i, si, refBi, fraction)
			if err != nil {
				return err
			}
			if per < bestPer {
				best, bestPer = st, per
			}
		}
		out[i] = best
	}
	return nil
}

// referenceBatch is the batch size used to compare structure latencies
// before the final batch re-adjustment.
const referenceBatch = 8

// nodeStateMatters reports whether the node's model state enters the
// plan — exactly when chooseStructures consults AccuracyWith for it.
func (s *Scheduler) nodeStateMatters(jr *sched.JobRequest, ni *app.NodeInstance) bool {
	if s.opts.FullStructureOnly {
		return false
	}
	return s.opts.PreferEarlyExit || (jr.Dag != nil && jr.Dag.NeedsRetrain(ni.Node.Name))
}

// poolDistFor returns the node's retraining-pool distribution, computed
// at most once per period (NodeInstance.PoolDist allocates a fresh
// distribution per call, and the pool only changes at AdvancePeriod).
func (s *Scheduler) poolDistFor(ni *app.NodeInstance) (*dist.Categorical, error) {
	if d, ok := s.poolDists[ni]; ok {
		return d, nil
	}
	d, err := ni.PoolDist()
	if err != nil {
		return nil, err
	}
	s.poolDists[ni] = d
	return d, nil
}
