// Package baselines implements the comparison methods of §4:
//
//   - Ekya [3]: continual learning with whole-job retraining at the
//     start of each 50 s period and an accuracy-maximizing
//     resource-transfer heuristic;
//   - Scrooge [10] and Scrooge*: optimization-based inference serving
//     with retraining offloaded to the cloud over a ~20 Gbps WAN.
package baselines

import (
	"fmt"
	"math"
	"sort"
	"time"

	"adainf/internal/cluster"
	"adainf/internal/dnn"
	"adainf/internal/sched"
	"adainf/internal/simtime"
)

// EkyaOverhead is Ekya's period scheduling time (Table 1: 8.4 s): the
// heuristic traverses every pair of tasks to check whether moving
// resource between them improves average accuracy.
const EkyaOverhead = 8400 * time.Millisecond

// Ekya is the continual-learning baseline. Each period it retrains
// every model on its entire pool (no drift awareness, no incremental
// retraining): inference requests arriving before a model's retraining
// completes use the stale model (Observation 1). GPU space within a
// session is divided evenly among jobs — Ekya maximizes accuracy, not
// SLO fulfillment.
type Ekya struct {
	// sessionCache memoizes the per-job session decision. Ekya serves
	// every request through the full structure and never retrains
	// within a session, so the decision depends only on the static
	// profiles — it is valid for the whole run, not just one period.
	sessionCache map[ekyaKey]*ekyaBase
	// Reusable plan storage (see sched.Scheduler: a plan is valid only
	// until the next PlanSession call), and jobBaseFor's scratch.
	plan    sched.SessionPlan
	structs []dnn.Structure
}

// ekyaKey keys the session memo on the exact fraction's bits: the
// memoized timings were computed at that fraction, so two fractions
// that merely round alike must not share an entry.
type ekyaKey struct {
	app      string
	requests int
	fracBits uint64
}

// ekyaBase is the memoized inference plan of one job: batch size and
// per-node structures/times at the allocated fraction.
type ekyaBase struct {
	batch      int
	nodes      []sched.NodePlan
	inferTotal simtime.Duration
}

// NewEkya returns an Ekya baseline.
func NewEkya() *Ekya {
	return &Ekya{sessionCache: make(map[ekyaKey]*ekyaBase)}
}

// Name implements sched.Scheduler.
func (e *Ekya) Name() string { return "Ekya" }

// SteadyStatePlanning implements sched.SteadyStatePlanner: PlanSession
// is an even split of the GPU share over the jobs with requests,
// memoized per (app, requests, share) — independent of the session
// index and start instant, so its fractions audit against the current
// share strictly. (Scrooge deliberately does not implement the marker:
// its plan cache is keyed by a window derived from the session start,
// so a cached plan may carry fractions sized for an earlier share.)
func (e *Ekya) SteadyStatePlanning() {}

// OnPeriodStart implements sched.Method: the resource-transfer
// heuristic. Candidate retraining shares are scored by the estimated
// time-weighted average accuracy over the period — retraining finishes
// sooner with more GPU (more requests enjoy the updated model), but
// leaves less space for inference, which Ekya's estimator only values
// through accuracy, not latency.
func (e *Ekya) OnPeriodStart(ctx *sched.PeriodContext) (*sched.PeriodPlan, error) {
	type task struct {
		app, node string
		idx       int // the node's position in the app
		samples   int
		jr        *sched.JobRequest
	}
	var tasks []task
	for i := range ctx.Jobs {
		jr := &ctx.Jobs[i]
		for k, ni := range jr.Instance.Nodes() {
			// Ekya retrains every model on the full pool (§3.2).
			tasks = append(tasks, task{
				app: jr.Instance.App.Name, node: ni.Node.Name, idx: k,
				samples: ni.RemainingSamples(), jr: jr,
			})
		}
	}
	if len(tasks) == 0 {
		return &sched.PeriodPlan{Overhead: EkyaOverhead}, nil
	}

	// Completion schedule for a candidate retraining share: tasks run
	// on lanes of at most one GPU each, longest first. Each task
	// occupies one lane's fraction only while it runs.
	schedule := func(share float64) ([]simtime.Duration, []simtime.Duration, float64, simtime.Duration) {
		gpus := share * ctx.GPUs
		lanes := int(gpus)
		frac := 1.0
		if lanes < 1 {
			lanes = 1
			frac = gpus
			if frac < cluster.MinFraction {
				frac = cluster.MinFraction
			}
		}
		type entry struct {
			idx int
			dur simtime.Duration
		}
		entries := make([]entry, len(tasks))
		for i, t := range tasks {
			rp := t.jr.Profile.Tables()[t.idx].Retrain()
			d, err := rp.Latency(t.samples, frac)
			if err != nil {
				d = 0
			}
			entries[i] = entry{idx: i, dur: d}
		}
		sort.Slice(entries, func(a, b int) bool { return entries[a].dur > entries[b].dur })
		laneEnd := make([]simtime.Duration, lanes)
		starts := make([]simtime.Duration, len(tasks))
		completions := make([]simtime.Duration, len(tasks))
		var makespan simtime.Duration
		for _, en := range entries {
			// Greedy: place on the emptiest lane.
			best := 0
			for l := 1; l < lanes; l++ {
				if laneEnd[l] < laneEnd[best] {
					best = l
				}
			}
			starts[en.idx] = laneEnd[best]
			laneEnd[best] += en.dur
			completions[en.idx] = laneEnd[best]
			if laneEnd[best] > makespan {
				makespan = laneEnd[best]
			}
		}
		return completions, starts, frac, makespan
	}

	// Estimated average accuracy for a candidate share.
	score := func(share float64) float64 {
		completions, _, _, _ := schedule(share)
		var sum float64
		for i, t := range tasks {
			ni := t.jr.Instance.Nodes()[t.idx]
			poolDist, err := ni.PoolDist()
			if err != nil {
				continue
			}
			oldAcc := ni.State.Accuracy(poolDist)
			proj := ni.State.Clone()
			proj.Train(poolDist, float64(t.samples))
			newAcc := proj.Accuracy(poolDist)
			w := float64(completions[i]) / float64(ctx.Length)
			if w > 1 {
				w = 1
			}
			sum += w*oldAcc + (1-w)*newAcc
		}
		return sum / float64(len(tasks))
	}

	// Hill-climb over candidate shares (the paper's heuristic moves
	// resources between tasks pairwise; a share sweep captures the
	// same search space at our granularity).
	bestShare, bestScore := 0.1, score(0.1)
	for share := 0.2; share <= 0.9; share += 0.1 {
		if sc := score(share); sc > bestScore {
			bestShare, bestScore = share, sc
		}
	}

	// Ekya picks a retraining configuration (iteration count) per task
	// so the whole retraining fits comfortably in the period — the
	// paper measures its retraining completing at 20–23 s of the 50 s
	// period (Fig. 7b). Scale the sample counts to that budget.
	if _, _, _, makespan := schedule(bestShare); makespan > 0 {
		budget := simtime.Duration(float64(ctx.Length) * 0.45)
		if makespan > budget {
			scale := float64(budget) / float64(makespan)
			for i := range tasks {
				tasks[i].samples = int(float64(tasks[i].samples) * scale)
			}
		}
	}

	completions, starts, frac, _ := schedule(bestShare)
	plan := &sched.PeriodPlan{Overhead: EkyaOverhead}
	for i, t := range tasks {
		if t.samples <= 0 {
			continue
		}
		plan.Retrains = append(plan.Retrains, sched.PeriodRetrain{
			App: t.app, Node: t.node, Samples: t.samples,
			// Retraining starts after the scheduling decision lands;
			// the task holds its lane's fraction only while running.
			Completion:  ctx.Start.Add(EkyaOverhead + completions[i]),
			GPUFraction: frac,
			Busy:        completions[i] - starts[i],
		})
	}
	return plan, nil
}

// PlanSession implements sched.Scheduler: GPU space is divided evenly
// among the session's jobs; the request batch size is optimized per
// job; structures stay full and no incremental retraining happens. The
// returned plan aliases reusable storage (see sched.Scheduler).
func (e *Ekya) PlanSession(ctx *sched.SessionContext) (*sched.SessionPlan, error) {
	e.plan = sched.SessionPlan{Session: ctx.Session, Jobs: e.plan.Jobs[:0]}
	plan := &e.plan
	if cap(plan.Jobs) < len(ctx.Jobs) {
		plan.Jobs = make([]sched.JobPlan, 0, len(ctx.Jobs))
	}
	active := 0
	for i := range ctx.Jobs {
		if ctx.Jobs[i].Requests > 0 {
			active++
		}
	}
	for i := range ctx.Jobs {
		jr := &ctx.Jobs[i]
		if jr.Requests <= 0 {
			plan.Jobs = append(plan.Jobs, sched.JobPlan{App: jr.Instance.App.Name})
			continue
		}
		f := ctx.GPUShare / float64(active)
		if f > 1 {
			f = 1
		}
		if f < cluster.MinFraction {
			f = cluster.MinFraction
		}
		base, err := e.jobBaseFor(jr, f)
		if err != nil {
			return nil, err
		}
		plan.Jobs = append(plan.Jobs, sched.JobPlan{
			App:       jr.Instance.App.Name,
			Fraction:  f,
			Batch:     base.batch,
			Nodes:     base.nodes,
			InferTime: base.inferTotal,
		})
	}
	return plan, nil
}

// jobBaseFor computes (or recalls) a job's session decision at the
// fraction.
func (e *Ekya) jobBaseFor(jr *sched.JobRequest, f float64) (*ekyaBase, error) {
	key := ekyaKey{
		app:      jr.Instance.App.Name,
		requests: jr.Requests,
		fracBits: math.Float64bits(f),
	}
	if e.sessionCache == nil {
		e.sessionCache = make(map[ekyaKey]*ekyaBase)
	}
	if base, ok := e.sessionCache[key]; ok {
		return base, nil
	}
	e.structs = sched.AppendFullStructures(e.structs[:0], jr)
	batch, _, err := sched.BestBatch(jr, e.structs, f)
	if err != nil {
		return nil, fmt.Errorf("baselines: ekya batch: %w", err)
	}
	base := &ekyaBase{batch: batch}
	if base.nodes, base.inferTotal, err = sched.AppendNodePlans(nil, jr, e.structs, batch, f); err != nil {
		return nil, err
	}
	e.sessionCache[key] = base
	return base, nil
}
