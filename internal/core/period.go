package core

import (
	"fmt"
	"time"

	"adainf/internal/drift"
	"adainf/internal/sched"
)

// DAGUpdateOverhead is the simulated cost of the periodical DAG update
// (Table 1: 4.2 s). It runs on the CPU and does not block GPU jobs.
const DAGUpdateOverhead = 4200 * time.Millisecond

// OnPeriodStart implements sched.Method: AdaInf's periodical data-drift
// impact detection and retraining-inference DAG generation (§3.2). The
// resulting DAGs steer PlanSession for the whole period. Under the /U
// ablation the DAG from the first period is kept forever.
func (s *Scheduler) OnPeriodStart(ctx *sched.PeriodContext) (*sched.PeriodPlan, error) {
	if s.dags == nil {
		s.dags = make(map[string]*sched.RIDag)
	}
	// Drift, pools, and impact degrees change at period boundaries:
	// drop the per-period memoization (structure/batch choices and the
	// pool distributions they read). reqFracCache survives — the SLO
	// inversion runs at full structures against the immutable profile,
	// so period boundaries cannot change its answers. The maps are
	// cleared in place, not remade — they regrow to the same size every
	// period; dropped jobBase values are kept for reuse.
	if s.reqFracCache == nil {
		s.reqFracCache = make(map[reqKey]float64)
	}
	if s.jobBaseCache == nil {
		s.jobBaseCache = make(map[baseKey]*jobBase)
	}
	for _, base := range s.jobBaseCache {
		s.spareBases = append(s.spareBases, base)
	}
	clear(s.jobBaseCache)
	clear(s.poolDists)
	for i := range ctx.Jobs {
		jr := &ctx.Jobs[i]
		name := jr.Instance.App.Name
		if s.opts.NoDAGUpdate {
			if _, ok := s.dags[name]; ok {
				continue // /U: keep the first period's DAG
			}
		}
		reports, err := s.detect.DetectApp(jr.Instance, drift.Config{}, ctx.Rand)
		if err != nil {
			return nil, fmt.Errorf("core: drift detection for %q: %w", name, err)
		}
		s.dags[name] = sched.BuildRIDag(jr.Instance.App, reports)
	}
	return &sched.PeriodPlan{
		Overhead:          DAGUpdateOverhead,
		OverheadBlocksGPU: false, // runs independently in the CPU (§5.1)
	}, nil
}

// DagFor returns the current retraining-inference DAG of an
// application, or nil before the first period hook ran.
func (s *Scheduler) DagFor(appName string) *sched.RIDag { return s.dags[appName] }
