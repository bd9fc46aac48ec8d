package sched

import (
	"math/rand"

	"adainf/internal/simtime"
)

// PeriodContext is what a method sees at the start of each 50 s period.
type PeriodContext struct {
	// Period is the period index.
	Period int
	// Start is the period's start instant.
	Start simtime.Instant
	// Length is the period duration.
	Length simtime.Duration
	// GPUs is the edge server's total GPU amount.
	GPUs float64
	// Jobs are the applications; Requests holds the predicted request
	// count for the whole period (used by period-level planners).
	Jobs []JobRequest
	// Rand drives any stochastic decisions, seeded by the experiment.
	// serving leaves it nil: its run RNG belongs to the goroutine that
	// scores predictions, and no method in this module reads the field.
	Rand *rand.Rand
}

// PeriodRetrain is one whole-pool retraining task scheduled for the
// period by a continual-learning baseline (Ekya retrains on the edge,
// Scrooge in the cloud).
type PeriodRetrain struct {
	// App and Node identify the model.
	App  string
	Node string
	// Samples is the retraining sample count.
	Samples int
	// Completion is when the retrained model becomes usable by
	// inference; requests served before it use the stale model
	// (Observation 1).
	Completion simtime.Instant
	// GPUFraction is the edge GPU space occupied while retraining
	// (zero for cloud retraining).
	GPUFraction float64
	// Busy is how long the edge GPU fraction stays occupied.
	Busy simtime.Duration
	// OnCloud marks cloud-offloaded retraining (Scrooge).
	OnCloud bool
}

// PeriodPlan is a method's period-level output.
type PeriodPlan struct {
	// Retrains are the whole-pool retraining tasks (empty for AdaInf,
	// whose retraining is incremental inside session jobs).
	Retrains []PeriodRetrain
	// Overhead is the decision time (Table 1: Ekya 8.4 s, AdaInf 4.2 s
	// DAG update — on the CPU, not blocking GPU jobs).
	Overhead simtime.Duration
	// OverheadBlocksGPU reports whether the overhead stalls job
	// scheduling (AdaInf's DAG update runs independently on the CPU
	// and does not).
	OverheadBlocksGPU bool
	// EdgeCloudTransfer and EdgeCloudBytes account the WAN traffic of
	// cloud retraining (Table 1).
	EdgeCloudTransfer simtime.Duration
	EdgeCloudBytes    int64
}

// Method is a complete serving method: period-level continual-learning
// decisions plus per-session resource allocation.
type Method interface {
	Scheduler
	// OnPeriodStart runs drift detection / retraining planning for the
	// period that is starting.
	OnPeriodStart(ctx *PeriodContext) (*PeriodPlan, error)
}

// SteadyStatePlanner marks a Method whose PlanSession output is a pure
// function of the session's planning inputs: the GPU share, the jobs'
// request counts, and the referenced instance/profile state. It must not
// depend on the session index, the session start instant, or any hidden
// state that evolves across calls (internal memoization is fine as long
// as a hit returns exactly what the miss would have computed). The
// marker gates the auditor's strict share-sum check
// (audit.Params.StrictShare): such a method's fractions must sum within
// the current session's share, since no plan carries over from an
// earlier, larger one.
type SteadyStatePlanner interface {
	// SteadyStatePlanning is a no-op marker method.
	SteadyStatePlanning()
}
