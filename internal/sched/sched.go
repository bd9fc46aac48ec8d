// Package sched defines the types shared by every scheduler in the
// simulator: session contexts, job plans, and the retraining-inference
// DAG of §3.2 (Fig. 15).
package sched

import (
	"fmt"
	"math"

	"adainf/internal/app"
	"adainf/internal/dnn"
	"adainf/internal/drift"
	"adainf/internal/profile"
	"adainf/internal/simtime"
)

// Phase labels a retraining-inference DAG vertex.
type Phase uint8

const (
	// PhaseRetrain marks retraining vertices.
	PhaseRetrain Phase = iota
	// PhaseInfer marks inference vertices.
	PhaseInfer
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	if p == PhaseRetrain {
		return "retrain"
	}
	return "infer"
}

// RIVertex is one vertex of the retraining-inference DAG.
type RIVertex struct {
	// Node is the application DAG node the vertex belongs to.
	Node string
	// Phase says whether the vertex retrains or serves the node.
	Phase Phase
	// ImpactDegree is the drift impact degree attribute of retraining
	// vertices (zero for inference vertices).
	ImpactDegree float64
}

// RIDag is the retraining-inference DAG of one application for one
// period: every model contributes an inference vertex; models impacted
// by drift additionally contribute a retraining vertex pointing at
// their inference vertex (§3.2, Fig. 15).
type RIDag struct {
	App *app.App
	// Vertices are in execution order: a node's retraining vertex
	// immediately precedes its inference vertex, and application DAG
	// order is preserved.
	Vertices []RIVertex
	// Impact maps node name → impact degree for impacted nodes.
	Impact map[string]float64
}

// BuildRIDag constructs the period's retraining-inference DAG from the
// drift reports (nil reports mean no node retrains).
func BuildRIDag(a *app.App, reports map[string]drift.Report) *RIDag {
	d := &RIDag{App: a, Impact: make(map[string]float64)}
	for _, n := range a.Nodes {
		if rep, ok := reports[n.Name]; ok && rep.Impacted && rep.ImpactDegree > 0 {
			d.Impact[n.Name] = rep.ImpactDegree
			d.Vertices = append(d.Vertices, RIVertex{
				Node: n.Name, Phase: PhaseRetrain, ImpactDegree: rep.ImpactDegree,
			})
		}
		d.Vertices = append(d.Vertices, RIVertex{Node: n.Name, Phase: PhaseInfer})
	}
	return d
}

// NeedsRetrain reports whether the node has a retraining vertex.
func (d *RIDag) NeedsRetrain(node string) bool {
	_, ok := d.Impact[node]
	return ok
}

// TotalImpact returns the sum of impact degrees, the denominator of the
// §3.3.2 retraining-time split. It sums in vertex (node) order, so the
// rounding of the sum is the same on every call.
func (d *RIDag) TotalImpact() float64 {
	var t float64
	for _, v := range d.Vertices {
		if v.Phase == PhaseRetrain {
			t += v.ImpactDegree
		}
	}
	return t
}

// JobRequest is one application's work presented to a scheduler for one
// session.
type JobRequest struct {
	// Instance is the live application.
	Instance *app.Instance
	// Profile is the application's offline profile.
	Profile *profile.AppProfile
	// Dag is the current period's retraining-inference DAG.
	Dag *RIDag
	// Requests is the (predicted) number of inference requests in the
	// session.
	Requests int
	// Costs memoizes the job's latency probes (JobWorstCase, BestBatch,
	// RequiredFraction and AppendNodePlans evaluate thousands of
	// power-law points per plan, and the profile is immutable, so a
	// probe's answer never changes). The serving runtime supplies the
	// run's one memo per profile, shared by every application with that
	// profile, on every job of both the period and the session contexts;
	// methods never build their own. A nil Costs evaluates the profile's
	// tables directly, with bit-identical results.
	Costs *profile.LatencyCache
}

// SessionContext is everything a scheduler sees when planning one
// session.
type SessionContext struct {
	// Session is the session index.
	Session int
	// Start is the session's start instant.
	Start simtime.Instant
	// GPUShare is the GPU amount available to this session's jobs, in
	// GPUs (total GPUs divided by the number of concurrently running
	// sessions, §3.3.1).
	GPUShare float64
	// GPU identifies the GPU lane the session's jobs run on (always 0
	// on a single-GPU server). With multi-GPU sharding
	// (internal/cluster) the runtime plans one session context per
	// lane, each carrying only the applications placed there.
	GPU int
	// Jobs are the applications with predicted requests this session.
	Jobs []JobRequest
}

// NodePlan is the scheduler's decision for one model of a job.
type NodePlan struct {
	// Node is the application DAG node.
	Node string
	// Index is the node's position in App.Nodes (= Instance.Nodes() =
	// Profile.Tables() order). The runtime looks node state up by it and
	// rejects a plan whose Index names another node than Node.
	Index int
	// Structure is the chosen deployable structure.
	Structure dnn.Structure
	// InferTime is the predicted inference time of the node's task.
	InferTime simtime.Duration
	// RetrainSamples is the number of pool samples to retrain on
	// (zero when the node does not retrain this session).
	RetrainSamples int
	// RetrainTime is the GPU time allocated to the node's retraining.
	RetrainTime simtime.Duration
}

// JobPlan is the scheduler's decision for one job.
type JobPlan struct {
	// App is the application name.
	App string
	// Fraction is the GPU space allocated to the job, as a fraction of
	// one GPU.
	Fraction float64
	// Batch is the request batch size.
	Batch int
	// Nodes are per-model plans in DAG order.
	Nodes []NodePlan
	// InferTime is the job's total predicted inference time.
	InferTime simtime.Duration
	// RetrainTime is the job's total retraining budget.
	RetrainTime simtime.Duration
}

// SessionPlan is a scheduler's output for one session.
type SessionPlan struct {
	Session int
	Jobs    []JobPlan
	// Overhead is the wall-clock scheduling time consumed (Table 1).
	Overhead simtime.Duration
}

// Scheduler plans GPU resource allocation for sessions.
type Scheduler interface {
	// Name identifies the scheduler in reports (e.g. "AdaInf", "Ekya").
	Name() string
	// PlanSession produces the session's job plans. The returned plan
	// (and the slices it references) is only valid until the scheduler's
	// next PlanSession or OnPeriodStart call: schedulers may reuse plan
	// storage across sessions to keep the 5 ms hot path allocation-free.
	// Callers that need a plan beyond the session must copy it.
	PlanSession(ctx *SessionContext) (*SessionPlan, error)
}

// Validate sanity-checks a plan against its context.
func (p *SessionPlan) Validate(ctx *SessionContext) error {
	if len(p.Jobs) != len(ctx.Jobs) {
		return fmt.Errorf("sched: plan has %d jobs for %d requests", len(p.Jobs), len(ctx.Jobs))
	}
	var total float64
	for i := range p.Jobs {
		jp := &p.Jobs[i]
		if jp.Fraction < 0 || jp.Fraction > 1 {
			return fmt.Errorf("sched: job %q fraction %g out of [0,1]", jp.App, jp.Fraction)
		}
		if jp.Batch < 1 && ctx.Jobs[i].Requests > 0 {
			return fmt.Errorf("sched: job %q batch %d", jp.App, jp.Batch)
		}
		total += jp.Fraction
	}
	// Jobs run on single-GPU MPS partitions (Fraction ≤ 1 each); their
	// sum must not exceed the session's GPU amount. The rounding slack
	// is relative to the share: summing many fractions against a
	// multi-GPU share accumulates error proportional to the share's
	// magnitude, which a fixed absolute slack would misreject.
	slack := 1e-9 * math.Max(1, ctx.GPUShare)
	if ctx.GPUShare > 0 && total > ctx.GPUShare+slack {
		return fmt.Errorf("sched: plan allocates %g GPUs across jobs, session share is %g", total, ctx.GPUShare)
	}
	return nil
}
