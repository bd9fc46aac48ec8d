// Package gpumem simulates the GPU/CPU memory system of the edge
// server: a capacity-limited GPU memory holding parameters and
// intermediate outputs, eviction to pageable or pinned ("PIN") CPU
// memory, PCIe transfer costs, and per-content reuse-time tracking.
//
// This is the substrate behind the paper's §3.4 (CPU–GPU memory
// communication minimization) and Figures 11–13. Two eviction policies
// are provided: plain LRU (what the ablation variant AdaInf/M2 falls
// back to) and the paper's priority score S_c = (1−α)·R_c + α·L_s,
// where R_c is the data type's profiled mean reuse latency and L_s the
// owning application's SLO.
//
// Concurrency: the package holds no package-level mutable state, and a
// Manager (like the Partition wrapping it) is single-goroutine — it is
// neither locked nor atomic. Concurrent use is by ownership: the
// parallel profiler (internal/profile) gives each worker goroutine one
// partition and manager, reset for every measured cell, and only
// immutable inputs are shared.
package gpumem

import (
	"fmt"

	"adainf/internal/simtime"
)

// Kind distinguishes the two memory content categories of §2.4.
type Kind uint8

const (
	// KindParam is model parameter data (weights of one layer).
	KindParam Kind = iota
	// KindIntermediate is a layer's output for one request/retraining
	// batch ("intermediate output" in the paper).
	KindIntermediate
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindParam:
		return "param"
	case KindIntermediate:
		return "intermediate"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Phase distinguishes the task type touching (or producing) a content.
type Phase uint8

const (
	// PhaseInference marks inference tasks.
	PhaseInference Phase = iota
	// PhaseRetraining marks retraining tasks.
	PhaseRetraining
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseInference:
		return "inference"
	case PhaseRetraining:
		return "retraining"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(p))
	}
}

// ContentID identifies one unit of memory content. Parameters are
// identified by (app, model, layer); intermediate outputs additionally
// carry the producing batch's sequence number, since each batch's
// outputs are distinct tensors.
type ContentID struct {
	App   string
	Model string
	Layer int
	Kind  Kind
	// Seq distinguishes intermediate outputs of different batches.
	// Always 0 for parameters.
	Seq uint64
}

// String implements fmt.Stringer.
func (id ContentID) String() string {
	if id.Kind == KindParam {
		return fmt.Sprintf("%s/%s/L%d/param", id.App, id.Model, id.Layer)
	}
	return fmt.Sprintf("%s/%s/L%d/int#%d", id.App, id.Model, id.Layer, id.Seq)
}

// Content describes a unit to be made resident.
type Content struct {
	ID    ContentID
	Bytes int64
	// SLOms is the owning application's latency SLO in milliseconds,
	// used by the priority eviction score.
	SLOms float64
	// ProducedOnGPU marks contents generated by GPU computation
	// (intermediate outputs, updated parameters): first residence
	// charges no host-to-device transfer. Contents initially loaded
	// from CPU memory (model weights at cold start) charge a transfer.
	ProducedOnGPU bool
}

// ReuseClass buckets reuse-time observations the way Fig. 12a does:
// by content kind and by the phase of the task touching the content.
type ReuseClass struct {
	Kind  Kind
	Phase Phase
}

// String implements fmt.Stringer, e.g. "param/inference".
func (c ReuseClass) String() string {
	return c.Kind.String() + "/" + c.Phase.String()
}

func (c ReuseClass) valid() bool {
	return c.Kind <= KindIntermediate && c.Phase <= PhaseRetraining
}

// CrossKind classifies a reuse observation that crosses a task or job
// boundary (Figs. 12b and 13).
type CrossKind uint8

const (
	// CrossTaskIntermediate: a model's last-layer output reused by the
	// next model's inference in the DAG.
	CrossTaskIntermediate CrossKind = iota
	// CrossTaskParam: parameters updated by retraining reused by the
	// same model's inference.
	CrossTaskParam
	// CrossJobParam: a job's parameters reused by the next job of the
	// same application.
	CrossJobParam
)

// String implements fmt.Stringer.
func (c CrossKind) String() string {
	switch c {
	case CrossTaskIntermediate:
		return "cross-task-intermediate"
	case CrossTaskParam:
		return "cross-task-param"
	case CrossJobParam:
		return "cross-job-param"
	default:
		return fmt.Sprintf("CrossKind(%d)", uint8(c))
	}
}

// location tracks where an entry currently lives.
type location uint8

const (
	locGPU location = iota
	locPinned
	locPageable
)

// entry is the manager's bookkeeping for one content unit.
type entry struct {
	content    Content
	loc        location
	lastAccess simtime.Instant
	everLoaded bool
	// lastPhase/lastModel/lastJob support cross-task and cross-job
	// reuse classification.
	lastPhase Phase
	lastModel string
	lastJob   uint64
	hasAccess bool
	// seq orders entries for deterministic tie-breaking.
	seq uint64
	// bkt and hidx place the entry in the eviction index while
	// loc == locGPU (nil and -1 otherwise).
	bkt  *bucket
	hidx int
	// stamp marks membership in the current Acquire call's working set
	// (compared against the manager's stamp generation).
	stamp uint64
}
