package gpu

import (
	"fmt"

	"adainf/internal/dnn"
	"adainf/internal/gpumem"
	"adainf/internal/simtime"
)

// Strategy selects the memory-communication behaviour of task
// execution (§3.4.1). MaximizeUsage on is AdaInf's behaviour:
//
//   - one layer's kernel runs for the whole request batch before moving
//     on, so layer parameters are fully reused before any eviction;
//   - when a job finishes, its intermediate outputs are dropped (they
//     are never reused — Observation 9) while its parameters are
//     retained for the next job of the same application.
//
// MaximizeUsage off (the AdaInf/M1 ablation) executes each request's
// layers independently — parameters can be evicted and refetched
// between requests of the same batch — and drops parameters along with
// intermediates at job end.
type Strategy struct {
	MaximizeUsage bool
}

// TaskResult reports the time decomposition of one executed task.
type TaskResult struct {
	// Compute is the GPU kernel time.
	Compute simtime.Duration
	// Comm is the CPU–GPU memory communication time.
	Comm simtime.Duration
}

// Total returns compute + communication time.
func (r TaskResult) Total() simtime.Duration { return r.Compute + r.Comm }

// Add accumulates another result.
func (r *TaskResult) Add(o TaskResult) {
	r.Compute += o.Compute
	r.Comm += o.Comm
}

// Executor runs inference and retraining tasks on a partition, driving
// the partition's memory manager so communication time and reuse-time
// distributions emerge from actual content accesses.
type Executor struct {
	part  *Partition
	strat Strategy
	// seq numbers intermediate-output contents so distinct batches
	// produce distinct tensors.
	seq uint64
}

// NewExecutor returns an executor over the partition.
func NewExecutor(part *Partition, strat Strategy) *Executor {
	if part == nil {
		panic("gpu: NewExecutor with nil partition")
	}
	return &Executor{part: part, strat: strat}
}

// Partition returns the executor's partition.
func (e *Executor) Partition() *Partition { return e.part }

// InferenceResult extends TaskResult with the identity of the final
// layer's output, which downstream DAG models consume.
type InferenceResult struct {
	TaskResult
	// Output identifies the last layer's intermediate output in GPU
	// memory (valid until the job finishes).
	Output gpumem.ContentID
	// End is the virtual time the task finished.
	End simtime.Instant
}

// InferenceTask describes one inference execution.
type InferenceTask struct {
	App       string
	JobID     uint64
	Structure dnn.Structure
	Batch     int
	SLOms     float64
	// PrevOutputs are upstream models' final-layer outputs this model
	// consumes (DAG edges); nil for root models.
	PrevOutputs []gpumem.ContentID
	// PrevOutputBytes maps each PrevOutputs entry to its size.
	PrevOutputBytes []int64
}

// RunInference executes the task starting at start virtual time and
// returns its time decomposition. Memory contents are touched layer by
// layer, so reuse statistics and communication costs fall out of the
// memory manager.
func (e *Executor) RunInference(start simtime.Instant, t InferenceTask) (InferenceResult, error) {
	if t.Batch < 1 {
		return InferenceResult{}, fmt.Errorf("gpu: inference batch %d", t.Batch)
	}
	if len(t.PrevOutputs) != len(t.PrevOutputBytes) {
		return InferenceResult{}, fmt.Errorf("gpu: %d prev outputs but %d sizes", len(t.PrevOutputs), len(t.PrevOutputBytes))
	}
	model := t.Structure.Arch().Name
	now := start
	var res TaskResult

	// Root models pay the CPU→GPU upload of the request batch's input
	// data (frames, audio); downstream models consume upstream outputs
	// already resident on the GPU.
	if len(t.PrevOutputs) == 0 {
		e.seq++
		comm, err := e.part.Mem().Acquire(now, []gpumem.Access{{
			Content: gpumem.Content{
				ID:    gpumem.ContentID{App: t.App, Model: model, Layer: -1, Kind: gpumem.KindIntermediate, Seq: e.seq},
				Bytes: t.Structure.Arch().InputBytes*int64(t.Batch) + 1,
				SLOms: t.SLOms,
			},
			Phase: gpumem.PhaseInference,
			Model: model,
			JobID: t.JobID,
		}})
		if err != nil {
			return InferenceResult{}, err
		}
		res.Comm += comm
		now = now.Add(comm)
	}

	// Consume upstream outputs (cross-task intermediate reuse).
	if len(t.PrevOutputs) > 0 {
		accs := make([]gpumem.Access, 0, len(t.PrevOutputs))
		for i, id := range t.PrevOutputs {
			accs = append(accs, gpumem.Access{
				Content: gpumem.Content{ID: id, Bytes: t.PrevOutputBytes[i], SLOms: t.SLOms, ProducedOnGPU: true},
				Phase:   gpumem.PhaseInference,
				Model:   model,
				JobID:   t.JobID,
			})
		}
		comm, err := e.part.Mem().Acquire(now, accs)
		if err != nil {
			return InferenceResult{}, err
		}
		res.Comm += comm
		now = now.Add(comm)
	}

	var out gpumem.ContentID
	var err error
	if e.strat.MaximizeUsage {
		out, now, err = e.inferLayerSync(now, t, &res)
	} else {
		out, now, err = e.inferPerRequest(now, t, &res)
	}
	if err != nil {
		return InferenceResult{}, err
	}
	return InferenceResult{TaskResult: res, Output: out, End: now}, nil
}

// inferLayerSync runs each layer once for the whole batch.
func (e *Executor) inferLayerSync(now simtime.Instant, t InferenceTask, res *TaskResult) (gpumem.ContentID, simtime.Instant, error) {
	model := t.Structure.Arch().Name
	layers := t.Structure.Layers()
	mem := e.part.Mem()
	e.seq++
	seq := e.seq
	var prevOut gpumem.ContentID
	var prevBytes int64
	var buf [3]gpumem.Access // a layer touches at most 3 contents
	for i, layer := range layers {
		accs := append(buf[:0], gpumem.Access{
			Content: gpumem.Content{
				ID:    gpumem.ContentID{App: t.App, Model: model, Layer: i, Kind: gpumem.KindParam},
				Bytes: layer.ParamBytes + 1, // +1 keeps zero-param layers representable
				SLOms: t.SLOms,
			},
			Phase: gpumem.PhaseInference,
			Model: model,
			JobID: t.JobID,
		})
		if i > 0 {
			accs = append(accs, gpumem.Access{
				Content: gpumem.Content{ID: prevOut, Bytes: prevBytes, SLOms: t.SLOms, ProducedOnGPU: true},
				Phase:   gpumem.PhaseInference,
				Model:   model,
				JobID:   t.JobID,
			})
		}
		outID := gpumem.ContentID{App: t.App, Model: model, Layer: i, Kind: gpumem.KindIntermediate, Seq: seq}
		outBytes := layer.ActivationBytes*int64(t.Batch) + 1
		accs = append(accs, gpumem.Access{
			Content: gpumem.Content{ID: outID, Bytes: outBytes, SLOms: t.SLOms, ProducedOnGPU: true},
			Phase:   gpumem.PhaseInference,
			Model:   model,
			JobID:   t.JobID,
		})
		comm, err := mem.Acquire(now, accs)
		if err != nil {
			return gpumem.ContentID{}, now, fmt.Errorf("gpu: inference %s layer %d: %w", model, i, err)
		}
		comp := e.part.KernelTime(layer.FwdFLOPs, t.Batch)
		res.Comm += comm
		res.Compute += comp
		now = now.Add(comm + comp)
		// The previous layer's output is dead once this layer consumed
		// it; free it immediately to maximize usable memory.
		if i > 0 {
			mem.Release(prevOut)
		}
		prevOut, prevBytes = outID, outBytes
	}
	return prevOut, now, nil
}

// inferPerRequest runs every request separately (the /M1 ablation):
// the same layer parameters are touched once per request, so under
// memory pressure they bounce between CPU and GPU memory. Because the
// requests execute without layer synchronization, no request knows
// when a layer output is dead for the others, so intermediate outputs
// linger until the job finishes — inflating the resident set exactly
// the way the paper's uncoordinated baseline does.
func (e *Executor) inferPerRequest(now simtime.Instant, t InferenceTask, res *TaskResult) (gpumem.ContentID, simtime.Instant, error) {
	model := t.Structure.Arch().Name
	layers := t.Structure.Layers()
	mem := e.part.Mem()
	var lastOut gpumem.ContentID
	var lastBytes int64
	var buf [3]gpumem.Access // a layer touches at most 3 contents
	for r := 0; r < t.Batch; r++ {
		e.seq++
		seq := e.seq
		var prevOut gpumem.ContentID
		var prevBytes int64
		for i, layer := range layers {
			accs := append(buf[:0], gpumem.Access{
				Content: gpumem.Content{
					ID:    gpumem.ContentID{App: t.App, Model: model, Layer: i, Kind: gpumem.KindParam},
					Bytes: layer.ParamBytes + 1,
					SLOms: t.SLOms,
				},
				Phase: gpumem.PhaseInference,
				Model: model,
				JobID: t.JobID,
			})
			if i > 0 {
				accs = append(accs, gpumem.Access{
					Content: gpumem.Content{ID: prevOut, Bytes: prevBytes, SLOms: t.SLOms, ProducedOnGPU: true},
					Phase:   gpumem.PhaseInference,
					Model:   model,
					JobID:   t.JobID,
				})
			}
			outID := gpumem.ContentID{App: t.App, Model: model, Layer: i, Kind: gpumem.KindIntermediate, Seq: seq}
			outBytes := layer.ActivationBytes + 1
			accs = append(accs, gpumem.Access{
				Content: gpumem.Content{ID: outID, Bytes: outBytes, SLOms: t.SLOms, ProducedOnGPU: true},
				Phase:   gpumem.PhaseInference,
				Model:   model,
				JobID:   t.JobID,
			})
			comm, err := mem.Acquire(now, accs)
			if err != nil {
				return gpumem.ContentID{}, now, fmt.Errorf("gpu: inference %s req %d layer %d: %w", model, r, i, err)
			}
			comp := e.part.KernelTime(layer.FwdFLOPs, 1)
			res.Comm += comm
			res.Compute += comp
			now = now.Add(comm + comp)
			prevOut, prevBytes = outID, outBytes
		}
		lastOut, lastBytes = prevOut, prevBytes
	}
	_ = lastBytes
	return lastOut, now, nil
}

// RetrainTask describes one retraining execution (a forward+backward
// pass over the retraining samples in batches).
type RetrainTask struct {
	App       string
	JobID     uint64
	Arch      *dnn.Arch
	Samples   int
	BatchSize int
	SLOms     float64
}

// RunRetraining executes the task and returns its decomposition and
// end time. Forward activations are held for the backward pass and
// freed as the backward consumes them, matching real training memory
// behaviour.
func (e *Executor) RunRetraining(start simtime.Instant, t RetrainTask) (TaskResult, simtime.Instant, error) {
	if t.Samples <= 0 {
		return TaskResult{}, start, fmt.Errorf("gpu: retraining %d samples", t.Samples)
	}
	if t.BatchSize <= 0 {
		return TaskResult{}, start, fmt.Errorf("gpu: retraining batch %d", t.BatchSize)
	}
	model := t.Arch.Name
	mem := e.part.Mem()
	now := start
	var res TaskResult
	remaining := t.Samples
	for remaining > 0 {
		n := t.BatchSize
		if n > remaining {
			n = remaining
		}
		remaining -= n
		e.seq++
		seq := e.seq
		// Upload the training samples of this batch.
		inComm, err := mem.Acquire(now, []gpumem.Access{{
			Content: gpumem.Content{
				ID:    gpumem.ContentID{App: t.App, Model: model, Layer: -1, Kind: gpumem.KindIntermediate, Seq: seq},
				Bytes: t.Arch.InputBytes*int64(n) + 1,
				SLOms: t.SLOms,
			},
			Phase: gpumem.PhaseRetraining,
			Model: model,
			JobID: t.JobID,
		}})
		if err != nil {
			return res, now, fmt.Errorf("gpu: retraining %s input upload: %w", model, err)
		}
		res.Comm += inComm
		now = now.Add(inComm)
		layers := t.Arch.Layers
		fineTuneFrom := t.Arch.FineTuneFromLayer()
		acts := make([]gpumem.ContentID, len(layers))
		actBytes := make([]int64, len(layers))
		// Forward through the whole model; activations are retained
		// only for the fine-tuned top layers (the backward pass needs
		// them), earlier ones are released as soon as consumed.
		for i, layer := range layers {
			acts[i] = gpumem.ContentID{App: t.App, Model: model, Layer: i, Kind: gpumem.KindIntermediate, Seq: seq}
			actBytes[i] = layer.ActivationBytes*int64(n) + 1
			accs := []gpumem.Access{
				{
					Content: gpumem.Content{
						ID:    gpumem.ContentID{App: t.App, Model: model, Layer: i, Kind: gpumem.KindParam},
						Bytes: layer.ParamBytes + 1,
						SLOms: t.SLOms,
					},
					Phase: gpumem.PhaseRetraining, Model: model, JobID: t.JobID,
				},
				{
					Content: gpumem.Content{ID: acts[i], Bytes: actBytes[i], SLOms: t.SLOms, ProducedOnGPU: true},
					Phase:   gpumem.PhaseRetraining, Model: model, JobID: t.JobID,
				},
			}
			comm, err := mem.Acquire(now, accs)
			if err != nil {
				return res, now, fmt.Errorf("gpu: retraining %s fwd layer %d: %w", model, i, err)
			}
			comp := e.part.KernelTime(layer.FwdFLOPs, n)
			res.Comm += comm
			res.Compute += comp
			now = now.Add(comm + comp)
			if i > 0 && i-1 < fineTuneFrom {
				mem.Release(acts[i-1])
			}
		}
		// Backward through the fine-tuned top layers: consume the
		// retained activations deepest-first, update params (§3.4's
		// "parameter values updated by retraining").
		for i := len(layers) - 1; i >= fineTuneFrom; i-- {
			layer := layers[i]
			accs := []gpumem.Access{
				{
					Content: gpumem.Content{
						ID:    gpumem.ContentID{App: t.App, Model: model, Layer: i, Kind: gpumem.KindParam},
						Bytes: layer.ParamBytes + 1,
						SLOms: t.SLOms,
					},
					Phase: gpumem.PhaseRetraining, Model: model, JobID: t.JobID,
				},
				{
					Content: gpumem.Content{ID: acts[i], Bytes: actBytes[i], SLOms: t.SLOms, ProducedOnGPU: true},
					Phase:   gpumem.PhaseRetraining, Model: model, JobID: t.JobID,
				},
			}
			comm, err := mem.Acquire(now, accs)
			if err != nil {
				return res, now, fmt.Errorf("gpu: retraining %s bwd layer %d: %w", model, i, err)
			}
			comp := e.part.KernelTime(layer.BwdFLOPs(), n)
			res.Comm += comm
			res.Compute += comp
			now = now.Add(comm + comp)
			mem.Release(acts[i])
		}
	}
	return res, now, nil
}

// FinishJob applies the end-of-job memory policy: intermediate outputs
// of the job's application are always dropped (never reused —
// Observation 9); parameters are retained under MaximizeUsage (the
// next job of the application reuses them — Fig. 13) and dropped
// otherwise.
func (e *Executor) FinishJob(app string) {
	mem := e.part.Mem()
	mem.ReleaseMatching(func(id gpumem.ContentID) bool {
		if id.App != app {
			return false
		}
		if id.Kind == gpumem.KindIntermediate {
			return true
		}
		return !e.strat.MaximizeUsage
	})
}
