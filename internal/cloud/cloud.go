// Package cloud simulates the cloud side of the serving system: the
// wide-area link between the edge server and the cloud and the remote
// retraining used by the Scrooge baseline (§4: an AWS p3.16xlarge with
// ~20 Gbps to the edge).
package cloud

import (
	"fmt"
	"time"

	"adainf/internal/dnn"
	"adainf/internal/gpu"
	"adainf/internal/simtime"
)

// Link models the edge↔cloud WAN.
type Link struct {
	// BandwidthBps is the usable bandwidth in bytes/second (20 Gbps ≈
	// 2.5 GB/s in the paper's testbed).
	BandwidthBps float64
	// RTT is the round-trip latency.
	RTT simtime.Duration
}

// DefaultLink returns the paper's 20 Gbps edge-cloud link.
func DefaultLink() Link {
	return Link{BandwidthBps: 2.5e9, RTT: 20 * time.Millisecond}
}

// TransferTime returns the one-way transfer time for the payload.
func (l Link) TransferTime(bytes int64) simtime.Duration {
	if l.BandwidthBps <= 0 {
		panic(fmt.Sprintf("cloud: link bandwidth %g", l.BandwidthBps))
	}
	return l.RTT/2 + simtime.Duration(float64(bytes)/l.BandwidthBps*float64(time.Second))
}

// RetrainJob is one model's remote retraining payload.
type RetrainJob struct {
	App     string
	Node    string
	Arch    *dnn.Arch
	Samples int
}

// RetrainResult reports one remote retraining outcome.
type RetrainResult struct {
	Job RetrainJob
	// Completion is the instant the updated model is back on the edge.
	Completion simtime.Instant
}

// Trainer retrains models in the cloud: upload samples, train on the
// cloud GPUs, download updated weights.
type Trainer struct {
	Link Link
	// Spec is the cloud GPU type; GPUs the count (8 on p3.16xlarge).
	Spec gpu.Spec
	GPUs float64
	// SampleBytes is the wire size of one retraining sample (a frame
	// plus metadata).
	SampleBytes int64
}

// DefaultTrainer returns the Scrooge configuration of §4.
func DefaultTrainer() Trainer {
	return Trainer{
		Link: DefaultLink(),
		Spec: gpu.V100(),
		GPUs: 8,
		// ~0.45 MB per compressed frame sample: with the default eight
		// applications' pools this reproduces Table 1's 85.7 GB /
		// 34.1 s edge-cloud transfer.
		SampleBytes: 450 << 10,
	}
}

// Retrain runs the jobs remotely starting at start. All samples upload
// first (they share the link), training runs concurrently across the
// cloud GPUs, and each model downloads when trained. It returns per-job
// results plus the total transfer time and bytes for Table 1.
func (t Trainer) Retrain(start simtime.Instant, jobs []RetrainJob) ([]RetrainResult, simtime.Duration, int64, error) {
	if t.GPUs <= 0 {
		return nil, 0, 0, fmt.Errorf("cloud: trainer with %g GPUs", t.GPUs)
	}
	var upBytes int64
	for _, j := range jobs {
		if j.Samples < 0 {
			return nil, 0, 0, fmt.Errorf("cloud: job %s/%s with %d samples", j.App, j.Node, j.Samples)
		}
		upBytes += int64(j.Samples) * t.SampleBytes
	}
	upTime := t.Link.TransferTime(upBytes)
	ready := start.Add(upTime)

	results := make([]RetrainResult, 0, len(jobs))
	var totalTransfer = upTime
	var totalBytes = upBytes
	for _, j := range jobs {
		// Cloud training: each model gets one whole cloud GPU; the
		// fleet is large enough that jobs do not queue.
		trainFLOPs := j.Arch.TrainFLOPs() * float64(j.Samples)
		trainTime := simtime.Duration(trainFLOPs / t.Spec.FLOPS * float64(time.Second))
		downBytes := j.Arch.TotalParamBytes()
		downTime := t.Link.TransferTime(downBytes)
		results = append(results, RetrainResult{
			Job:        j,
			Completion: ready.Add(trainTime + downTime),
		})
		totalTransfer += downTime
		totalBytes += downBytes
	}
	return results, totalTransfer, totalBytes, nil
}
