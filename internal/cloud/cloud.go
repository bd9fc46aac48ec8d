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

// The edge↔cloud WAN of §4 and the wire size of its payloads.
const (
	// linkBps is the usable bandwidth in bytes/second: 20 Gbps ≈
	// 2.5 GB/s in the paper's testbed.
	linkBps = 2.5e9
	// linkRTT is the round-trip latency.
	linkRTT = 20 * time.Millisecond
	// sampleBytes is the wire size of one retraining sample, a
	// compressed frame plus metadata (~0.45 MB): with the default eight
	// applications' pools this reproduces Table 1's 85.7 GB / 34.1 s
	// edge-cloud transfer.
	sampleBytes = 450 << 10
)

// transferTime returns the one-way transfer time for the payload.
func transferTime(bytes int64) simtime.Duration {
	return linkRTT/2 + simtime.Duration(float64(bytes)/linkBps*float64(time.Second))
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

// Retrain runs the jobs remotely starting at start, on the cloud
// V100s of §4's p3.16xlarge. All samples upload first (they share the
// link), training runs concurrently across the cloud GPUs, and each
// model downloads when trained. It returns per-job results plus the
// total transfer time and bytes for Table 1.
func Retrain(start simtime.Instant, jobs []RetrainJob) ([]RetrainResult, simtime.Duration, int64, error) {
	var upBytes int64
	for _, j := range jobs {
		if j.Samples < 0 {
			return nil, 0, 0, fmt.Errorf("cloud: job %s/%s with %d samples", j.App, j.Node, j.Samples)
		}
		upBytes += int64(j.Samples) * sampleBytes
	}
	upTime := transferTime(upBytes)
	ready := start.Add(upTime)

	results := make([]RetrainResult, 0, len(jobs))
	var totalTransfer = upTime
	var totalBytes = upBytes
	for _, j := range jobs {
		// Cloud training: each model gets one whole cloud GPU; the
		// fleet is large enough that jobs do not queue.
		trainFLOPs := j.Arch.TrainFLOPs() * float64(j.Samples)
		trainTime := simtime.Duration(trainFLOPs / gpu.FLOPS * float64(time.Second))
		downBytes := j.Arch.TotalParamBytes()
		downTime := transferTime(downBytes)
		results = append(results, RetrainResult{
			Job:        j,
			Completion: ready.Add(trainTime + downTime),
		})
		totalTransfer += downTime
		totalBytes += downBytes
	}
	return results, totalTransfer, totalBytes, nil
}
