// Package gpu simulates the edge server's GPUs at the granularity the
// AdaInf scheduler observes: kernel compute time as a function of work,
// batch size, and the MPS-style compute-space fraction allocated to an
// application, plus the memory behaviour delegated to gpumem.
//
// Repro substitution: this replaces the paper's Nvidia V100s + CUDA
// MPS. The first-order model is
//
//	kernelTime = launch + n·FLOPs / (u(n) · fraction · deviceFLOPS)
//
// where u(n) = n/(n+k) is the batching-efficiency curve (small batches
// underutilize the SMs) and fraction is the partition's
// CUDA_MPS_ACTIVE_THREAD_PERCENTAGE share. Memory capacity scales with
// the fraction as well, which is what bends the optimal batch size down
// when an application receives less GPU space (Fig. 9).
package gpu

import (
	"fmt"
	"time"

	"adainf/internal/gpumem"
	"adainf/internal/simtime"
	"adainf/internal/telemetry"
)

// Spec describes one physical GPU.
type Spec struct {
	// Name identifies the device model.
	Name string
	// FLOPS is the effective sustained compute rate (FLOP/s) at full
	// batching efficiency.
	FLOPS float64
	// MemBytes is the device memory capacity.
	MemBytes int64
	// Launch is the fixed per-kernel launch overhead.
	Launch simtime.Duration
	// BatchHalf is the batch size at which batching efficiency reaches
	// 50% (u(n) = n/(n+BatchHalf)).
	BatchHalf float64
}

// V100 returns the paper's testbed GPU: an Nvidia V100 (16 GB). The
// effective FLOPS is well below the 14 TFLOP/s peak, reflecting
// real-kernel utilization.
func V100() Spec {
	return Spec{
		Name:      "V100",
		FLOPS:     6e12,
		MemBytes:  16 << 30,
		Launch:    60 * time.Microsecond,
		BatchHalf: 3,
	}
}

// Validate reports an error on a malformed spec.
func (s Spec) Validate() error {
	if !(s.FLOPS > 0) || s.MemBytes <= 0 || s.Launch < 0 || !(s.BatchHalf > 0) {
		return fmt.Errorf("gpu: invalid spec %+v", s)
	}
	return nil
}

// Efficiency returns the batching-efficiency factor u(n) ∈ (0, 1).
func (s Spec) Efficiency(batch int) float64 {
	if batch < 1 {
		batch = 1
	}
	n := float64(batch)
	return n / (n + s.BatchHalf)
}

// Partition is an MPS-style share of a device: a compute fraction and a
// proportional slice of device memory with its own gpumem manager.
type Partition struct {
	spec     Spec
	fraction float64
	mem      *gpumem.Manager
}

// PartitionConfig tunes a partition's memory manager.
type PartitionConfig struct {
	// MemShare scales the partition's memory slice relative to
	// fraction × device memory. Values < 1 model the memory consumed
	// by the other concurrently running sessions' jobs on the same
	// partition. Zero defaults to 1.
	MemShare float64
	// Policy is the eviction policy; nil defaults to LRU.
	Policy gpumem.Policy
	// Audit enables the memory manager's eviction-order audit
	// (gpumem.Config.Audit).
	Audit bool
	// Trace forwards the memory manager's eviction events
	// (gpumem.Config.Trace).
	Trace *telemetry.Collector
}

// NewPartition carves fraction ∈ (0, 1] of the device. It panics on a
// combination Reset rejects.
func NewPartition(spec Spec, fraction float64, cfg PartitionConfig) *Partition {
	p := new(Partition)
	if err := p.Reset(spec, fraction, cfg); err != nil {
		panic(err)
	}
	return p
}

// Reset re-carves the partition as NewPartition(spec, fraction, cfg)
// would, keeping its memory manager's storage (gpumem.Manager.Reset);
// a zero Partition is ready for it. It returns an error, leaving the
// partition unchanged, for an invalid spec, a fraction or MemShare
// outside (0, 1] (MemShare 0 takes the default 1), or a memory-manager
// config gpumem.Config.Validate rejects.
func (p *Partition) Reset(spec Spec, fraction float64, cfg PartitionConfig) error {
	mcfg, err := memConfig(spec, fraction, cfg)
	if err != nil {
		return err
	}
	if p.mem == nil {
		p.mem = new(gpumem.Manager)
	}
	if err := p.mem.Reset(mcfg); err != nil {
		return err
	}
	p.spec, p.fraction = spec, fraction
	return nil
}

// memConfig validates a partition and returns its memory manager's
// config.
func memConfig(spec Spec, fraction float64, cfg PartitionConfig) (gpumem.Config, error) {
	if err := spec.Validate(); err != nil {
		return gpumem.Config{}, err
	}
	if !(fraction > 0 && fraction <= 1) {
		return gpumem.Config{}, fmt.Errorf("gpu: partition fraction %g out of (0,1]", fraction)
	}
	share := cfg.MemShare
	if share == 0 {
		share = 1
	}
	if !(share > 0 && share <= 1) {
		return gpumem.Config{}, fmt.Errorf("gpu: MemShare %g out of (0,1]", share)
	}
	memBytes := int64(float64(spec.MemBytes) * fraction * share)
	if memBytes < 1<<20 {
		memBytes = 1 << 20
	}
	mcfg := gpumem.Config{
		GPUBytes: memBytes,
		Policy:   cfg.Policy,
		Audit:    cfg.Audit,
		Trace:    cfg.Trace,
	}
	return mcfg, mcfg.Validate()
}

// Fraction returns the compute-space share.
func (p *Partition) Fraction() float64 { return p.fraction }

// Mem returns the partition's memory manager.
func (p *Partition) Mem() *gpumem.Manager { return p.mem }

// KernelTime returns the compute time of one kernel processing a batch:
// launch overhead plus batched work at the partition's share of the
// device throughput.
func (p *Partition) KernelTime(flopsPerSample float64, batch int) simtime.Duration {
	if flopsPerSample < 0 {
		panic(fmt.Sprintf("gpu: negative work %g", flopsPerSample))
	}
	if batch < 1 {
		batch = 1
	}
	work := flopsPerSample * float64(batch)
	rate := p.spec.FLOPS * p.fraction * p.spec.Efficiency(batch)
	return p.spec.Launch + simtime.Duration(work/rate*float64(time.Second))
}
