// Package cliflags validates the numeric flags shared by the adainf
// and repro commands, so every binary rejects nonsensical
// worker and GPU counts with the same message instead of silently
// clamping them (or worse, passing them through to the engine).
package cliflags

import (
	"fmt"
	"math"
	"time"

	"adainf/internal/cluster"
	"adainf/internal/faults"
)

// Workers validates a worker-count flag whose zero value means "one
// per CPU" (-profile-workers, -parallel).
// Only negative values are invalid.
func Workers(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("%s must be >= 0 (0 = one per CPU), got %d", name, v)
	}
	return nil
}

// Lanes validates a GPU lane-count flag (-gpus on repro, -ngpus on
// adainf): a server shards into 1..cluster.MaxGPUs lanes.
func Lanes(name string, v int) error {
	if v < 1 || v > cluster.MaxGPUs {
		return fmt.Errorf("%s must be in 1..%d, got %d", name, cluster.MaxGPUs, v)
	}
	return nil
}

// GPUAmount validates a fractional GPU-capacity flag (adainf's -gpus):
// the simulated server needs strictly positive capacity. NaN is
// rejected along with zero and negatives.
func GPUAmount(name string, v float64) error {
	if !(v > 0) {
		return fmt.Errorf("%s must be > 0, got %g", name, v)
	}
	return nil
}

// Rate validates a per-application request-rate flag (-rate, req/s):
// it must be finite and positive. With zeroDefault, 0 is accepted too,
// for commands where 0 selects the built-in default (repro); where the
// flag's own default is the rate (adainf), 0 is rejected instead of
// silently becoming the serving default.
func Rate(name string, v float64, zeroDefault bool) error {
	if math.IsInf(v, 0) || !(v > 0 || zeroDefault && v == 0) {
		return fmt.Errorf("%s must be finite and %s, got %g", name, positiveBound(zeroDefault), v)
	}
	return nil
}

// Horizon validates a simulated-duration flag (-horizon) under the same
// zeroDefault convention as Rate.
func Horizon(name string, v time.Duration, zeroDefault bool) error {
	if !(v > 0 || zeroDefault && v == 0) {
		return fmt.Errorf("%s must be %s, got %v", name, positiveBound(zeroDefault), v)
	}
	return nil
}

// positiveBound phrases the range Rate and Horizon accept.
func positiveBound(zeroDefault bool) string {
	if zeroDefault {
		return ">= 0 (0 = default)"
	}
	return "> 0"
}

// Faults validates and parses a fault-specification flag (-faults on
// adainf, repro, and bench) at flag-check time, so a typo in a fault
// kind or an out-of-range probability is rejected with the other flag
// errors instead of after profiling has already run. An empty spec
// disables injection: nil config, no error. The seed (from the
// command's -fault-seed flag) is stamped onto the parsed config.
func Faults(name, spec string, seed int64) (*faults.Config, error) {
	if spec == "" {
		return nil, nil
	}
	fc, err := faults.Parse(spec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	fc.Seed = seed
	return &fc, nil
}

// First returns the first non-nil error, letting a command validate
// all its flags in one expression and report the leftmost failure.
func First(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
