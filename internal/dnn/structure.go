package dnn

import (
	"fmt"
	"math"
)

// Structure is a deployable variant of an architecture: either the full
// model or an early-exit truncation. Early exits trade accuracy for
// latency; AdaInf picks the cheapest structure whose accuracy clears
// the application threshold A_m and spends the saved time on
// incremental retraining (§3.3.2).
type Structure struct {
	arch *Arch
	// exitAfter is the number of leading layers executed; equal to
	// arch.NumLayers() for the full structure.
	exitAfter int
	// accFactor multiplies the model's accuracy: 1 for the full
	// structure, < 1 for early exits.
	accFactor float64
}

// FullStructure returns the un-truncated structure of arch.
func FullStructure(arch *Arch) Structure {
	return Structure{arch: arch, exitAfter: arch.NumLayers(), accFactor: 1}
}

// ExitStride is the paper's early-exit layer stride (after [22]).
const ExitStride = 3

// EarlyExitStructures returns the early-exit variants of arch built the
// way the paper does (after [22], SPINN): an exit point after every
// `stride` layers of the full structure. The returned slice is ordered
// from the shallowest exit to the full structure (last element).
//
// The accuracy factor of an exit retaining fraction r of the total
// forward work follows a smooth profit curve: shallow exits lose
// substantially, exits near the top lose little. stride ≤ 0 defaults
// to ExitStride.
func EarlyExitStructures(arch *Arch, stride int) []Structure {
	if stride <= 0 {
		stride = ExitStride
	}
	n := arch.NumLayers()
	total := arch.ForwardFLOPs(n)
	var out []Structure
	for exit := stride; exit < n; exit += stride {
		r := arch.ForwardFLOPs(exit) / total
		out = append(out, Structure{
			arch:      arch,
			exitAfter: exit,
			accFactor: exitAccuracyFactor(r),
		})
	}
	out = append(out, FullStructure(arch))
	return out
}

// exitAccuracyFactor maps the retained work fraction r ∈ (0, 1] to an
// accuracy multiplier. Calibrated so an exit keeping ~60% of the work
// loses ~4% accuracy and one keeping ~25% loses ~15%, matching the
// SPINN-style curves the paper leans on.
func exitAccuracyFactor(r float64) float64 {
	if r >= 1 {
		return 1
	}
	if r <= 0 {
		return 0
	}
	return 1 - 0.03*math.Pow(1-r, 1.6)
}

// Arch returns the underlying architecture.
func (s Structure) Arch() *Arch { return s.arch }

// ExitAfter returns how many leading layers the structure executes.
func (s Structure) ExitAfter() int { return s.exitAfter }

// IsFull reports whether the structure is the complete model.
func (s Structure) IsFull() bool { return s.exitAfter == s.arch.NumLayers() }

// AccuracyFactor returns the structure's accuracy multiplier ∈ (0, 1].
func (s Structure) AccuracyFactor() float64 { return s.accFactor }

// Layers returns the layers the structure executes (shared slice; do
// not modify).
func (s Structure) Layers() []Layer { return s.arch.Layers[:s.exitAfter] }

// ParamBytes returns the structure's parameter footprint.
func (s Structure) ParamBytes() int64 {
	var n int64
	for _, l := range s.Layers() {
		n += l.ParamBytes
	}
	return n
}

// PeakActivationBytes returns the largest single-sample layer output in
// the structure.
func (s Structure) PeakActivationBytes() int64 {
	var m int64
	for _, l := range s.Layers() {
		if l.ActivationBytes > m {
			m = l.ActivationBytes
		}
	}
	return m
}

// String implements fmt.Stringer, e.g. "TinyYOLOv3[exit@9/24]".
func (s Structure) String() string {
	if s.IsFull() {
		return fmt.Sprintf("%s[full]", s.arch.Name)
	}
	return fmt.Sprintf("%s[exit@%d/%d]", s.arch.Name, s.exitAfter, s.arch.NumLayers())
}
