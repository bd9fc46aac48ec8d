// Package dnn models deep neural networks at the granularity the
// AdaInf scheduler cares about: per-layer compute work, parameter and
// activation footprints, early-exit structures, and the accuracy
// dynamics of continual retraining under data drift.
//
// No real training happens — repro substitution: the paper's
// Keras/TensorFlow models are replaced by layer-graph descriptions
// whose per-layer FLOPs/parameter/activation sizes follow the published
// architecture scales, plus a saturating learning-curve accuracy model
// (see learning.go). The scheduler only ever observes models through
// latency, memory, and accuracy, all of which this package reproduces
// in shape.
package dnn

import (
	"fmt"
	"math"
)

// Layer is one layer's resource footprint.
type Layer struct {
	// Name identifies the layer within its architecture.
	Name string
	// FwdFLOPs is the forward-pass work per sample, in FLOPs.
	FwdFLOPs float64
	// ParamBytes is the size of the layer's parameters.
	ParamBytes int64
	// ActivationBytes is the size of the layer's output (intermediate
	// output in the paper's terms) for a single sample.
	ActivationBytes int64
}

// BwdFLOPs is the backward-pass work per sample: the usual ≈2× forward
// (gradient w.r.t. activations + gradient w.r.t. weights).
func (l Layer) BwdFLOPs() float64 { return 2 * l.FwdFLOPs }

// Arch is an ordered stack of layers forming a model architecture.
type Arch struct {
	// Name is the published model name, e.g. "TinyYOLOv3".
	Name string
	// InputBytes is the size of one input sample (e.g. a decoded
	// frame), which must cross the CPU→GPU bus before inference or
	// training on it can start.
	InputBytes int64
	// Layers are ordered from input to output.
	Layers []Layer
	// BaseAccuracy is the model's accuracy on data matching its
	// training distribution, before any drift or early-exit penalty.
	BaseAccuracy float64
	// GuessAccuracy is the floor accuracy (random guessing).
	GuessAccuracy float64
}

// Validate checks the architecture is well formed.
func (a *Arch) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("dnn: architecture with empty name")
	}
	if len(a.Layers) == 0 {
		return fmt.Errorf("dnn: architecture %q has no layers", a.Name)
	}
	if a.InputBytes <= 0 {
		return fmt.Errorf("dnn: architecture %q input size %d", a.Name, a.InputBytes)
	}
	for i, l := range a.Layers {
		if l.FwdFLOPs <= 0 || l.ParamBytes < 0 || l.ActivationBytes < 0 {
			return fmt.Errorf("dnn: architecture %q layer %d has invalid footprint %+v", a.Name, i, l)
		}
	}
	if a.BaseAccuracy <= 0 || a.BaseAccuracy > 1 {
		return fmt.Errorf("dnn: architecture %q base accuracy %g out of (0,1]", a.Name, a.BaseAccuracy)
	}
	if a.GuessAccuracy < 0 || a.GuessAccuracy >= a.BaseAccuracy {
		return fmt.Errorf("dnn: architecture %q guess accuracy %g out of [0, base)", a.Name, a.GuessAccuracy)
	}
	return nil
}

// NumLayers returns the layer count.
func (a *Arch) NumLayers() int { return len(a.Layers) }

// TotalParamBytes returns the parameter footprint of the whole model.
func (a *Arch) TotalParamBytes() int64 {
	var n int64
	for _, l := range a.Layers {
		n += l.ParamBytes
	}
	return n
}

// ForwardFLOPs returns the forward work per sample through the first n
// layers (n == NumLayers() for the full model).
func (a *Arch) ForwardFLOPs(n int) float64 {
	if n > len(a.Layers) {
		n = len(a.Layers)
	}
	var f float64
	for _, l := range a.Layers[:n] {
		f += l.FwdFLOPs
	}
	return f
}

// TrainFLOPs returns forward+backward work per sample for full
// backpropagation through the whole model.
func (a *Arch) TrainFLOPs() float64 {
	var f float64
	for _, l := range a.Layers {
		f += l.FwdFLOPs + l.BwdFLOPs()
	}
	return f
}

// FineTuneBackwardFraction is the share of layers (deepest first) whose
// parameters continual retraining updates. Edge continual learning
// fine-tunes the top of a compressed model rather than running full
// backpropagation [3, 8]; the fraction sets the retraining cost scale
// relative to inference.
const FineTuneBackwardFraction = 0.4

// FineTuneFromLayer returns the index of the first layer whose
// parameters are updated during continual fine-tuning.
func (a *Arch) FineTuneFromLayer() int {
	return int(float64(a.NumLayers()) * (1 - FineTuneBackwardFraction))
}

// synthesize builds an architecture with the given aggregate footprint
// spread over n layers using a CNN-like profile: activations are
// largest in the early layers (high spatial resolution) and decay
// geometrically; parameters are smallest early and grow geometrically
// (deep layers have many channels); compute peaks mid-network.
func synthesize(name string, n int, totalGFLOPs, totalParamMB, firstActMB, inputMB, baseAcc, guessAcc float64) *Arch {
	if n < 2 {
		panic(fmt.Sprintf("dnn: synthesize %q with %d layers", name, n))
	}
	layers := make([]Layer, n)

	// Geometric decay for activations: act_i = firstAct · r^i with r
	// chosen so the last layer is ~1/50 of the first (typical CNN
	// feature-map shrink).
	actRatio := math.Pow(1.0/50, 1/float64(n-1))
	// Geometric growth for params: last layer ~30× the first.
	parRatio := math.Pow(30, 1/float64(n-1))

	actW := make([]float64, n)
	parW := make([]float64, n)
	cmpW := make([]float64, n)
	var actSum, parSum, cmpSum float64
	for i := 0; i < n; i++ {
		actW[i] = math.Pow(actRatio, float64(i))
		parW[i] = math.Pow(parRatio, float64(i))
		// Compute profile: product of activation and parameter scale,
		// normalized — peaks mid-network like real convnets.
		cmpW[i] = math.Sqrt(actW[i] * parW[i] * 30)
		actSum += actW[i]
		parSum += parW[i]
		cmpSum += cmpW[i]
	}
	const mb = 1 << 20
	for i := 0; i < n; i++ {
		layers[i] = Layer{
			Name:            fmt.Sprintf("%s/layer%02d", name, i),
			FwdFLOPs:        totalGFLOPs * 1e9 * cmpW[i] / cmpSum,
			ParamBytes:      int64(totalParamMB * mb * parW[i] / parSum),
			ActivationBytes: int64(firstActMB * mb * actW[i]),
		}
	}
	a := &Arch{
		Name:          name,
		InputBytes:    int64(inputMB * mb),
		Layers:        layers,
		BaseAccuracy:  baseAcc,
		GuessAccuracy: guessAcc,
	}
	if err := a.Validate(); err != nil {
		panic(fmt.Sprintf("dnn: synthesized invalid arch: %v", err))
	}
	return a
}
