package dnn

import (
	"math"

	"adainf/internal/dist"
	"adainf/internal/mathx"
)

// Learning-dynamics constants. They are calibrated so one period's
// retraining pool can recover most of a drift-induced accuracy loss —
// the regime the paper operates in.
const (
	// KappaSamples is the learning-curve constant κ: training on k
	// effective samples closes fraction 1−exp(−k/κ) of the knowledge
	// gap. At 3200, adapting fully to a period's drift takes a few
	// thousand samples, so retraining GPU time — not the sample pool —
	// is the binding resource, as in the paper's testbed.
	KappaSamples = 3200.0
	// DriftSensitivity is the exponent η shaping how fast accuracy
	// falls as a class becomes unfamiliar. Compressed models generalize
	// poorly to new distributions (§1), so η > 1.
	DriftSensitivity = 1.5
	// DivergentSelectionBoost is the efficiency multiplier earned by
	// retraining on the samples that deviate most from the old training
	// data (§3.2), relative to uniformly chosen samples. The divergent
	// samples are exactly the surged-class samples the model gets wrong
	// (verified by the detector's ranking), so training on them is
	// several times more sample-efficient than uniform replay — the
	// classic active-learning gain the paper's selection exploits.
	DivergentSelectionBoost = 3.0
)

// State is a model's evolving knowledge: the class distribution the
// deployed parameters currently reflect. Accuracy is highest when the
// knowledge matches the live distribution and falls as classes surge
// beyond what the model has seen (data drift).
type State struct {
	arch      *Arch
	knowledge *dist.Categorical
	// version counts effective Train applications. Two states with the
	// same construction history and equal versions hold identical
	// knowledge, which lets callers fingerprint a state without hashing
	// the full distribution.
	version uint64
}

// NewState creates a model state whose parameters were just trained on
// initial (the initial 40% of the dataset in the paper's setup).
func NewState(arch *Arch, initial *dist.Categorical) *State {
	if arch == nil {
		panic("dnn: NewState with nil arch")
	}
	if initial == nil {
		panic("dnn: NewState with nil initial distribution")
	}
	return &State{
		arch:      arch,
		knowledge: initial.Clone(),
	}
}

// ClassAccuracy returns the probability the model classifies a sample
// of class c correctly when the live class mix is live, using the full
// structure. Familiarity of class c is min(1, known(c)/live(c)): a
// class appearing more often than the model was trained on drags
// accuracy toward the guess floor.
func (s *State) ClassAccuracy(c int, live *dist.Categorical) float64 {
	const eps = 1e-9
	p := live.Prob(c)
	if p < eps {
		return s.arch.BaseAccuracy
	}
	familiarity := math.Min(1, s.knowledge.Prob(c)/p)
	f := math.Pow(familiarity, DriftSensitivity)
	return s.arch.GuessAccuracy + (s.arch.BaseAccuracy-s.arch.GuessAccuracy)*f
}

// Accuracy returns the expected accuracy over the live distribution
// with the full structure: Σ_c live(c) · ClassAccuracy(c).
func (s *State) Accuracy(live *dist.Categorical) float64 {
	var a float64
	for c := 0; c < live.K(); c++ {
		a += live.Prob(c) * s.ClassAccuracy(c, live)
	}
	return a
}

// AccuracyWith returns the expected accuracy when serving through the
// given structure (early exits multiply accuracy by their factor, with
// the guess floor preserved).
func (s *State) AccuracyWith(live *dist.Categorical, st Structure) float64 {
	a := s.Accuracy(live) * st.AccuracyFactor()
	return math.Max(a, s.arch.GuessAccuracy)
}

// CorrectProb returns the probability that a single sample of class c
// is classified correctly through structure st under live mix live.
// Callers draw a Bernoulli with this probability to score individual
// requests.
func (s *State) CorrectProb(c int, live *dist.Categorical, st Structure) float64 {
	p := s.ClassAccuracy(c, live) * st.AccuracyFactor()
	return mathx.Clamp(math.Max(p, s.arch.GuessAccuracy), 0, 1)
}

// LearningFraction maps a number of effective training samples to the
// fraction of the knowledge gap the training closes: 1 − exp(−k/κ).
func (s *State) LearningFraction(effectiveSamples float64) float64 {
	if effectiveSamples <= 0 {
		return 0
	}
	return 1 - math.Exp(-effectiveSamples/KappaSamples)
}

// Train retrains the model toward the target class distribution using
// effectiveSamples of training exposure (samples × epochs × selection
// boost). The knowledge moves fraction LearningFraction toward target.
// Incremental retraining is exactly repeated Train calls with small
// sample counts — the knowledge converges the same place continual
// whole-pool retraining does, but every intermediate inference already
// benefits. The knowledge is updated in place; snapshots taken with
// Knowledge or Clone are copies and do not move.
func (s *State) Train(target *dist.Categorical, effectiveSamples float64) {
	if effectiveSamples <= 0 {
		return
	}
	s.knowledge.BlendInPlace(target, s.LearningFraction(effectiveSamples))
	s.version++
}

// Version returns the number of effective Train applications so far.
func (s *State) Version() uint64 { return s.version }

// Clone returns an independent copy of the state (a model "version").
func (s *State) Clone() *State {
	return &State{
		arch:      s.arch,
		knowledge: s.knowledge.Clone(),
		version:   s.version,
	}
}
