// Package dist provides categorical distributions and the stochastic
// drift processes that evolve them over simulation periods.
//
// The AdaInf paper's workloads drift because the class mix of a live
// video stream changes (an accident floods the street with ambulances)
// and because feature statistics shift (lighting, occlusion). This
// package models the former as a random walk on the logits of a
// categorical distribution with occasional shock events, and the latter
// as a Gaussian random walk on per-class feature means. Both processes
// are deterministic for a fixed *rand.Rand.
package dist

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"adainf/internal/mathx"
)

// Categorical is a discrete probability distribution over named classes.
type Categorical struct {
	labels []string
	probs  []float64
}

// NewCategorical builds a distribution from class labels and
// non-negative weights (normalized internally). It returns an error on
// mismatched lengths, no classes, or negative weights.
func NewCategorical(labels []string, weights []float64) (*Categorical, error) {
	if len(labels) == 0 {
		return nil, fmt.Errorf("dist: no classes")
	}
	if len(labels) != len(weights) {
		return nil, fmt.Errorf("dist: %d labels but %d weights", len(labels), len(weights))
	}
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("dist: invalid weight %g for class %q", w, labels[i])
		}
	}
	c := &Categorical{
		labels: append([]string(nil), labels...),
		probs:  mathx.Normalize(weights),
	}
	return c, nil
}

// K returns the number of classes.
func (c *Categorical) K() int { return len(c.labels) }

// Probs returns a copy of the class probabilities.
func (c *Categorical) Probs() []float64 { return mathx.Clone(c.probs) }

// Prob returns the probability of class i.
func (c *Categorical) Prob(i int) float64 { return c.probs[i] }

// Sample draws a class index using rng.
func (c *Categorical) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	var cum float64
	for i, p := range c.probs {
		cum += p
		if u < cum {
			return i
		}
	}
	return len(c.probs) - 1 // guard against rounding
}

// AppendCDF appends c's cumulative probabilities to dst, summed in
// Sample's order, for SampleCDF.
func (c *Categorical) AppendCDF(dst []float64) []float64 {
	dst = slices.Grow(dst, len(c.probs))
	var cum float64
	for _, p := range c.probs {
		cum += p
		dst = append(dst, cum)
	}
	return dst
}

// SampleCDF draws a class index from AppendCDF's vector: one rng draw,
// and exactly the class Sample would return for it.
func SampleCDF(rng *rand.Rand, cdf []float64) int {
	u := rng.Float64()
	for i, cum := range cdf {
		if u < cum {
			return i
		}
	}
	return len(cdf) - 1 // guard against rounding
}

// Clone returns an independent copy.
func (c *Categorical) Clone() *Categorical {
	return &Categorical{
		labels: c.labels, // labels are immutable by convention
		probs:  mathx.Clone(c.probs),
	}
}

// JSDivergence returns the Jensen–Shannon divergence (bits) between c
// and other. It panics if the class counts differ.
func (c *Categorical) JSDivergence(other *Categorical) float64 {
	return mathx.JSDivergence(c.probs, other.probs)
}

// BlendInPlace moves c's probabilities toward target by fraction
// t ∈ [0, 1], overwriting c with (1−t)·c + t·target renormalized. t is
// clamped into [0, 1]. It panics if the class counts differ or a
// blended weight is negative; an all-zero blend becomes uniform.
func (c *Categorical) BlendInPlace(target *Categorical, t float64) {
	if c.K() != target.K() {
		panic(fmt.Sprintf("dist: BlendInPlace class mismatch %d != %d", c.K(), target.K()))
	}
	t = mathx.Clamp(t, 0, 1)
	var sum float64
	for i := range c.probs {
		x := (1-t)*c.probs[i] + t*target.probs[i]
		if x < 0 {
			panic(fmt.Sprintf("dist: BlendInPlace negative weight %g at %d", x, i))
		}
		c.probs[i] = x
		sum += x
	}
	if sum == 0 {
		u := 1 / float64(len(c.probs))
		for i := range c.probs {
			c.probs[i] = u
		}
		return
	}
	for i, x := range c.probs {
		c.probs[i] = x / sum
	}
}

// LabelDrift is a stochastic process evolving a categorical distribution
// one period at a time. WalkSigma perturbs every class logit with
// Gaussian noise each period (gradual drift); with probability
// ShockProb a shock additionally boosts one random class's logit by
// ShockScale (abrupt distribution change, e.g. an accident changing the
// vehicle-type mix). A zero LabelDrift leaves distributions unchanged,
// modelling the paper's drift-free object-detection task.
type LabelDrift struct {
	WalkSigma  float64
	ShockProb  float64
	ShockScale float64
}

// Evolve returns the distribution after one period of drift. The input
// is not modified.
func (d LabelDrift) Evolve(rng *rand.Rand, c *Categorical) *Categorical {
	if d.WalkSigma == 0 && d.ShockProb == 0 {
		return c.Clone()
	}
	logits := make([]float64, c.K())
	for i, p := range c.probs {
		// Floor probabilities so a class can come back after dropping
		// to (near) zero.
		logits[i] = math.Log(math.Max(p, 1e-6))
	}
	for i := range logits {
		logits[i] += rng.NormFloat64() * d.WalkSigma
	}
	if d.ShockProb > 0 && rng.Float64() < d.ShockProb {
		logits[rng.Intn(len(logits))] += d.ShockScale
	}
	return &Categorical{labels: c.labels, probs: softmax(logits)}
}

func softmax(logits []float64) []float64 {
	maxL := math.Inf(-1)
	for _, l := range logits {
		if l > maxL {
			maxL = l
		}
	}
	out := make([]float64, len(logits))
	var sum float64
	for i, l := range logits {
		out[i] = math.Exp(l - maxL)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// NewRNG returns a seeded *rand.Rand. All simulator randomness flows
// through explicitly seeded generators so every experiment is
// reproducible.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
