package mathx

import (
	"fmt"
	"math"
)

// KLDivergence returns the Kullback–Leibler divergence D(p‖q) in bits.
// Terms with p[i]==0 contribute zero; a term with p[i]>0 and q[i]==0
// yields +Inf. It panics if the lengths differ.
func KLDivergence(p, q []float64) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("mathx: KLDivergence length mismatch %d != %d", len(p), len(q)))
	}
	var d float64
	for i := range p {
		if p[i] <= 0 {
			continue
		}
		if q[i] <= 0 {
			return math.Inf(1)
		}
		d += p[i] * math.Log2(p[i]/q[i])
	}
	return d
}

// JSDivergence returns the Jensen–Shannon divergence between the
// distributions p and q in bits, a symmetric, bounded ([0,1]) measure of
// distribution change. The paper uses it (Fig. 6) to quantify how much a
// task's class-label distribution moved between consecutive periods.
func JSDivergence(p, q []float64) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("mathx: JSDivergence length mismatch %d != %d", len(p), len(q)))
	}
	m := make([]float64, len(p))
	for i := range p {
		m[i] = 0.5 * (p[i] + q[i])
	}
	d := 0.5*KLDivergence(p, m) + 0.5*KLDivergence(q, m)
	// Numerical noise can push the value a hair outside [0, 1].
	return Clamp(d, 0, 1)
}

// Normalize scales the non-negative weights w so they sum to 1. A zero
// (or empty) weight vector is returned as a uniform distribution. It
// panics on negative weights.
func Normalize(w []float64) []float64 {
	out := make([]float64, len(w))
	var sum float64
	for i, x := range w {
		if x < 0 {
			panic(fmt.Sprintf("mathx: Normalize negative weight %g at %d", x, i))
		}
		sum += x
	}
	if sum == 0 {
		if len(w) == 0 {
			return out
		}
		u := 1 / float64(len(w))
		for i := range out {
			out[i] = u
		}
		return out
	}
	for i, x := range w {
		out[i] = x / sum
	}
	return out
}
