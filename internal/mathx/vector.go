// Package mathx provides the numerical primitives used by the AdaInf
// simulator: dense vector operations, principal component analysis,
// Jensen–Shannon divergence, means, empirical CDFs, and the
// least-squares fits behind the scheduler's latency-scaling
// regressions.
//
// Everything is implemented on float64 slices with no external
// dependencies. The routines favour clarity and numerical robustness
// over raw speed; the vectors involved are small (tens to a few hundred
// dimensions).
package mathx

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. It panics if the lengths differ.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mathx: Dot length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func Norm(v []float64) float64 {
	// Scaled accumulation avoids overflow/underflow for extreme values.
	var scale, ssq float64 = 0, 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Rows is a read-only sequence of vectors, row i being Features(i),
// such as a synthdata.Dataset's feature vectors. Reading rows through
// it spares a caller building a [][]float64 of them.
type Rows interface {
	Len() int
	Features(i int) []float64
}

// Mean returns the element-wise mean of the rows. It panics on an empty
// input or ragged rows.
func Mean(rows Rows) []float64 {
	if rows.Len() == 0 {
		panic("mathx: Mean of zero rows")
	}
	n := len(rows.Features(0))
	out := make([]float64, n)
	for k := range rows.Len() {
		r := rows.Features(k)
		if len(r) != n {
			panic("mathx: Mean over ragged rows")
		}
		for i, x := range r {
			out[i] += x
		}
	}
	inv := 1 / float64(rows.Len())
	for i := range out {
		out[i] *= inv
	}
	return out
}

// Clone returns a copy of v.
func Clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
