package mathx

import (
	"fmt"
	"sort"
)

// MeanOf returns the arithmetic mean of xs, or 0 for an empty slice.
func MeanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MeanWhere returns the mean of the entries whose mask is true, or 0
// when none are. It panics when the slices differ in length.
func MeanWhere(xs []float64, mask []bool) float64 {
	if len(xs) != len(mask) {
		panic("mathx: MeanWhere length mismatch")
	}
	var sum float64
	n := 0
	for i, x := range xs {
		if mask[i] {
			sum += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// CDF is an empirical cumulative distribution function built from
// observed samples. The simulator uses it to report the reuse-time
// distributions of Figs. 12–13.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the samples. The input is copied.
func NewCDF(samples []float64) *CDF {
	s := Clone(samples)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the number of samples behind the CDF.
func (c *CDF) N() int { return len(c.sorted) }

// Quantile returns the smallest sample x with P(X ≤ x) ≥ q, for
// q ∈ (0, 1]. It panics on an empty CDF or q out of range.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		panic("mathx: Quantile of empty CDF")
	}
	if q <= 0 || q > 1 {
		panic(fmt.Sprintf("mathx: Quantile q=%g out of (0,1]", q))
	}
	// The k-th smallest sample has P(X ≤ x) ≥ k/n, so search the counts
	// k for the first with k/n ≥ q. Computing ceil(q·n) instead rounds
	// up whenever q·n lands just above an integer (q = 0.28, n = 25).
	n := len(c.sorted)
	k := sort.Search(n, func(i int) bool { return float64(i+1)/float64(n) >= q })
	return c.sorted[k]
}

// Min returns the smallest sample. It panics on an empty CDF.
func (c *CDF) Min() float64 {
	if len(c.sorted) == 0 {
		panic("mathx: Min of empty CDF")
	}
	return c.sorted[0]
}

// Max returns the largest sample. It panics on an empty CDF.
func (c *CDF) Max() float64 {
	if len(c.sorted) == 0 {
		panic("mathx: Max of empty CDF")
	}
	return c.sorted[len(c.sorted)-1]
}

// Points returns up to n evenly spaced (x, P(X≤x)) points for plotting.
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	out := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(c.sorted) - 1) / max(n-1, 1)
		x := c.sorted[idx]
		out = append(out, [2]float64{x, float64(idx+1) / float64(len(c.sorted))})
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
