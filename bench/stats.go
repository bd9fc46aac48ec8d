package main

import (
	"math"
	"sort"
)

// summary is a sample's median and quartiles. Quartiles follow
// Python's statistics.quantiles(n=4) ("exclusive" method), so the
// spreads printed here match the ones a reader recomputes from the raw
// values.
type summary struct {
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarize(values []float64) summary {
	s := summary{N: len(values), Values: append([]float64(nil), values...)}
	if len(values) == 0 {
		return s
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.Median = median(sorted)
	s.Q1, s.Q3 = s.Median, s.Median
	if m := len(sorted); m >= 2 {
		q := func(i int) float64 {
			j := min(max(i*(m+1)/4, 1), m-1)
			delta := i*(m+1) - j*4
			return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
		}
		s.Q1, s.Q3 = q(1), q(3)
	}
	return s
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// median of an already sorted sample.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func medianOf(values []float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return median(sorted)
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// an already sorted sample.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// sortedNs returns a sorted copy.
func sortedNs(ns []int64) []int64 {
	out := append([]int64(nil), ns...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
