// Package telemetry is the serving runtime's observability layer:
// fixed-bucket latency histograms with tail quantiles (p50/p90/p99/
// p99.9) and a structured JSONL decision-trace sink with a Chrome
// trace_event exporter, so a run can be inspected in
// chrome://tracing or Perfetto.
//
// The layer is designed to be left on in production runs without
// perturbing them, and to cost nothing when off:
//
//   - a nil *Collector is the no-op default — every method nil-checks
//     its receiver, takes only scalar arguments (no interface boxing,
//     no variadics), and is benchmark-guarded at 0 allocs/op, so the
//     serving hot path pays a predicted-not-taken branch and nothing
//     else;
//   - an enabled collector is strictly read-only with respect to the
//     simulation: it never draws from the shared RNG or mutates any
//     state the scheduler or executor observes, so runs with and
//     without telemetry produce bit-identical metrics.
package telemetry

import "math"

// Histogram bucket layout: log-spaced (HDR-style) bucket boundaries
// covering [1 µs, ~4300 s) with 8 buckets per octave, i.e. every
// bucket's upper bound is 2^(1/8) ≈ 1.09x its lower bound, bounding
// quantile error at ~9% of the value. Observations outside the range
// clamp into the first/last bucket; exact min/max/sum are tracked on
// the side.
const (
	histMinMs     = 1e-3 // 1 µs, in milliseconds
	perOctave     = 8
	histOctaves   = 32
	histBuckets   = histOctaves * perOctave
	invLog2Factor = perOctave // index = log2(v/min) * perOctave
)

// Histogram is a fixed-bucket latency histogram in milliseconds. It is
// not safe for concurrent use; each serving run owns its own.
type Histogram struct {
	counts [histBuckets]uint64
	count  uint64
	sum    float64
	min    float64
	max    float64
	// overflow counts observations above the top bucket's range. They
	// still clamp into the last bucket (quantiles stay monotone and
	// max is exact), but the count surfaces in Summary so a
	// pathological run cannot silently under-report its tail.
	overflow uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{min: math.Inf(1)} }

// bucketIndex returns the containing bucket and whether the value lay
// beyond the top bucket's range (clamped in).
func bucketIndex(ms float64) (int, bool) {
	if ms <= histMinMs {
		return 0, false
	}
	i := int(math.Log2(ms/histMinMs) * invLog2Factor)
	if i >= histBuckets {
		return histBuckets - 1, true
	}
	return i, false
}

// bucketUpper returns the upper bound (ms) of bucket i.
func bucketUpper(i int) float64 {
	return histMinMs * math.Exp2(float64(i+1)/perOctave)
}

// bucketLower returns the lower bound (ms) of bucket i.
func bucketLower(i int) float64 {
	if i == 0 {
		return 0
	}
	return histMinMs * math.Exp2(float64(i)/perOctave)
}

// ObserveMs records one latency observation in milliseconds. Negative
// values are ignored.
func (h *Histogram) ObserveMs(ms float64) {
	if h == nil || ms < 0 || math.IsNaN(ms) {
		return
	}
	i, over := bucketIndex(ms)
	h.counts[i]++
	if over {
		h.overflow++
	}
	h.count++
	h.sum += ms
	if ms < h.min {
		h.min = ms
	}
	if ms > h.max {
		h.max = ms
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Quantile returns the q-quantile (q ∈ [0, 1]) in milliseconds,
// linearly interpolated within the containing bucket. An empty
// histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	// rank ∈ [1, count]: the ceil of q*count-th smallest observation.
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		c := h.counts[i]
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := bucketLower(i), bucketUpper(i)
			if hi > h.max {
				hi = h.max
			}
			if lo < h.min {
				lo = h.min
			}
			if hi < lo {
				hi = lo
			}
			frac := float64(rank-cum) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return h.max
}

// Summary condenses a histogram into the tail quantiles the SLO
// analysis needs.
type Summary struct {
	Count  uint64
	MeanMs float64
	P50Ms  float64
	P90Ms  float64
	P99Ms  float64
	P999Ms float64
	MaxMs  float64
	// Overflow counts observations beyond the top bucket: nonzero
	// means the tail quantiles are clamped-bucket estimates and the
	// true p99.9 may be larger (MaxMs stays exact). Omitted from JSON
	// when zero, so well-ranged runs serialize unchanged.
	Overflow uint64 `json:",omitempty"`
}

// Summary returns the histogram's quantile summary.
func (h *Histogram) Summary() Summary {
	if h == nil || h.count == 0 {
		return Summary{}
	}
	return Summary{
		Count:    h.count,
		MeanMs:   h.sum / float64(h.count),
		P50Ms:    h.Quantile(0.50),
		P90Ms:    h.Quantile(0.90),
		P99Ms:    h.Quantile(0.99),
		P999Ms:   h.Quantile(0.999),
		MaxMs:    h.max,
		Overflow: h.overflow,
	}
}
