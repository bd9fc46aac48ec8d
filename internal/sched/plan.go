package sched

import (
	"fmt"
	"math"
	"slices"

	"adainf/internal/cluster"
	"adainf/internal/dnn"
	"adainf/internal/profile"
	"adainf/internal/simtime"
)

// PadRequests returns a conservative planning request count: the
// predicted count plus ~2 standard deviations of Poisson arrival noise.
// SLO-focused schedulers plan inference (and the retraining that fills
// the SLO's spare time) against this quantile so ordinary bursts do not
// blow the SLO; under-prediction beyond it is what produces the
// residual SLO misses of §5.1.
func PadRequests(predicted int) int {
	if predicted <= 0 {
		return 0
	}
	return predicted + int(math.Ceil(2*math.Sqrt(float64(predicted))))
}

// AppendFullStructures appends every node's full structure to dst,
// positionally aligned with Instance.Nodes() (= App.Nodes =
// Profile.Tables() order), reusing dst's capacity.
func AppendFullStructures(dst []dnn.Structure, jr *JobRequest) []dnn.Structure {
	for _, ni := range jr.Instance.Nodes() {
		dst = append(dst, ni.FullStructure())
	}
	return dst
}

// Tables returns the job's profile tables in node order
// (Instance.Nodes() = Profile.Tables() order), through its Costs memo
// when one is supplied.
func (jr *JobRequest) Tables() []*profile.Table {
	if jr.Costs != nil {
		return jr.Costs.Tables()
	}
	return jr.Profile.Tables()
}

// PerBatch probes the per-batch latency of the node-th table's
// structure si at batch index bi and the fraction, through the job's
// Costs memo when one is supplied and straight from the table
// otherwise. Both paths return the same latency bit for bit.
func (jr *JobRequest) PerBatch(node, si, bi int, fraction float64) (simtime.Duration, error) {
	if jr.Costs != nil {
		return jr.Costs.PerBatch(node, si, bi, fraction)
	}
	return jr.Profile.Tables()[node].PerBatch(si, bi, fraction)
}

// JobWorstCase sums the worst-case inference latency over the job's
// tasks for the structures (positional, node order), batch size, and
// GPU fraction — the DAG's tasks time-share the job's space, so the
// job's latency is the sum (§3.3.2).
func JobWorstCase(jr *JobRequest, structs []dnn.Structure, batch int, fraction float64) (simtime.Duration, error) {
	return nodeLatencies(jr, structs, batch, fraction, nil)
}

// AppendNodePlans appends one NodePlan per node of the job to dst: the
// node's position, its structure (structs is positional, node order)
// and its worst-case inference time at the batch size and fraction,
// ceil(Requests/batch) batches at the per-batch latency. It returns the
// extended slice and the job's inference time, the sum over its nodes,
// which is JobWorstCase's value. On error dst is returned unextended.
func AppendNodePlans(dst []NodePlan, jr *JobRequest, structs []dnn.Structure, batch int, fraction float64) ([]NodePlan, simtime.Duration, error) {
	start := len(dst)
	n := len(jr.Tables())
	dst = slices.Grow(dst, n)[:start+n]
	total, err := nodeLatencies(jr, structs, batch, fraction, dst[start:])
	if err != nil {
		return dst[:start], 0, err
	}
	return dst, total, nil
}

// nodeLatencies is the one per-node latency loop: it returns the job's
// worst-case inference time and, when out is non-nil (one entry per
// node), fills out with each node's plan.
func nodeLatencies(jr *JobRequest, structs []dnn.Structure, batch int, fraction float64, out []NodePlan) (simtime.Duration, error) {
	var total simtime.Duration
	nBatches := 0
	if jr.Requests > 0 {
		nBatches = (jr.Requests + batch - 1) / batch
	}
	for n, t := range jr.Tables() {
		si, err := t.StructIdx(structs[n])
		if err != nil {
			return 0, err
		}
		// A job with no requests takes no time, and its batch and
		// fraction go unvalidated.
		var it simtime.Duration
		if nBatches > 0 {
			per, err := jr.PerBatch(n, si, t.BatchIdx(batch), fraction)
			if err != nil {
				return 0, err
			}
			it = per * simtime.Duration(nBatches)
		}
		if out != nil {
			out[n] = NodePlan{Node: t.Node(), Index: n, Structure: structs[n], InferTime: it}
		}
		total += it
	}
	return total, nil
}

// BestBatch returns the profiled batch size minimizing the job's
// worst-case latency at the fraction (Observations 5–6). The scan
// exploits the curve's near-unimodal shape — worst-case latency falls
// while larger batches amortize fixed per-batch cost, then climbs once
// the batch exceeds the request count — and stops after two
// consecutive strict rises; a single rise is not trusted because the
// ceil(requests/batch) step function can dip once more right after one.
// TestBestBatchMatchesLinearScan cross-checks this against the full
// linear scan over every profiled batch set.
func BestBatch(jr *JobRequest, structs []dnn.Structure, fraction float64) (int, simtime.Duration, error) {
	batches := profile.DefaultBatchSizes
	if tables := jr.Tables(); len(tables) > 0 && tables[0].NumStructs() > 0 {
		batches = tables[0].Batches()
	}
	var (
		bestBatch int
		bestLat   simtime.Duration
		prev      simtime.Duration
		rises     int
	)
	for k, b := range batches {
		lat, err := JobWorstCase(jr, structs, b, fraction)
		if err != nil {
			return 0, 0, err
		}
		if bestBatch == 0 || lat < bestLat {
			bestBatch, bestLat = b, lat
		}
		if k > 0 && lat > prev {
			if rises++; rises >= 2 {
				break
			}
		} else {
			rises = 0
		}
		prev = lat
	}
	if bestBatch == 0 {
		return 0, 0, fmt.Errorf("sched: no batch sizes profiled for %q", jr.Instance.App.Name)
	}
	return bestBatch, bestLat, nil
}

// RequiredFraction finds the GPU space at which the job's worst-case
// latency meets its SLO, by bisection over the fitted scaling laws
// (the §3.3.1 "non-linear regression model" inversion), at the batch
// size that is best on a whole GPU for the structures (positional,
// node order; the callers pass the full structures).
// cluster.MinFraction floors the answer.
func RequiredFraction(jr *JobRequest, structs []dnn.Structure) (float64, error) {
	slo := simtime.Duration(jr.Instance.App.SLO)
	batch, atFull, err := BestBatch(jr, structs, 1.0)
	if err != nil {
		return 0, err
	}
	if atFull >= slo {
		return 1, nil // even a whole GPU cannot meet the SLO
	}
	lo, hi := cluster.MinFraction, 1.0
	if atLo, err := JobWorstCase(jr, structs, batch, lo); err != nil {
		return 0, err
	} else if atLo <= slo {
		return lo, nil
	}
	for i := 0; i < 32; i++ {
		mid := (lo + hi) / 2
		wc, err := JobWorstCase(jr, structs, batch, mid)
		if err != nil {
			return 0, err
		}
		if wc > slo {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
}
