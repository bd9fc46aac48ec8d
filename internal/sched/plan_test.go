package sched

import (
	"fmt"
	"slices"
	"testing"

	"adainf/internal/dnn"
	"adainf/internal/profile"
	"adainf/internal/simtime"
)

// referenceWorstCase recomputes one node's worst-case latency off the
// table's grid, without Table.PerBatch: the structure found by exit
// depth, the batch found on the batch axis, then the measured cell when
// the clamped fraction lies on the fraction axis and the fitted law
// otherwise, times ceil(requests/batch).
func referenceWorstCase(t *profile.Table, st dnn.Structure, batch, requests int, fraction float64) (simtime.Duration, error) {
	if requests <= 0 {
		return 0, nil
	}
	si := -1
	for i := 0; i < t.NumStructs(); i++ {
		if t.Structure(i).ExitAfter() == st.ExitAfter() {
			si = i
		}
	}
	bi := slices.Index(t.Batches(), batch)
	if si < 0 || bi < 0 || fraction <= 0 {
		return 0, fmt.Errorf("node %q: no profile for %v at batch %d fraction %g", t.Node(), st, batch, fraction)
	}
	fraction = min(fraction, 1)
	per := simtime.Duration(t.Law(si, bi).At(fraction))
	if fi := t.FracIdx(fraction); fi >= 0 {
		per, _ = t.Cell(si, bi, fi)
	}
	return per * simtime.Duration((requests+batch-1)/batch), nil
}

// referenceJobWorstCase recomputes JobWorstCase off the tables' grids
// (referenceWorstCase), as an independent oracle.
func referenceJobWorstCase(jr *JobRequest, structs []dnn.Structure, batch int, fraction float64) (simtime.Duration, error) {
	var total simtime.Duration
	for n, t := range jr.Profile.Tables() {
		wc, err := referenceWorstCase(t, structs[n], batch, jr.Requests, fraction)
		if err != nil {
			return 0, err
		}
		total += wc
	}
	return total, nil
}

// structVariants returns structure selections to cross-check: every
// node at its full structure, and every node at its smallest one.
func structVariants(jr *JobRequest) [][]dnn.Structure {
	full := AppendFullStructures(nil, jr)
	small := make([]dnn.Structure, 0, len(full))
	for _, ni := range jr.Instance.Nodes() {
		small = append(small, ni.Structures[0])
	}
	return [][]dnn.Structure{full, small}
}

// TestJobWorstCaseMatchesReference cross-checks the table-backed
// JobWorstCase — with and without a LatencyCache installed — against
// the grid oracle over a requests × fraction × structures grid.
func TestJobWorstCaseMatchesReference(t *testing.T) {
	_, prof := fixture(t)
	requests := []int{1, 3, 8, 17, 40, 100, 240}
	fractions := []float64{0.05, 0.1, 0.3, 0.5, 0.77, 1.0}
	cache := profile.NewLatencyCache(prof)
	for _, req := range requests {
		jr := jobReq(t, req)
		for _, structs := range structVariants(jr) {
			for _, f := range fractions {
				for _, b := range jr.Tables()[0].Batches() {
					want, err := referenceJobWorstCase(jr, structs, b, f)
					if err != nil {
						t.Fatalf("req=%d b=%d f=%g: reference: %v", req, b, f, err)
					}
					got, err := JobWorstCase(jr, structs, b, f)
					if err != nil {
						t.Fatalf("req=%d b=%d f=%g: %v", req, b, f, err)
					}
					if got != want {
						t.Fatalf("req=%d b=%d f=%g: table %v != reference %v", req, b, f, got, want)
					}
					jc := *jr
					jc.Costs = cache
					cached, err := JobWorstCase(&jc, structs, b, f)
					if err != nil {
						t.Fatalf("req=%d b=%d f=%g: cached: %v", req, b, f, err)
					}
					if cached != want {
						t.Fatalf("req=%d b=%d f=%g: cached %v != reference %v", req, b, f, cached, want)
					}
				}
			}
		}
	}
}

// TestAppendNodePlansMatchesReference checks the one per-node loop
// against the grid oracle: each appended node plan carries the
// node's name, position, structure and reference worst-case time,
// the returned total is JobWorstCase's, the slice's existing prefix is
// kept, and a supplied memo changes nothing.
func TestAppendNodePlansMatchesReference(t *testing.T) {
	_, prof := fixture(t)
	cache := profile.NewLatencyCache(prof)
	prefix := []NodePlan{{Node: "kept", RetrainSamples: 3}}
	for _, req := range []int{0, 1, 17, 240} {
		jr := jobReq(t, req)
		for _, structs := range structVariants(jr) {
			for _, f := range []float64{0.05, 0.3, 1.0} {
				for _, b := range jr.Tables()[0].Batches() {
					got, total, err := AppendNodePlans(append([]NodePlan(nil), prefix...), jr, structs, b, f)
					if err != nil {
						t.Fatalf("req=%d b=%d f=%g: %v", req, b, f, err)
					}
					if len(got) != len(prefix)+len(structs) || got[0] != prefix[0] {
						t.Fatalf("req=%d b=%d f=%g: prefix or length lost: %+v", req, b, f, got)
					}
					for n, tb := range jr.Profile.Tables() {
						want, err := referenceWorstCase(tb, structs[n], b, req, f)
						if err != nil {
							t.Fatal(err)
						}
						if got[1+n] != (NodePlan{Node: tb.Node(), Index: n, Structure: structs[n], InferTime: want}) {
							t.Fatalf("req=%d b=%d f=%g node %d: %+v, want %v at %v", req, b, f, n, got[1+n], tb.Node(), want)
						}
					}
					wc, err := JobWorstCase(jr, structs, b, f)
					if err != nil || total != wc {
						t.Fatalf("req=%d b=%d f=%g: total %v, JobWorstCase %v (%v)", req, b, f, total, wc, err)
					}
					jc := *jr
					jc.Costs = cache
					cached, cachedTotal, err := AppendNodePlans(append([]NodePlan(nil), prefix...), &jc, structs, b, f)
					if err != nil || cachedTotal != total || !slices.Equal(cached, got) {
						t.Fatalf("req=%d b=%d f=%g: memo gave %+v (%v, %v), want %+v", req, b, f, cached, cachedTotal, err, got)
					}
				}
			}
		}
	}
	// An unprofiled batch is an error that leaves dst unextended.
	jr := jobReq(t, 8)
	got, _, err := AppendNodePlans(prefix, jr, AppendFullStructures(nil, jr), 3, 0.5)
	if err == nil || len(got) != len(prefix) {
		t.Fatalf("unprofiled batch: %d plans, err %v", len(got), err)
	}
}

// TestAppendNodePlansSetsIndex checks that each appended plan's Index
// is its node's position in the job's app, not its position in dst, and
// that the position names the same node as the plan.
func TestAppendNodePlansSetsIndex(t *testing.T) {
	jr := jobReq(t, 17)
	prefix := []NodePlan{{Node: "a", Index: 7}, {Node: "b", Index: 9}}
	got, _, err := AppendNodePlans(prefix, jr, AppendFullStructures(nil, jr), jr.Tables()[0].Batches()[0], 0.5)
	if err != nil {
		t.Fatal(err)
	}
	nodes := jr.Instance.Nodes()
	if len(got) != len(prefix)+len(nodes) || got[0].Index != 7 || got[1].Index != 9 {
		t.Fatalf("prefix or length lost: %+v", got)
	}
	for n, ni := range nodes {
		if np := got[len(prefix)+n]; np.Index != n || np.Node != ni.Node.Name {
			t.Fatalf("plan %d = %+v, want node %q at index %d", len(prefix)+n, np, ni.Node.Name, n)
		}
	}
}

// TestBestBatchMatchesLinearScan cross-checks the two-rise early-exit
// scan against an exhaustive linear scan over every profiled batch
// size, on the same grid as the worst-case oracle test.
func TestBestBatchMatchesLinearScan(t *testing.T) {
	requests := []int{1, 3, 8, 17, 40, 100, 240}
	fractions := []float64{0.05, 0.1, 0.3, 0.5, 0.77, 1.0}
	for _, req := range requests {
		jr := jobReq(t, req)
		for _, structs := range structVariants(jr) {
			for _, f := range fractions {
				var (
					wantBatch int
					wantLat   simtime.Duration
				)
				for _, b := range jr.Tables()[0].Batches() {
					lat, err := JobWorstCase(jr, structs, b, f)
					if err != nil {
						t.Fatalf("req=%d b=%d f=%g: %v", req, b, f, err)
					}
					if wantBatch == 0 || lat < wantLat {
						wantBatch, wantLat = b, lat
					}
				}
				gotBatch, gotLat, err := BestBatch(jr, structs, f)
				if err != nil {
					t.Fatalf("req=%d f=%g: %v", req, f, err)
				}
				if gotBatch != wantBatch || gotLat != wantLat {
					t.Fatalf("req=%d f=%g: BestBatch = (%d, %v), linear scan = (%d, %v)",
						req, f, gotBatch, gotLat, wantBatch, wantLat)
				}
			}
		}
	}
}
