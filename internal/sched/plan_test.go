package sched

import (
	"fmt"
	"slices"
	"testing"

	"adainf/internal/dnn"
	"adainf/internal/profile"
	"adainf/internal/simtime"
)

// structureProfile returns np's profile of the structure with st's exit
// depth, found by walking np.Structures.
func structureProfile(np *profile.NodeProfiles, st dnn.Structure) (*profile.StructureProfile, error) {
	for _, sp := range np.Structures {
		if sp.Structure.ExitAfter() == st.ExitAfter() {
			return sp, nil
		}
	}
	return nil, fmt.Errorf("node %q has no profile for %v", np.Node, st)
}

// referenceJobWorstCase recomputes JobWorstCase through the profiles'
// structure list (structureProfile → StructureProfile.WorstCase)
// instead of the flattened tables, as an independent oracle.
func referenceJobWorstCase(jr *JobRequest, structs []dnn.Structure, batch int, fraction float64) (simtime.Duration, error) {
	var total simtime.Duration
	for n, np := range jr.Profile.Index() {
		sp, err := structureProfile(np, structs[n])
		if err != nil {
			return 0, err
		}
		wc, err := sp.WorstCase(batch, jr.Requests, fraction)
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
	full := FullStructures(jr)
	small := make([]dnn.Structure, 0, len(full))
	for _, ni := range jr.Instance.Nodes() {
		small = append(small, ni.Structures[0])
	}
	return [][]dnn.Structure{full, small}
}

// TestJobWorstCaseMatchesReference cross-checks the table-backed
// JobWorstCase — with and without a LatencyCache installed — against
// the map-walk oracle over a requests × fraction × structures grid.
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
// against the map-walk oracle: each appended node plan carries the
// node's name, position, structure and StructureProfile.WorstCase time,
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
					for n, np := range jr.Profile.Index() {
						sp, err := structureProfile(np, structs[n])
						if err != nil {
							t.Fatal(err)
						}
						want, err := sp.WorstCase(b, req, f)
						if err != nil {
							t.Fatal(err)
						}
						if got[1+n] != (NodePlan{Node: np.Node, Index: n, Structure: structs[n], InferTime: want}) {
							t.Fatalf("req=%d b=%d f=%g node %d: %+v, want %v at %v", req, b, f, n, got[1+n], np.Node, want)
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
	got, _, err := AppendNodePlans(prefix, jr, FullStructures(jr), 3, 0.5)
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
	got, _, err := AppendNodePlans(prefix, jr, FullStructures(jr), jr.Tables()[0].Batches()[0], 0.5)
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
