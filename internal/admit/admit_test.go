package admit

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"adainf/internal/cluster"
	"adainf/internal/simtime"
)

// linLatency models a session whose latency scales linearly with the
// request count and inversely with the GPU fraction: n requests at
// fraction f take n*per/f. It is nonincreasing in f and nondecreasing
// in n, the two monotonicity contracts Evaluate's bisections rely on.
func linLatency(per simtime.Duration) func(int, float64) (simtime.Duration, error) {
	return func(n int, f float64) (simtime.Duration, error) {
		return simtime.Duration(float64(n) * float64(per) / f), nil
	}
}

func slo(d time.Duration) simtime.Duration { return simtime.Duration(d) }

// TestEvaluateFeasible pins the happy path: when every application's
// minimal fraction fits the capacity, the full load is admitted, the
// outcome is feasible, nothing is shed, and the decisions come back in
// (rank, name) order regardless of input order.
func TestEvaluateFeasible(t *testing.T) {
	apps := []App{
		{Name: "b", Rank: 1, Requests: 10, SLO: slo(time.Second), Latency: linLatency(simtime.Duration(10 * time.Millisecond))},
		{Name: "a", Rank: 0, Requests: 20, SLO: slo(time.Second), Latency: linLatency(simtime.Duration(10 * time.Millisecond))},
	}
	out, err := Evaluate(1.0, apps)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Feasible {
		t.Fatal("light load judged infeasible")
	}
	if out.TotalShed() != 0 {
		t.Fatalf("feasible lane shed %d requests", out.TotalShed())
	}
	if got := []string{out.Decisions[0].Name, out.Decisions[1].Name}; got[0] != "a" || got[1] != "b" {
		t.Fatalf("decisions not in rank order: %v", got)
	}
	for _, d := range out.Decisions {
		if d.Admitted != d.Requests || d.Shed != 0 {
			t.Fatalf("feasible decision capped load: %+v", d)
		}
		// 20 req × 10ms = 200ms at f=1; 1s SLO needs f ≥ 0.20.
		if d.Fraction < cluster.MinFraction || d.Fraction > 1 {
			t.Fatalf("fraction %g off the grid", d.Fraction)
		}
	}
	if a := out.Decisions[0]; math.Abs(a.Fraction-0.20) > 1e-9 {
		t.Fatalf("app a minimal fraction = %g, want 0.20", a.Fraction)
	}
	if out.TotalFraction() > 1+1e-9 {
		t.Fatalf("admitted %g of a 1.0 lane", out.TotalFraction())
	}
}

// TestEvaluateShedsTailFirst pins the degraded path: with capacity for
// roughly one application, the rank-0 app is admitted in full, the
// marginal app keeps the largest serveable request count, and shedding
// never exceeds what infeasibility requires.
func TestEvaluateShedsTailFirst(t *testing.T) {
	per := simtime.Duration(10 * time.Millisecond)
	apps := []App{
		{Name: "heavy", Rank: 0, Requests: 80, SLO: slo(time.Second), Latency: linLatency(per)},
		{Name: "light", Rank: 1, Requests: 80, SLO: slo(time.Second), Latency: linLatency(per)},
	}
	// Each app alone needs 80×10ms/f ≤ 1s ⇒ f ≥ 0.80; both need 1.60.
	out, err := Evaluate(1.0, apps)
	if err != nil {
		t.Fatal(err)
	}
	if out.Feasible {
		t.Fatal("overload judged feasible")
	}
	h, l := out.Decisions[0], out.Decisions[1]
	if h.Name != "heavy" || h.Admitted != 80 || h.Shed != 0 {
		t.Fatalf("rank-0 app not admitted in full: %+v", h)
	}
	// Residual 0.20 serves 0.20×1s/10ms = 20 requests.
	if l.Admitted != 20 || l.Shed != 60 {
		t.Fatalf("marginal app admitted %d / shed %d, want 20 / 60", l.Admitted, l.Shed)
	}
	if out.TotalFraction() > 1+1e-9 {
		t.Fatalf("plan consumes %g of a 1.0 lane", out.TotalFraction())
	}
	if out.TotalShed() != 60 {
		t.Fatalf("TotalShed = %d, want 60", out.TotalShed())
	}
}

// TestEvaluateShedsWholeTail pins that applications past the marginal
// one are shed entirely: three identical apps on capacity for one.
func TestEvaluateShedsWholeTail(t *testing.T) {
	per := simtime.Duration(10 * time.Millisecond)
	mk := func(name string, rank int) App {
		return App{Name: name, Rank: rank, Requests: 100, SLO: slo(time.Second), Latency: linLatency(per)}
	}
	// Each app needs the whole lane (f = 1.00): the first is admitted,
	// the rest have no residual capacity at all.
	out, err := Evaluate(1.0, []App{mk("c", 2), mk("a", 0), mk("b", 1)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Feasible {
		t.Fatal("3× overload judged feasible")
	}
	if d := out.Decisions[0]; d.Name != "a" || d.Admitted != 100 {
		t.Fatalf("rank-0 decision %+v", d)
	}
	for _, d := range out.Decisions[1:] {
		if d.Admitted != 0 || d.Shed != 100 || d.Fraction != 0 {
			t.Fatalf("tail app %q not shed entirely: %+v", d.Name, d)
		}
	}
}

// TestEvaluateZeroAndErrorInputs covers the edges: zero-request apps
// cost nothing, non-positive capacity and negative predictions are
// rejected, and a failing latency probe surfaces with the app named.
func TestEvaluateZeroAndErrorInputs(t *testing.T) {
	if _, err := Evaluate(0, nil); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := Evaluate(-1, nil); err == nil {
		t.Error("negative capacity accepted")
	}
	bad := []App{{Name: "x", Rank: 0, Requests: -1, SLO: slo(time.Second), Latency: linLatency(1)}}
	if _, err := Evaluate(1, bad); err == nil || !strings.Contains(err.Error(), `"x"`) {
		t.Errorf("negative prediction: %v", err)
	}
	probeErr := errors.New("probe exploded")
	failing := []App{{Name: "y", Rank: 0, Requests: 5, SLO: slo(time.Second),
		Latency: func(int, float64) (simtime.Duration, error) { return 0, probeErr }}}
	if _, err := Evaluate(1, failing); !errors.Is(err, probeErr) || !strings.Contains(err.Error(), `"y"`) {
		t.Errorf("probe error lost: %v", err)
	}

	idle := []App{{Name: "z", Rank: 0, Requests: 0, SLO: slo(time.Second), Latency: linLatency(1)}}
	out, err := Evaluate(1, idle)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Feasible || out.Decisions[0].Fraction != 0 || out.TotalShed() != 0 {
		t.Fatalf("idle app charged capacity: %+v", out)
	}
}

// TestEvaluateFractionalLane pins the sub-1.0 lane regime the failover
// artifact runs in (per-lane capacity GPUs/NGPUs < 1): fractions stay
// on the quantized grid, never exceed the lane, and an app whose single
// request misses SLO even at full capacity is shed to zero.
func TestEvaluateFractionalLane(t *testing.T) {
	per := simtime.Duration(10 * time.Millisecond)
	apps := []App{
		{Name: "a", Rank: 0, Requests: 30, SLO: slo(time.Second), Latency: linLatency(per)},
		{Name: "b", Rank: 1, Requests: 30, SLO: slo(time.Second), Latency: linLatency(per)},
	}
	// Each needs f ≥ 0.30; the 0.5 lane fits one plus 2/3 of the other.
	out, err := Evaluate(0.5, apps)
	if err != nil {
		t.Fatal(err)
	}
	if out.Feasible {
		t.Fatal("0.60 demand judged feasible on a 0.5 lane")
	}
	if out.TotalFraction() > 0.5+1e-9 {
		t.Fatalf("plan consumes %g of a 0.5 lane", out.TotalFraction())
	}
	for _, d := range out.Decisions {
		steps := d.Fraction / FractionStep
		if math.Abs(steps-math.Round(steps)) > 1e-6 {
			t.Fatalf("fraction %g off the %g grid", d.Fraction, FractionStep)
		}
	}
	if d := out.Decisions[1]; d.Admitted != 20 || d.Shed != 10 {
		t.Fatalf("marginal decision %+v, want 20 admitted / 10 shed", d)
	}

	// An SLO impossible even at the full lane: everything shed.
	hopeless := []App{{Name: "h", Rank: 0, Requests: 1, SLO: slo(time.Microsecond), Latency: linLatency(per)}}
	out, err = Evaluate(0.5, hopeless)
	if err != nil {
		t.Fatal(err)
	}
	if out.Feasible || out.Decisions[0].Admitted != 0 || out.Decisions[0].Shed != 1 {
		t.Fatalf("hopeless SLO not fully shed: %+v", out.Decisions[0])
	}
}

// TestEvaluateDeterministic pins purity: the same inputs produce
// deeply equal outcomes across repeats and input permutations.
func TestEvaluateDeterministic(t *testing.T) {
	per := simtime.Duration(7 * time.Millisecond)
	apps := []App{
		{Name: "a", Rank: 0, Requests: 55, SLO: slo(400 * time.Millisecond), Latency: linLatency(per)},
		{Name: "b", Rank: 1, Requests: 40, SLO: slo(600 * time.Millisecond), Latency: linLatency(per)},
		{Name: "c", Rank: 2, Requests: 25, SLO: slo(300 * time.Millisecond), Latency: linLatency(per)},
	}
	ref, err := Evaluate(0.75, apps)
	if err != nil {
		t.Fatal(err)
	}
	perms := [][]App{
		{apps[2], apps[0], apps[1]},
		{apps[1], apps[2], apps[0]},
	}
	for _, p := range perms {
		got, err := Evaluate(0.75, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Feasible != ref.Feasible || len(got.Decisions) != len(ref.Decisions) {
			t.Fatalf("outcome shape diverged: %+v vs %+v", got, ref)
		}
		for i := range got.Decisions {
			if got.Decisions[i] != ref.Decisions[i] {
				t.Fatalf("decision %d diverged: %+v vs %+v", i, got.Decisions[i], ref.Decisions[i])
			}
		}
	}
}
