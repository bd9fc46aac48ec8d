// Package admit is the SLO-feasibility gate that decides, per period
// and per GPU lane, whether the lane's surviving capacity can serve
// every application's predicted load within its latency SLO — and, when
// it cannot, which load to shed. It exists for capacity-loss regimes
// (a lane crash re-packed more applications onto fewer GPUs, see
// internal/cluster.Replace) where no schedule can meet every SLO: the
// runtime then degrades deterministically instead of missing SLOs
// blindly — retraining is suspended, every job drops to its smallest
// profiled structure, and excess requests are shed from the
// least-impactful applications upward (rank order), never more than the
// infeasibility requires.
//
// The gate is a pure function of its inputs: the lane capacity, each
// application's predicted peak session load, SLO, rank, and a latency
// probe over the application's smallest structures. It consumes no
// randomness and holds no state, so admission decisions are
// byte-identical across repeats.
package admit

import (
	"fmt"
	"sort"

	"adainf/internal/cluster"
	"adainf/internal/simtime"
)

// FractionStep is the GPU-fraction quantization of the gate's search
// grid, matching the serving loop's share quantization.
const FractionStep = 0.01

// MinFraction is the smallest schedulable GPU fraction, the serving
// loop's floor.
const MinFraction = cluster.MinFraction

// App is one application's admission inputs for a lane-period.
type App struct {
	// Name identifies the application.
	Name string
	// Rank is the predicted-load rank (0 = most loaded, shed last).
	Rank int
	// Requests is the application's peak predicted per-session request
	// count this period.
	Requests int
	// SLO is the per-session latency objective.
	SLO simtime.Duration
	// Latency predicts the session latency of serving n requests at GPU
	// fraction f on the application's smallest profiled structures.
	Latency func(n int, f float64) (simtime.Duration, error)
}

// Decision is the gate's outcome for one application.
type Decision struct {
	// Name identifies the application.
	Name string
	// Rank is the application's predicted-load rank, echoed from App.
	Rank int
	// Requests echoes the predicted peak session load.
	Requests int
	// Admitted is the per-session request cap the gate granted.
	Admitted int
	// Shed is Requests − Admitted: the predicted per-session excess.
	Shed int
	// Fraction is the minimal quantized GPU fraction at which the
	// admitted requests meet the SLO (0 when nothing is admitted).
	Fraction float64
}

// Outcome is one lane's admission plan for one period.
type Outcome struct {
	// Feasible reports whether the full predicted load fits within the
	// capacity at SLO on the smallest structures. Infeasible lanes run
	// in the degraded-admission state: retraining suspended, smallest
	// structures, shedding per the decisions.
	Feasible bool
	// Decisions are the per-application outcomes in (rank, name) order
	// — most impactful first, so shedding starts from the tail.
	Decisions []Decision
}

// TotalShed sums the per-session shed caps across the decisions.
func (o *Outcome) TotalShed() int {
	n := 0
	for i := range o.Decisions {
		n += o.Decisions[i].Shed
	}
	return n
}

// TotalFraction sums the admitted fractions — the lane capacity the
// plan consumes, which the auditor bounds by the gate's capacity.
func (o *Outcome) TotalFraction() float64 {
	var f float64
	for i := range o.Decisions {
		f += o.Decisions[i].Fraction
	}
	return f
}

// Evaluate runs the feasibility gate for one lane: capacity is the
// lane's GPU amount. When every application's minimal feasible fraction
// fits within the capacity, the load is admitted in full; otherwise
// applications are admitted greedily in rank order (most impactful
// first), the marginal application keeps the largest request count its
// residual capacity still serves within SLO, and everything after it is
// shed entirely.
func Evaluate(capacity float64, apps []App) (Outcome, error) {
	if capacity <= 0 {
		return Outcome{}, fmt.Errorf("admit: capacity %g must be positive", capacity)
	}
	order := make([]App, len(apps))
	copy(order, apps)
	sort.Slice(order, func(i, j int) bool {
		if order[i].Rank != order[j].Rank {
			return order[i].Rank < order[j].Rank
		}
		return order[i].Name < order[j].Name
	})

	out := Outcome{Feasible: true, Decisions: make([]Decision, len(order))}
	need := make([]float64, len(order))
	var total float64
	for i := range order {
		a := &order[i]
		if a.Requests < 0 {
			return Outcome{}, fmt.Errorf("admit: app %q predicts %d requests", a.Name, a.Requests)
		}
		f, err := minFraction(a, a.Requests, capacity)
		if err != nil {
			return Outcome{}, err
		}
		if f < 0 {
			// Even the whole lane cannot serve the predicted load in
			// time; the gate fails and the greedy pass below decides how
			// much of this load survives.
			out.Feasible = false
			f = capacity
		}
		need[i] = f
		total += f
	}
	if out.Feasible && total <= capacity+slack(capacity) {
		for i := range order {
			a := &order[i]
			out.Decisions[i] = Decision{
				Name: a.Name, Rank: a.Rank, Requests: a.Requests,
				Admitted: a.Requests, Fraction: need[i],
			}
		}
		return out, nil
	}

	// Infeasible: admit in rank order while capacity remains.
	out.Feasible = false
	remaining := capacity
	for i := range order {
		a := &order[i]
		d := Decision{Name: a.Name, Rank: a.Rank, Requests: a.Requests}
		switch {
		case a.Requests == 0:
			// Nothing predicted, nothing to admit or shed.
		case remaining >= MinFraction:
			f, err := minFraction(a, a.Requests, remaining)
			if err != nil {
				return Outcome{}, err
			}
			if f >= 0 {
				d.Admitted, d.Fraction = a.Requests, f
			} else {
				// The marginal application: the largest admissible
				// request count within the residual capacity. Latency is
				// nondecreasing in the request count, so binary search.
				n, f2, err := maxRequests(a, remaining)
				if err != nil {
					return Outcome{}, err
				}
				d.Admitted, d.Fraction = n, f2
			}
		}
		d.Shed = a.Requests - d.Admitted
		remaining -= d.Fraction
		out.Decisions[i] = d
	}
	return out, nil
}

func slack(capacity float64) float64 {
	if capacity < 1 {
		return 1e-9
	}
	return 1e-9 * capacity
}

// minFraction finds the smallest fraction on the quantized grid within
// [MinFraction, min(1, limit)] whose latency meets the SLO, or -1 when
// none does. Latency is nonincreasing in the fraction, so the grid is
// scanned by bisection.
func minFraction(a *App, n int, limit float64) (float64, error) {
	if n == 0 {
		return 0, nil
	}
	hi := limit
	if hi > 1 {
		hi = 1
	}
	steps := int(hi/FractionStep + 1e-9)
	hiF := float64(steps) * FractionStep
	if hiF < MinFraction {
		return -1, nil
	}
	ok := func(f float64) (bool, error) {
		lat, err := a.Latency(n, f)
		if err != nil {
			return false, fmt.Errorf("admit: app %q: %w", a.Name, err)
		}
		return lat <= a.SLO, nil
	}
	if fits, err := ok(hiF); err != nil {
		return 0, err
	} else if !fits {
		return -1, nil
	}
	lo := int(MinFraction / FractionStep) // 0.02 / 0.01: the grid's floor index
	hiI := steps
	for lo < hiI {
		mid := (lo + hiI) / 2
		fits, err := ok(float64(mid) * FractionStep)
		if err != nil {
			return 0, err
		}
		if fits {
			hiI = mid
		} else {
			lo = mid + 1
		}
	}
	return float64(hiI) * FractionStep, nil
}

// maxRequests finds the largest request count the residual capacity
// serves within SLO, and its minimal fraction. Zero when even one
// request cannot be served in time.
func maxRequests(a *App, limit float64) (int, float64, error) {
	lo, hi := 0, a.Requests
	for lo < hi {
		mid := (lo + hi + 1) / 2
		f, err := minFraction(a, mid, limit)
		if err != nil {
			return 0, 0, err
		}
		if f >= 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if lo == 0 {
		return 0, 0, nil
	}
	f, err := minFraction(a, lo, limit)
	if err != nil {
		return 0, 0, err
	}
	return lo, f, nil
}
