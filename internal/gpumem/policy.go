package gpumem

import (
	"fmt"

	"adainf/internal/simtime"
)

// Policy selects eviction victims. Higher scores are evicted first.
// The two policies below are the only implementations: the manager's
// eviction index relies on how each score depends on an entry.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Score rates an entry for eviction at the current instant; the
	// manager evicts the highest-scoring entries first. typeReuse is
	// the manager's current mean reuse latency (ms) of the entry's
	// reuse class, or a negative value if unknown.
	Score(e *entry, now simtime.Instant, typeReuseMs float64) float64
	// ageOrdered reports whether, given its class's reuse mean, Score
	// varies inside one eviction bucket (entries sharing a reuse class
	// and an SLO). If so it must be non-increasing in the entry's last
	// access for every now; otherwise it must be constant there.
	ageOrdered(typeReuseMs float64) bool
	// validate reports a parameter that would break those guarantees.
	validate() error
}

// LRUPolicy evicts the least-recently-used content first, ignoring data
// types and SLOs. It is the baseline the ablation variant AdaInf/M2
// degrades to.
type LRUPolicy struct{}

// Name implements Policy.
func (LRUPolicy) Name() string { return "lru" }

// Score implements Policy: older last access → higher score.
func (LRUPolicy) Score(e *entry, now simtime.Instant, _ float64) float64 {
	return now.Sub(e.lastAccess).Seconds()
}

func (LRUPolicy) ageOrdered(float64) bool { return true }

func (LRUPolicy) validate() error { return nil }

// PriorityPolicy is the paper's §3.4.2 eviction score
//
//	S_c = (1−α)·R_c + α·L_s
//
// with R_c the mean reuse-time latency (ms) of the content's data type
// (profiled per type, §2.4) and L_s the owning application's SLO (ms).
// Contents reused soon and contents belonging to tight-SLO applications
// score low and stay in GPU memory; high scorers are evicted first.
type PriorityPolicy struct {
	// Alpha weighs SLO against reuse time, in [0, 1]; the paper uses
	// 0.4 (§4).
	Alpha float64
}

// Name implements Policy.
func (p PriorityPolicy) Name() string { return "priority" }

// Score implements Policy.
func (p PriorityPolicy) Score(e *entry, now simtime.Instant, typeReuseMs float64) float64 {
	r := typeReuseMs
	if r < 0 {
		// No profile yet for this type: fall back to time since last
		// access as the reuse estimate, keeping behaviour sane during
		// warm-up.
		r = now.Sub(e.lastAccess).Seconds() * 1e3
	}
	return (1-p.Alpha)*r + p.Alpha*e.content.SLOms
}

// ageOrdered: with a known class mean every term is fixed by the
// bucket; before it, the fallback's weight 1−α is zero only at α = 1.
func (p PriorityPolicy) ageOrdered(typeReuseMs float64) bool {
	return typeReuseMs < 0 && p.Alpha != 1
}

// validate rejects an α outside [0, 1] (NaN included): α > 1 makes the
// fallback score grow with recency, reversing the eviction order.
func (p PriorityPolicy) validate() error {
	if !(p.Alpha >= 0 && p.Alpha <= 1) {
		return fmt.Errorf("gpumem: priority policy Alpha %g outside [0, 1]", p.Alpha)
	}
	return nil
}
