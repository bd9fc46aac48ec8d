// Package simtime defines the simulated-time types used throughout the
// AdaInf simulator.
//
// All simulated durations and instants are expressed as time.Duration
// values measured from the start of the simulation (instant zero). The
// package also encodes the two scheduling granularities of the paper:
//
//   - a Session is the 5 ms window for which the scheduler makes one
//     resource-allocation decision (§3.1), and
//   - a Period is the 50 s window at which the retraining-inference DAG
//     is regenerated and drift impact is re-evaluated (§3.2).
package simtime

import "time"

// Instant is a point in simulated time, measured from simulation start.
type Instant time.Duration

// Duration aliases time.Duration for simulated spans. Using the standard
// type keeps arithmetic and formatting free.
type Duration = time.Duration

// Default scheduling granularities from the paper.
const (
	// DefaultSession is the time-session length: the scheduler plans
	// resource allocation for each 5 ms session (§3.1).
	DefaultSession = 5 * time.Millisecond
	// DefaultPeriod is the time-period length: drift detection and DAG
	// regeneration happen every 50 s (§3.2).
	DefaultPeriod = 50 * time.Second
)

// Add returns the instant d after t.
func (t Instant) Add(d Duration) Instant { return t + Instant(d) }

// Sub returns the span from u to t (t − u).
func (t Instant) Sub(u Instant) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Instant) Before(u Instant) bool { return t < u }

// After reports whether t follows u.
func (t Instant) After(u Instant) bool { return t > u }

// Duration reports t as a span from simulation start.
func (t Instant) Duration() Duration { return Duration(t) }

// String formats the instant as a duration offset, e.g. "1m23.456s".
func (t Instant) String() string { return Duration(t).String() }

// Clock tracks session and period boundaries for a simulation.
type Clock struct {
	Session Duration // session length (default 5 ms)
	Period  Duration // period length (default 50 s)
}

// NewClock returns a Clock with the paper's default granularities.
func NewClock() Clock {
	return Clock{Session: DefaultSession, Period: DefaultPeriod}
}

// SessionStart returns the start instant of session i.
func (c Clock) SessionStart(i int) Instant { return Instant(Duration(i) * c.Session) }

// PeriodStart returns the start instant of period i.
func (c Clock) PeriodStart(i int) Instant { return Instant(Duration(i) * c.Period) }

// SessionsPerPeriod returns how many whole sessions fit in one period.
func (c Clock) SessionsPerPeriod() int {
	if c.Session <= 0 || c.Period <= 0 {
		panic("simtime: non-positive clock granularity")
	}
	return int(c.Period / c.Session)
}
