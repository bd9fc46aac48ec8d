// Package trace provides inference request arrival processes.
//
// The paper drives its workload with the archived Twitter streaming
// trace, which "resembles real-world inference workload": a diurnal
// base load with superimposed bursts. This package synthesizes an
// arrival-rate curve with the same shape (TwitterLike), draws Poisson
// arrivals from any rate curve (Generator), and predicts per-session
// request counts the way the schedulers do on-line (EWMA Predictor).
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"adainf/internal/dist"
	"adainf/internal/simtime"
)

// RateCurve reports an instantaneous request rate in requests/second at
// a simulated instant.
type RateCurve interface {
	Rate(t simtime.Instant) float64
}

// Burst is a transient rate spike: rate is multiplied by (1 + Amplitude
// · envelope) where the envelope is a triangular pulse of the given
// width centred at Center.
type Burst struct {
	Center    simtime.Instant
	Width     simtime.Duration
	Amplitude float64
}

func (b Burst) factorAt(t simtime.Instant) float64 {
	if b.Width <= 0 {
		return 0
	}
	half := b.Width / 2
	d := t.Sub(b.Center)
	if d < 0 {
		d = -d
	}
	if d >= half {
		return 0
	}
	return b.Amplitude * (1 - float64(d)/float64(half))
}

// TwitterLike is a synthetic rate curve shaped like the Twitter
// streaming trace: base rate, a diurnal sinusoid, and bursts.
type TwitterLike struct {
	// Base is the average rate in requests/second.
	Base float64
	// DiurnalAmp ∈ [0, 1) scales the sinusoidal day/night swing.
	DiurnalAmp float64
	// DiurnalPeriod is the length of one diurnal cycle. For short
	// simulations this is compressed (the paper replays 1000 s).
	DiurnalPeriod simtime.Duration
	// Bursts are transient spikes layered on top.
	Bursts []Burst
}

// Rate implements RateCurve. It never returns a negative rate.
func (w TwitterLike) Rate(t simtime.Instant) float64 {
	r := w.Base
	if w.DiurnalPeriod > 0 && w.DiurnalAmp != 0 {
		phase := 2 * math.Pi * float64(t.Duration()%w.DiurnalPeriod) / float64(w.DiurnalPeriod)
		r *= 1 + w.DiurnalAmp*math.Sin(phase)
	}
	var burst float64
	for _, b := range w.Bursts {
		burst += b.factorAt(t)
	}
	r *= 1 + burst
	if r < 0 {
		return 0
	}
	return r
}

// DefaultTwitterLike returns the curve used by the experiments: the
// requested mean rate, a 30% diurnal swing compressed into 500 s, and
// deterministic bursts seeded from seed.
func DefaultTwitterLike(meanRate float64, horizon simtime.Duration, seed int64) TwitterLike {
	rng := dist.NewRNG(seed)
	nBursts := int(horizon/(100*time.Second)) + 1
	bursts := make([]Burst, 0, nBursts)
	for i := 0; i < nBursts; i++ {
		bursts = append(bursts, Burst{
			Center:    simtime.Instant(time.Duration(rng.Int63n(int64(horizon)))),
			Width:     time.Duration(5+rng.Intn(20)) * time.Second,
			Amplitude: 1.0 + 1.5*rng.Float64(),
		})
	}
	return TwitterLike{
		Base:          meanRate,
		DiurnalAmp:    0.3,
		DiurnalPeriod: 500 * time.Second,
		Bursts:        bursts,
	}
}

// Generator draws Poisson arrivals from a rate curve. It is not safe
// for concurrent use.
type Generator struct {
	curve RateCurve
	rng   *rand.Rand
}

// NewGenerator returns a seeded generator over the curve.
func NewGenerator(curve RateCurve, seed int64) *Generator {
	if curve == nil {
		panic("trace: nil rate curve")
	}
	return &Generator{curve: curve, rng: dist.NewRNG(seed)}
}

// CountInWindow draws the number of arrivals in [from, to) as a Poisson
// variate with mean ∫rate. The integral is approximated by sampling the
// rate at the window midpoint — windows here are 5 ms sessions, far
// shorter than any rate variation.
func (g *Generator) CountInWindow(from, to simtime.Instant) int {
	if !to.After(from) {
		return 0
	}
	mid := from.Add(to.Sub(from) / 2)
	mean := g.curve.Rate(mid) * to.Sub(from).Seconds()
	return poisson(g.rng, mean)
}

// poisson draws a Poisson variate. Knuth's method for small means, a
// normal approximation for large ones.
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		n := int(math.Round(mean + math.Sqrt(mean)*rng.NormFloat64()))
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Predictor estimates the next session's request count from the
// observed counts of past sessions with an exponentially weighted
// moving average, as the schedulers must plan for requests that have
// not arrived yet ("predicted based on request rate as in [10]").
type Predictor struct {
	alpha  float64
	ewma   float64
	primed bool
}

// NewPredictor returns a predictor with smoothing factor alpha ∈ (0, 1].
func NewPredictor(alpha float64) (*Predictor, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("trace: predictor alpha %g out of (0,1]", alpha)
	}
	return &Predictor{alpha: alpha}, nil
}

// Observe feeds the actual request count of the session that just ended.
func (p *Predictor) Observe(count int) {
	x := float64(count)
	if !p.primed {
		p.ewma = x
		p.primed = true
		return
	}
	p.ewma = p.alpha*x + (1-p.alpha)*p.ewma
}

// Predict returns the estimated request count for the next session,
// rounded up so the scheduler never under-provisions on ties. Before
// any observation it returns 0.
func (p *Predictor) Predict() int {
	if !p.primed {
		return 0
	}
	return int(math.Ceil(p.ewma))
}
