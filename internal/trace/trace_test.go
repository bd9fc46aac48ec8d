package trace

import (
	"math"
	"testing"
	"time"

	"adainf/internal/simtime"
)

func sec(s float64) simtime.Instant {
	return simtime.Instant(time.Duration(s * float64(time.Second)))
}

func TestBurstEnvelope(t *testing.T) {
	b := Burst{Center: sec(100), Width: 20 * time.Second, Amplitude: 1}
	if got := b.factorAt(sec(100)); got != 1 {
		t.Fatalf("peak factor = %v, want 1", got)
	}
	if got := b.factorAt(sec(95)); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("half-way factor = %v, want 0.5", got)
	}
	if got := b.factorAt(sec(111)); got != 0 {
		t.Fatalf("outside factor = %v, want 0", got)
	}
	if got := (Burst{Width: 0}).factorAt(sec(0)); got != 0 {
		t.Fatalf("zero-width burst factor = %v", got)
	}
}

func TestTwitterLikeShape(t *testing.T) {
	w := TwitterLike{
		Base:          100,
		DiurnalAmp:    0.3,
		DiurnalPeriod: 400 * time.Second,
		Bursts:        []Burst{{Center: sec(50), Width: 10 * time.Second, Amplitude: 2}},
	}
	// Quarter period: sin = 1, so rate = 100·1.3.
	if got := w.Rate(sec(100)); math.Abs(got-130) > 1e-6 {
		t.Fatalf("diurnal peak = %v, want 130", got)
	}
	// Burst centre multiplies rate by (1+2).
	base := TwitterLike{Base: 100, DiurnalAmp: 0.3, DiurnalPeriod: 400 * time.Second}.Rate(sec(50))
	if got := w.Rate(sec(50)); math.Abs(got-3*base) > 1e-6 {
		t.Fatalf("burst rate = %v, want %v", got, 3*base)
	}
	// Never negative, even with extreme amplitude.
	neg := TwitterLike{Base: 10, DiurnalAmp: 0.9, DiurnalPeriod: 100 * time.Second,
		Bursts: []Burst{{Center: sec(75), Width: 10 * time.Second, Amplitude: -5}}}
	if got := neg.Rate(sec(75)); got < 0 {
		t.Fatalf("negative rate %v", got)
	}
}

func TestDefaultTwitterLikeDeterministic(t *testing.T) {
	a := DefaultTwitterLike(200, 1000*time.Second, 5)
	b := DefaultTwitterLike(200, 1000*time.Second, 5)
	if len(a.Bursts) != len(b.Bursts) {
		t.Fatal("burst counts differ for same seed")
	}
	for i := range a.Bursts {
		if a.Bursts[i] != b.Bursts[i] {
			t.Fatal("bursts differ for same seed")
		}
	}
	if len(a.Bursts) == 0 {
		t.Fatal("no bursts generated")
	}
}

func TestGeneratorMeanCount(t *testing.T) {
	g := NewGenerator(TwitterLike{Base: 1000}, 1)
	// 10,000 sessions of 5 ms at 1000 req/s → mean 5 per session.
	total := 0
	for i := 0; i < 10000; i++ {
		from := simtime.Instant(time.Duration(i) * 5 * time.Millisecond)
		total += g.CountInWindow(from, from.Add(5*time.Millisecond))
	}
	mean := float64(total) / 10000
	if math.Abs(mean-5) > 0.15 {
		t.Fatalf("mean per session = %v, want ~5", mean)
	}
}

func TestGeneratorLargeMeanUsesNormalApprox(t *testing.T) {
	g := NewGenerator(TwitterLike{Base: 1e6}, 2)
	n := g.CountInWindow(sec(0), sec(1))
	if math.Abs(float64(n)-1e6) > 5000 {
		t.Fatalf("large-mean draw = %d, want ~1e6", n)
	}
}

func TestGeneratorEmptyWindow(t *testing.T) {
	g := NewGenerator(TwitterLike{Base: 100}, 3)
	if got := g.CountInWindow(sec(5), sec(5)); got != 0 {
		t.Fatalf("empty window count = %d", got)
	}
	if got := g.CountInWindow(sec(5), sec(4)); got != 0 {
		t.Fatalf("inverted window count = %d", got)
	}
}

func TestNewGeneratorNilCurvePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on nil curve")
		}
	}()
	NewGenerator(nil, 1)
}

func TestPredictor(t *testing.T) {
	if _, err := NewPredictor(0); err == nil {
		t.Error("no error for alpha=0")
	}
	if _, err := NewPredictor(1.5); err == nil {
		t.Error("no error for alpha>1")
	}
	p, err := NewPredictor(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Predict(); got != 0 {
		t.Fatalf("unprimed Predict = %d, want 0", got)
	}
	p.Observe(10)
	if got := p.Predict(); got != 10 {
		t.Fatalf("first Predict = %d, want 10", got)
	}
	p.Observe(20)
	if got := p.Predict(); got != 15 {
		t.Fatalf("Predict after 10,20 = %d, want 15", got)
	}
	// Prediction rounds up.
	p2, _ := NewPredictor(0.5)
	p2.Observe(1)
	p2.Observe(2) // ewma 1.5 → ceil 2
	if got := p2.Predict(); got != 2 {
		t.Fatalf("Predict = %d, want 2", got)
	}
}

func TestPredictorConvergesToSteadyRate(t *testing.T) {
	p, _ := NewPredictor(0.3)
	for i := 0; i < 100; i++ {
		p.Observe(42)
	}
	if got := p.Predict(); got != 42 {
		t.Fatalf("steady-state Predict = %d, want 42", got)
	}
}
