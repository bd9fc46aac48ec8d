package dist

import (
	"math"
	"testing"
	"testing/quick"

	"adainf/internal/mathx"
)

func mustCat(t *testing.T, labels []string, w []float64) *Categorical {
	t.Helper()
	c, err := NewCategorical(labels, w)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCategoricalValidation(t *testing.T) {
	if _, err := NewCategorical(nil, nil); err == nil {
		t.Error("no error on empty")
	}
	if _, err := NewCategorical([]string{"a"}, []float64{1, 2}); err == nil {
		t.Error("no error on length mismatch")
	}
	if _, err := NewCategorical([]string{"a", "b"}, []float64{1, -1}); err == nil {
		t.Error("no error on negative weight")
	}
	if _, err := NewCategorical([]string{"a"}, []float64{math.NaN()}); err == nil {
		t.Error("no error on NaN weight")
	}
}

func TestCategoricalNormalizes(t *testing.T) {
	c := mustCat(t, []string{"car", "bus"}, []float64{3, 1})
	if got := c.Prob(0); got != 0.75 {
		t.Fatalf("Prob(0) = %v, want 0.75", got)
	}
	if c.K() != 2 {
		t.Fatalf("K = %d, want 2", c.K())
	}
}

func TestSampleMatchesDistribution(t *testing.T) {
	c := mustCat(t, []string{"a", "b", "c"}, []float64{0.6, 0.3, 0.1})
	rng := NewRNG(17)
	const n = 100000
	counts := make([]int, 3)
	for i := 0; i < n; i++ {
		counts[c.Sample(rng)]++
	}
	for i, want := range []float64{0.6, 0.3, 0.1} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("class %d frequency %v, want ~%v", i, got, want)
		}
	}
}

// TestSampleCDFMatchesSample checks that drawing from AppendCDF's
// vector returns exactly Sample's class, draw for draw, on random
// distributions that include zero-probability classes (leading, inner
// and trailing), and that AppendCDF keeps dst's prefix.
func TestSampleCDFMatchesSample(t *testing.T) {
	gen := NewRNG(3)
	for trial := 0; trial < 200; trial++ {
		k := 1 + gen.Intn(12)
		labels := make([]string, k)
		w := make([]float64, k)
		for i := range w {
			labels[i] = string(rune('a' + i))
			if gen.Intn(3) > 0 {
				w[i] = gen.Float64()
			}
		}
		w[gen.Intn(k)] += 0.01 // at least one class carries mass
		c := mustCat(t, labels, w)
		cdf := c.AppendCDF([]float64{-1})
		if len(cdf) != k+1 || cdf[0] != -1 || cdf[1] != c.Prob(0) {
			t.Fatalf("trial %d: cdf %v for probs %v", trial, cdf, c.Probs())
		}
		cdf = cdf[1:]
		seed := gen.Int63()
		a, b := NewRNG(seed), NewRNG(seed)
		for d := 0; d < 500; d++ {
			if got, want := SampleCDF(b, cdf), c.Sample(a); got != want {
				t.Fatalf("trial %d draw %d: SampleCDF %d, Sample %d (probs %v)", trial, d, got, want, c.Probs())
			}
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("trial %d: the two streams drifted apart", trial)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	c := mustCat(t, []string{"a", "b"}, []float64{1, 1})
	cl := c.Clone()
	cl.probs[0] = 0.9
	if c.Prob(0) != 0.5 {
		t.Fatal("Clone shares probability storage")
	}
}

func TestProbsReturnsCopy(t *testing.T) {
	c := mustCat(t, []string{"a", "b"}, []float64{1, 1})
	p := c.Probs()
	p[0] = 99
	if c.Prob(0) != 0.5 {
		t.Fatal("Probs leaked internal storage")
	}
}

func TestJSDivergenceOfCategoricals(t *testing.T) {
	a := mustCat(t, []string{"x", "y"}, []float64{1, 0})
	b := mustCat(t, []string{"x", "y"}, []float64{0, 1})
	if got := a.JSDivergence(b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("JS = %v, want 1", got)
	}
	if got := a.JSDivergence(a); got != 0 {
		t.Fatalf("JS self = %v", got)
	}
}

func TestBlend(t *testing.T) {
	blend := func(tt float64) *Categorical {
		a := mustCat(t, []string{"x", "y"}, []float64{1, 0})
		a.BlendInPlace(mustCat(t, []string{"x", "y"}, []float64{0, 1}), tt)
		return a
	}
	if m := blend(0.5); math.Abs(m.Prob(0)-0.5) > 1e-12 {
		t.Fatalf("Blend(0.5) = %v", m.Probs())
	}
	if got := blend(0); got.Prob(0) != 1 {
		t.Fatalf("Blend(0) = %v", got.Probs())
	}
	if got := blend(1); got.Prob(1) != 1 {
		t.Fatalf("Blend(1) = %v", got.Probs())
	}
	// Clamped outside [0,1].
	if got := blend(2); got.Prob(1) != 1 {
		t.Fatalf("Blend(2) = %v", got.Probs())
	}
}

// referenceBlend is the allocating blend BlendInPlace replaced: clamp
// t, blend into a fresh vector, then mathx.Normalize it.
func referenceBlend(c, target []float64, t float64) []float64 {
	t = mathx.Clamp(t, 0, 1)
	p := make([]float64, len(c))
	for i := range p {
		p[i] = (1-t)*c[i] + t*target[i]
	}
	return mathx.Normalize(p)
}

// TestBlendInPlaceMatchesReference checks the in-place blend bit for
// bit against the allocating blend-then-normalize sequence, over random
// class counts, weights (some zero) and fractions, including the
// clamped and subnormal ends and the all-zero → uniform rule.
func TestBlendInPlaceMatchesReference(t *testing.T) {
	rng := NewRNG(23)
	fractions := []float64{-1, 0, 1e-300, 0.5, 1, 2}
	randomWeights := func(k int) []float64 {
		w := make([]float64, k)
		for i := range w {
			if rng.Intn(4) > 0 {
				w[i] = rng.ExpFloat64()
			}
		}
		w[rng.Intn(k)] += rng.Float64() + 1e-3 // never all zero
		return w
	}
	check := func(c, target *Categorical, tt float64) {
		t.Helper()
		want := referenceBlend(c.probs, target.probs, tt)
		c.BlendInPlace(target, tt)
		for i := range want {
			if math.Float64bits(c.probs[i]) != math.Float64bits(want[i]) {
				t.Fatalf("K=%d t=%g class %d: %v, want %v", c.K(), tt, i, c.probs[i], want[i])
			}
		}
	}
	for trial := 0; trial < 500; trial++ {
		k := 2 + rng.Intn(11)
		labels := make([]string, k)
		for i := range labels {
			labels[i] = string(rune('a' + i))
		}
		c := mustCat(t, labels, randomWeights(k))
		target := mustCat(t, labels, randomWeights(k))
		for _, tt := range append(fractions, rng.Float64(), rng.NormFloat64()) {
			check(c, target, tt)
		}
		// A self-blend reads and writes the same storage.
		check(c, c, rng.Float64())
	}
	zero := &Categorical{labels: []string{"a", "b", "c"}, probs: make([]float64, 3)}
	check(zero, &Categorical{labels: zero.labels, probs: make([]float64, 3)}, 0.5)
	if zero.Prob(0) != 1.0/3 {
		t.Fatalf("all-zero blend = %v, want uniform", zero.probs)
	}
}

func TestBlendInPlacePanics(t *testing.T) {
	for name, blend := range map[string]func(){
		"class mismatch": func() {
			a := mustCat(t, []string{"x", "y"}, []float64{1, 1})
			a.BlendInPlace(mustCat(t, []string{"x"}, []float64{1}), 0.5)
		},
		"negative weight": func() {
			a := &Categorical{labels: []string{"x", "y"}, probs: []float64{-1, 2}}
			a.BlendInPlace(a, 0.5)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			blend()
		}()
	}
}

func TestZeroLabelDriftIsIdentity(t *testing.T) {
	c := mustCat(t, []string{"a", "b", "c"}, []float64{5, 3, 2})
	rng := NewRNG(3)
	got := LabelDrift{}.Evolve(rng, c)
	if d := c.JSDivergence(got); d != 0 {
		t.Fatalf("zero drift changed distribution: JS=%v", d)
	}
}

func TestLabelDriftMovesDistribution(t *testing.T) {
	c := mustCat(t, []string{"a", "b", "c", "d"}, []float64{1, 1, 1, 1})
	rng := NewRNG(4)
	d := LabelDrift{WalkSigma: 0.5, ShockProb: 0.3, ShockScale: 2}
	moved := 0
	cur := c
	for i := 0; i < 20; i++ {
		next := d.Evolve(rng, cur)
		if cur.JSDivergence(next) > 1e-6 {
			moved++
		}
		cur = next
	}
	if moved < 18 {
		t.Fatalf("drift rarely moved the distribution: %d/20", moved)
	}
}

// Property: drift always yields a valid distribution (sums to 1, all
// probabilities in [0,1]).
func TestLabelDriftProducesValidDistribution(t *testing.T) {
	f := func(seed int64, sigmaRaw, shockRaw uint8) bool {
		rng := NewRNG(seed)
		c, err := NewCategorical([]string{"a", "b", "c"}, []float64{2, 1, 1})
		if err != nil {
			return false
		}
		d := LabelDrift{
			WalkSigma:  float64(sigmaRaw) / 64,
			ShockProb:  float64(shockRaw%100) / 100,
			ShockScale: 3,
		}
		for i := 0; i < 10; i++ {
			c = d.Evolve(rng, c)
			var sum float64
			for _, p := range c.Probs() {
				if p < 0 || p > 1 || math.IsNaN(p) {
					return false
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLabelDriftDeterministicForSeed(t *testing.T) {
	c := mustCat(t, []string{"a", "b"}, []float64{1, 1})
	d := LabelDrift{WalkSigma: 0.4, ShockProb: 0.5, ShockScale: 1}
	a := d.Evolve(NewRNG(99), c)
	b := d.Evolve(NewRNG(99), c)
	if a.JSDivergence(b) != 0 {
		t.Fatal("same seed produced different drift")
	}
}
