package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKLDivergence(t *testing.T) {
	p := []float64{0.5, 0.5}
	if got := KLDivergence(p, p); got != 0 {
		t.Fatalf("D(p||p) = %v, want 0", got)
	}
	q := []float64{0.9, 0.1}
	if got := KLDivergence(p, q); got <= 0 {
		t.Fatalf("D(p||q) = %v, want > 0", got)
	}
	// Support mismatch yields +Inf.
	if got := KLDivergence([]float64{1, 0}, []float64{0, 1}); !math.IsInf(got, 1) {
		t.Fatalf("disjoint support = %v, want +Inf", got)
	}
	// Zero p terms contribute nothing.
	if got := KLDivergence([]float64{0, 1}, []float64{0.5, 0.5}); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("KL = %v, want 1 bit", got)
	}
}

func TestJSDivergenceKnownValues(t *testing.T) {
	// Identical distributions → 0; disjoint distributions → 1 bit.
	p := []float64{0.3, 0.7}
	if got := JSDivergence(p, p); got != 0 {
		t.Fatalf("JS(p,p) = %v", got)
	}
	if got := JSDivergence([]float64{1, 0}, []float64{0, 1}); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("JS disjoint = %v, want 1", got)
	}
}

// Properties: JS is symmetric, bounded in [0,1], zero iff equal.
func TestJSDivergenceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		n := 2 + rng.Intn(8)
		p := make([]float64, n)
		q := make([]float64, n)
		for j := range p {
			p[j] = rng.Float64()
			q[j] = rng.Float64()
		}
		p, q = Normalize(p), Normalize(q)
		d1 := JSDivergence(p, q)
		d2 := JSDivergence(q, p)
		if !almostEqual(d1, d2, 1e-12) {
			t.Fatalf("asymmetric: %v vs %v", d1, d2)
		}
		if d1 < 0 || d1 > 1 {
			t.Fatalf("out of bounds: %v", d1)
		}
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{2, 6})
	if !almostEqual(out[0], 0.25, 1e-12) || !almostEqual(out[1], 0.75, 1e-12) {
		t.Fatalf("Normalize = %v", out)
	}
	// All-zero becomes uniform.
	u := Normalize([]float64{0, 0, 0, 0})
	for _, x := range u {
		if !almostEqual(x, 0.25, 1e-12) {
			t.Fatalf("uniform fallback = %v", u)
		}
	}
	if got := Normalize(nil); len(got) != 0 {
		t.Fatalf("Normalize(nil) = %v", got)
	}
}

func TestNormalizePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative weight")
		}
	}()
	Normalize([]float64{1, -1})
}

// Property: normalized output sums to 1 for any non-negative input.
func TestNormalizeSumsToOne(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		w := make([]float64, len(raw))
		var any bool
		for i, x := range raw {
			w[i] = float64(x)
			any = any || x > 0
		}
		out := Normalize(w)
		var sum float64
		for _, x := range out {
			sum += x
		}
		_ = any
		return almostEqual(sum, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
