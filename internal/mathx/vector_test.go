package mathx

import (
	"math"
	"math/rand"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm(t *testing.T) {
	if got := Norm([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm = %v, want 5", got)
	}
	if got := Norm(nil); got != 0 {
		t.Fatalf("Norm(nil) = %v, want 0", got)
	}
	// Robust to values that would overflow naive sum of squares.
	big := math.MaxFloat64 / 2
	if got := Norm([]float64{big, big}); math.IsInf(got, 1) {
		t.Fatalf("Norm overflowed: %v", got)
	}
}

func TestMean(t *testing.T) {
	m := Mean(matrix{{1, 2}, {3, 4}, {5, 6}})
	if m[0] != 3 || m[1] != 4 {
		t.Fatalf("Mean = %v", m)
	}
}

// Property: ‖a+b‖ ≤ ‖a‖+‖b‖ (triangle inequality).
func TestNormTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(16)
		a := make([]float64, n)
		b := make([]float64, n)
		sum := make([]float64, n)
		for j := range a {
			a[j] = rng.NormFloat64() * 100
			b[j] = rng.NormFloat64() * 100
			sum[j] = a[j] + b[j]
		}
		if Norm(sum) > Norm(a)+Norm(b)+1e-9 {
			t.Fatalf("triangle inequality violated for %v, %v", a, b)
		}
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp broken")
	}
}
