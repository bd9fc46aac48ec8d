package mathx

import (
	"math"
	"testing"
)

func TestSolveLinear(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 1, 1e-9) || !almostEqual(x[1], 3, 1e-9) {
		t.Fatalf("x = %v, want [1 3]", x)
	}
	// Inputs untouched.
	if a[0][0] != 2 || b[0] != 5 {
		t.Fatal("inputs mutated")
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	if _, err := SolveLinear(a, []float64{1, 2}); err == nil {
		t.Fatal("no error on singular system")
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	x, err := SolveLinear(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 3, 1e-9) || !almostEqual(x[1], 2, 1e-9) {
		t.Fatalf("x = %v, want [3 2]", x)
	}
}

func TestPolyFitExact(t *testing.T) {
	// y = 2 − 3x + x²
	xs := []float64{-2, -1, 0, 1, 2, 3}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2 - 3*x + x*x
	}
	c, err := PolyFit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, -3, 1}
	for i := range want {
		if !almostEqual(c[i], want[i], 1e-8) {
			t.Fatalf("c = %v, want %v", c, want)
		}
	}
}

func TestPolyFitErrors(t *testing.T) {
	if _, err := PolyFit([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Error("no error on length mismatch")
	}
	if _, err := PolyFit([]float64{1, 2}, []float64{1, 2}, -1); err == nil {
		t.Error("no error on negative degree")
	}
	if _, err := PolyFit([]float64{1}, []float64{1}, 1); err == nil {
		t.Error("no error on underdetermined fit")
	}
}

func TestFitPowerLaw(t *testing.T) {
	// y = 7·x^(-0.8), the latency-vs-GPU-fraction shape used in §3.3.
	xs := []float64{0.25, 0.5, 0.75, 1}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 7 * math.Pow(x, -0.8)
	}
	p, err := FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(p.A, 7, 1e-6) || !almostEqual(p.B, -0.8, 1e-6) {
		t.Fatalf("fit = %+v, want A=7 B=-0.8", p)
	}
	if got, want := p.At(0.5), 7*math.Pow(0.5, -0.8); !almostEqual(got, want, 1e-6) {
		t.Fatalf("At(0.5) = %v, want %v", got, want)
	}
}

func TestFitPowerLawErrors(t *testing.T) {
	if _, err := FitPowerLaw([]float64{1}, []float64{1}); err == nil {
		t.Error("no error on single point")
	}
	if _, err := FitPowerLaw([]float64{1, -1}, []float64{1, 1}); err == nil {
		t.Error("no error on non-positive x")
	}
	if _, err := FitPowerLaw([]float64{1, 2}, []float64{1, 0}); err == nil {
		t.Error("no error on non-positive y")
	}
}

func TestLeastSquaresShapeErrors(t *testing.T) {
	if _, err := LeastSquares(nil, nil); err == nil {
		t.Error("no error on empty")
	}
	if _, err := LeastSquares([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Error("no error on ragged")
	}
}
