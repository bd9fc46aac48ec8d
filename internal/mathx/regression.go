package mathx

import (
	"fmt"
	"math"
)

// SolveLinear solves the linear system a·x = b by Gaussian elimination
// with partial pivoting. a and b are not modified. It returns an error
// on a singular (or numerically singular) system.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("mathx: SolveLinear shape mismatch: %dx? vs %d", n, len(b))
	}
	// Working copies.
	m := make([][]float64, n)
	for i := range a {
		if len(a[i]) != n {
			return nil, fmt.Errorf("mathx: SolveLinear non-square row %d", i)
		}
		m[i] = Clone(a[i])
	}
	x := Clone(b)

	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("mathx: SolveLinear singular at column %d", col)
		}
		m[col], m[pivot] = m[pivot], m[col]
		x[col], x[pivot] = x[pivot], x[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for col := n - 1; col >= 0; col-- {
		s := x[col]
		for c := col + 1; c < n; c++ {
			s -= m[col][c] * x[c]
		}
		x[col] = s / m[col][col]
	}
	return x, nil
}

// LeastSquares fits coefficients c minimizing ‖Φ·c − y‖² where Φ[i][j]
// is basis function j evaluated at sample i. It returns an error if the
// normal equations are singular or shapes mismatch.
func LeastSquares(phi [][]float64, y []float64) ([]float64, error) {
	n := len(phi)
	if n == 0 || len(y) != n {
		return nil, fmt.Errorf("mathx: LeastSquares shape mismatch: %d rows vs %d targets", n, len(y))
	}
	k := len(phi[0])
	if k == 0 {
		return nil, fmt.Errorf("mathx: LeastSquares with zero basis functions")
	}
	// Normal equations ΦᵀΦ c = Φᵀ y. k is tiny (≤ 4) in our fits.
	ata := make([][]float64, k)
	for i := range ata {
		ata[i] = make([]float64, k)
	}
	atb := make([]float64, k)
	for i := 0; i < n; i++ {
		row := phi[i]
		if len(row) != k {
			return nil, fmt.Errorf("mathx: LeastSquares ragged row %d", i)
		}
		for a := 0; a < k; a++ {
			atb[a] += row[a] * y[i]
			for b := a; b < k; b++ {
				ata[a][b] += row[a] * row[b]
			}
		}
	}
	for a := 0; a < k; a++ {
		for b := 0; b < a; b++ {
			ata[a][b] = ata[b][a]
		}
	}
	return SolveLinear(ata, atb)
}

// PolyFit fits a degree-d polynomial y ≈ Σ c[i]·xⁱ by least squares and
// returns the coefficients c (length d+1, constant term first).
func PolyFit(xs, ys []float64, degree int) ([]float64, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("mathx: PolyFit length mismatch %d != %d", len(xs), len(ys))
	}
	if degree < 0 {
		return nil, fmt.Errorf("mathx: PolyFit negative degree %d", degree)
	}
	if len(xs) < degree+1 {
		return nil, fmt.Errorf("mathx: PolyFit needs %d points for degree %d, have %d", degree+1, degree, len(xs))
	}
	phi := make([][]float64, len(xs))
	for i, x := range xs {
		row := make([]float64, degree+1)
		p := 1.0
		for j := 0; j <= degree; j++ {
			row[j] = p
			p *= x
		}
		phi[i] = row
	}
	return LeastSquares(phi, ys)
}

// PowerLaw is the fitted model y = A·x^B. The scheduler uses it as the
// non-linear regression that scales a profiled latency when the GPU
// space allocated to a task changes (§3.3): latency falls as a power of
// the allocated fraction, with B < 0 and |B| ≤ 1 capturing the
// sublinear speedup of real kernels.
type PowerLaw struct {
	A float64
	B float64
}

// FitPowerLaw fits y = A·x^B by linear regression in log-log space. All
// xs and ys must be strictly positive.
func FitPowerLaw(xs, ys []float64) (PowerLaw, error) {
	if len(xs) != len(ys) {
		return PowerLaw{}, fmt.Errorf("mathx: FitPowerLaw length mismatch %d != %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return PowerLaw{}, fmt.Errorf("mathx: FitPowerLaw needs at least 2 points, have %d", len(xs))
	}
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return PowerLaw{}, fmt.Errorf("mathx: FitPowerLaw non-positive point (%g, %g)", xs[i], ys[i])
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	c, err := PolyFit(lx, ly, 1)
	if err != nil {
		return PowerLaw{}, err
	}
	return PowerLaw{A: math.Exp(c[0]), B: c[1]}, nil
}

// At evaluates the power law at x.
func (p PowerLaw) At(x float64) float64 { return p.A * math.Pow(x, p.B) }
