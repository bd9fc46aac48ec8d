package mathx

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestFitPCAErrors(t *testing.T) {
	if _, err := FitPCA(nil, 2); err == nil {
		t.Error("no error on empty data")
	}
	if _, err := FitPCA([][]float64{{}}, 2); err == nil {
		t.Error("no error on zero-dimensional data")
	}
	if _, err := FitPCA([][]float64{{1, 2}, {1}}, 1); err == nil {
		t.Error("no error on ragged data")
	}
	if _, err := FitPCA([][]float64{{1, 2}}, 0); err == nil {
		t.Error("no error on k=0")
	}
}

func TestPCARecoverDominantAxis(t *testing.T) {
	// Points spread along the direction (1, 1, 0)/√2 with tiny noise in
	// other directions: PCA's first component must align with it.
	rng := rand.New(rand.NewSource(42))
	data := make([][]float64, 500)
	for i := range data {
		s := rng.NormFloat64() * 10
		data[i] = []float64{
			s/math.Sqrt2 + rng.NormFloat64()*0.01,
			s/math.Sqrt2 + rng.NormFloat64()*0.01,
			rng.NormFloat64() * 0.01,
		}
	}
	p, err := FitPCA(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	c0 := p.components[0]
	align := math.Abs(Dot(c0, []float64{1 / math.Sqrt2, 1 / math.Sqrt2, 0}))
	if align < 0.999 {
		t.Fatalf("first component %v misaligned: |cos| = %v", c0, align)
	}
	vars := projectedVariances(p, data)
	if vars[0] < 50 || vars[1] > 1 {
		t.Fatalf("variances %v do not reflect the dominant axis", vars)
	}
}

func TestPCAVariancesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([][]float64, 200)
	for i := range data {
		row := make([]float64, 6)
		for j := range row {
			row[j] = rng.NormFloat64() * float64(j+1)
		}
		data[i] = row
	}
	p, err := FitPCA(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	vars := projectedVariances(p, data)
	for i := 1; i < len(vars); i++ {
		if vars[i] > vars[i-1]+1e-9 {
			t.Fatalf("variances not sorted: %v", vars)
		}
	}
}

func TestPCATransformDimensions(t *testing.T) {
	data := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}, {0, 1, 0}}
	p, err := FitPCA(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Dim() != 3 || p.Components() != 2 {
		t.Fatalf("Dim=%d Components=%d", p.Dim(), p.Components())
	}
	if out := p.Project(data[0]); len(out) != 2 {
		t.Fatalf("Project len = %d", len(out))
	}
}

func TestPCAKCappedAtDim(t *testing.T) {
	data := [][]float64{{1, 2}, {3, 4}, {5, 7}}
	p, err := FitPCA(data, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p.Components() != 2 {
		t.Fatalf("Components = %d, want capped at 2", p.Components())
	}
}

// Property: projection preserves total variance when all components are
// kept (Parseval for the orthonormal eigenbasis).
func TestPCAPreservesVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	data := make([][]float64, 300)
	for i := range data {
		row := make([]float64, 5)
		for j := range row {
			row[j] = rng.NormFloat64()*float64(j+1) + float64(j)
		}
		data[i] = row
	}
	p, err := FitPCA(data, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Total variance in the original space.
	mean := Mean(data)
	var orig float64
	for _, r := range data {
		for j, x := range r {
			orig += (x - mean[j]) * (x - mean[j])
		}
	}
	orig /= float64(len(data))
	var kept float64
	for _, v := range projectedVariances(p, data) {
		kept += v
	}
	if !almostEqual(orig, kept, 1e-6*orig) {
		t.Fatalf("variance not preserved: orig %v vs projected %v", orig, kept)
	}
}

// projectedVariances returns the variance of data along each of p's
// components, in component order.
func projectedVariances(p *PCA, data [][]float64) []float64 {
	proj := make([][]float64, len(data))
	for i, r := range data {
		proj[i] = p.Project(r)
	}
	mean := Mean(proj)
	vars := make([]float64, p.Components())
	for _, r := range proj {
		for i, x := range r {
			vars[i] += (x - mean[i]) * (x - mean[i])
		}
	}
	for i := range vars {
		vars[i] /= float64(len(data))
	}
	return vars
}

func TestPCATransformPanicsOnDimMismatch(t *testing.T) {
	p, err := FitPCA([][]float64{{1, 2}, {3, 4}, {4, 6}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dimension mismatch")
		}
	}()
	p.Project([]float64{1, 2, 3})
}

// TestFitPCAMatchesNaiveCovariance pins FitPCA's row-centering buffer
// to the covariance built by centering every product's operands in
// place: both read the same doubles, so the fit must be bit-identical.
func TestFitPCAMatchesNaiveCovariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range []struct{ n, d, k int }{{1, 1, 1}, {5, 3, 2}, {200, 6, 4}, {1000, 17, 4}} {
		data := make([][]float64, shape.n)
		for i := range data {
			data[i] = make([]float64, shape.d)
			for j := range data[i] {
				data[i][j] = rng.NormFloat64()*float64(j+1) + rng.ExpFloat64()*1e3
			}
		}
		mean := Mean(data)
		cov := make([][]float64, shape.d)
		for i := range cov {
			cov[i] = make([]float64, shape.d)
		}
		for _, r := range data {
			for i := 0; i < shape.d; i++ {
				for j := i; j < shape.d; j++ {
					cov[i][j] += (r[i] - mean[i]) * (r[j] - mean[j])
				}
			}
		}
		invN := 1 / float64(shape.n)
		for i := 0; i < shape.d; i++ {
			for j := i; j < shape.d; j++ {
				cov[i][j] *= invN
				cov[j][i] = cov[i][j]
			}
		}
		want := fromCovariance(mean, cov, shape.k)
		got, err := FitPCA(data, shape.k)
		if err != nil {
			t.Fatal(err)
		}
		bits := func(rows ...[]float64) (out []uint64) {
			for _, r := range rows {
				for _, x := range r {
					out = append(out, math.Float64bits(x))
				}
			}
			return out
		}
		if !slices.Equal(bits(got.mean), bits(want.mean)) ||
			!slices.Equal(bits(got.components...), bits(want.components...)) {
			t.Fatalf("%+v: FitPCA differs from the naive covariance fit", shape)
		}
	}
}

func TestPCAProjectIntoAndMean(t *testing.T) {
	data := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}, {0, 1, 0}}
	p, err := FitPCA(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, p.Components())
	for _, r := range data {
		p.ProjectInto(dst, r)
		if !slices.Equal(dst, p.Project(r)) {
			t.Fatalf("ProjectInto %v != Project %v", dst, p.Project(r))
		}
	}
	m := p.Mean()
	if !slices.Equal(m, Mean(data)) {
		t.Fatalf("Mean() = %v, want %v", m, Mean(data))
	}
	m[0] = 99
	if p.Mean()[0] == 99 {
		t.Fatal("Mean() aliases the fitted mean")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on a short destination")
		}
	}()
	p.ProjectInto(dst[:1], data[0])
}
