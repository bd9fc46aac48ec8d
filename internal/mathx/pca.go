package mathx

import (
	"fmt"
	"math"
)

// PCA holds a fitted principal-component basis. AdaInf applies PCA to
// high-dimensional feature vectors before computing cosine distances so
// the distances are dominated by the directions of real variation
// rather than noise (§3.2).
type PCA struct {
	mean       []float64   // per-feature mean of the fitted data
	components [][]float64 // principal axes, row per component, unit norm
}

// FitPCA fits k principal components to the rows of data using the
// covariance method with Jacobi eigendecomposition. k is capped at the
// feature dimension. It returns an error on empty or ragged input or
// non-positive k.
func FitPCA(data [][]float64, k int) (*PCA, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("mathx: FitPCA on zero samples")
	}
	d := len(data[0])
	if d == 0 {
		return nil, fmt.Errorf("mathx: FitPCA on zero-dimensional samples")
	}
	for i, r := range data {
		if len(r) != d {
			return nil, fmt.Errorf("mathx: FitPCA ragged row %d: len %d != %d", i, len(r), d)
		}
	}
	if k <= 0 {
		return nil, fmt.Errorf("mathx: FitPCA with k=%d", k)
	}
	if k > d {
		k = d
	}

	mean := Mean(data)
	// Covariance matrix (d×d). Feature dimensions here are small
	// (tens), so the dense O(n·d²) build is fine. Each row is centered
	// once into a buffer; the products read the same doubles as
	// centering inside the loop would, so the sums are unchanged.
	cov := make([][]float64, d)
	for i := range cov {
		cov[i] = make([]float64, d)
	}
	centered := make([]float64, d)
	for _, r := range data {
		for i, x := range r {
			centered[i] = x - mean[i]
		}
		for i, ci := range centered {
			row := cov[i]
			for j := i; j < d; j++ {
				row[j] += ci * centered[j]
			}
		}
	}
	invN := 1 / float64(len(data))
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			cov[i][j] *= invN
			cov[j][i] = cov[i][j]
		}
	}
	return fromCovariance(mean, cov, k), nil
}

// fromCovariance eigendecomposes the covariance matrix cov (modified in
// place) and keeps the k components of largest variance.
func fromCovariance(mean []float64, cov [][]float64, k int) *PCA {
	d := len(cov)
	vals, vecs := jacobiEigen(cov)
	// Sort eigenpairs by decreasing eigenvalue (selection sort; d small).
	for i := 0; i < d; i++ {
		maxAt := i
		for j := i + 1; j < d; j++ {
			if vals[j] > vals[maxAt] {
				maxAt = j
			}
		}
		vals[i], vals[maxAt] = vals[maxAt], vals[i]
		vecs[i], vecs[maxAt] = vecs[maxAt], vecs[i]
	}

	return &PCA{
		mean:       mean,
		components: vecs[:k],
	}
}

// Dim returns the input feature dimension the PCA was fitted on.
func (p *PCA) Dim() int { return len(p.mean) }

// Mean returns the per-feature mean of the data the PCA was fitted on.
func (p *PCA) Mean() []float64 { return Clone(p.mean) }

// Components returns the number of principal components retained.
func (p *PCA) Components() int { return len(p.components) }

// Project projects v onto the principal axes WITHOUT mean-centering.
// Use this when downstream math is origin-sensitive — e.g. cosine
// distances between reduced vectors, where centering on the fitted
// data's mean would collapse that mean to the zero vector and destroy
// the angles. It panics on a dimension mismatch.
func (p *PCA) Project(v []float64) []float64 {
	out := make([]float64, len(p.components))
	p.ProjectInto(out, v)
	return out
}

// ProjectInto is Project writing into dst, which must have length
// Components(); it lets a caller projecting many vectors reuse one
// buffer. It panics on a dimension mismatch.
func (p *PCA) ProjectInto(dst, v []float64) {
	if len(v) != len(p.mean) {
		panic(fmt.Sprintf("mathx: PCA.Project dim %d != fitted %d", len(v), len(p.mean)))
	}
	if len(dst) != len(p.components) {
		panic(fmt.Sprintf("mathx: PCA.ProjectInto dst len %d != %d components", len(dst), len(p.components)))
	}
	for i, c := range p.components {
		dst[i] = Dot(v, c)
	}
}

// jacobiEigen computes eigenvalues and eigenvectors of the symmetric
// matrix a (modified in place) using cyclic Jacobi rotations. It returns
// eigenvalues and eigenvectors as rows.
func jacobiEigen(a [][]float64) ([]float64, [][]float64) {
	n := len(a)
	v := make([][]float64, n) // eigenvector matrix, columns accumulate rotations
	for i := range v {
		v[i] = make([]float64, n)
		v[i][i] = 1
	}
	const (
		maxSweeps = 100
		eps       = 1e-12
	)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a[i][j] * a[i][j]
			}
		}
		if off < eps {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				if math.Abs(a[p][q]) < eps/float64(n*n) {
					continue
				}
				// Compute the Jacobi rotation zeroing a[p][q].
				theta := (a[q][q] - a[p][p]) / (2 * a[p][q])
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					akp, akq := a[k][p], a[k][q]
					a[k][p] = c*akp - s*akq
					a[k][q] = s*akp + c*akq
				}
				for k := 0; k < n; k++ {
					apk, aqk := a[p][k], a[q][k]
					a[p][k] = c*apk - s*aqk
					a[q][k] = s*apk + c*aqk
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v[k][p], v[k][q]
					v[k][p] = c*vkp - s*vkq
					v[k][q] = s*vkp + c*vkq
				}
			}
		}
	}
	vals := make([]float64, n)
	vecs := make([][]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = a[i][i]
		vecs[i] = make([]float64, n)
		for k := 0; k < n; k++ {
			vecs[i][k] = v[k][i] // column i of v is eigenvector i
		}
	}
	return vals, vecs
}
