package mat

import (
	"fmt"
	"math"
	"sort"
)

// Eigen holds the eigendecomposition of a symmetric matrix:
// A = V diag(Values) Vᵀ with orthonormal columns in V. Eigenvalues are
// sorted in decreasing order.
type Eigen struct {
	Values []float64
	V      *Dense
}

// FactorEigenSym computes the eigendecomposition of a symmetric matrix
// by the classical (two-sided) Jacobi method. Symmetry is required but
// only spot-verified; pass tol <= 0 for the default symmetry tolerance.
func FactorEigenSym(a *Dense, tol float64) (*Eigen, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("mat: FactorEigenSym requires square matrix, got %dx%d", a.rows, a.cols)
	}
	if tol <= 0 {
		tol = 1e-9 * (1 + a.MaxAbs())
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > tol {
				return nil, fmt.Errorf("mat: matrix not symmetric at (%d,%d): %g vs %g", i, j, a.At(i, j), a.At(j, i))
			}
		}
	}
	w := a.Clone()
	v := Identity(n)
	eps := math.Nextafter(1, 2) - 1

	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Off-diagonal Frobenius norm for convergence.
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += 2 * w.At(i, j) * w.At(i, j)
			}
		}
		if math.Sqrt(off) <= eps*float64(n)*(1+w.MaxAbs()) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if apq == 0 { //gridlint:ignore floatcmp Jacobi rotation of an exactly-zero off-diagonal is the identity
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(1+theta*theta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				// Rotate rows/columns p and q of the working matrix.
				for k := 0; k < n; k++ {
					wkp := w.At(k, p)
					wkq := w.At(k, q)
					w.Set(k, p, c*wkp-s*wkq)
					w.Set(k, q, s*wkp+c*wkq)
				}
				for k := 0; k < n; k++ {
					wpk := w.At(p, k)
					wqk := w.At(q, k)
					w.Set(p, k, c*wpk-s*wqk)
					w.Set(q, k, s*wpk+c*wqk)
				}
				// Accumulate the rotation into V.
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return vals[order[a]] > vals[order[b]] })
	sorted := make([]float64, n)
	for k, i := range order {
		sorted[k] = vals[i]
	}
	return &Eigen{Values: sorted, V: v.SelectCols(order)}, nil
}
