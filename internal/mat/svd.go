package mat

import (
	"math"
	"sort"
)

// SVD holds a thin singular value decomposition A = U * diag(S) * V^T,
// where A is m-by-n, U is m-by-k, V is n-by-k, k = min(m, n), and the
// singular values in S are sorted in decreasing order.
type SVD struct {
	U *Dense
	S []float64
	V *Dense
}

// FactorSVD computes the thin SVD of a using the one-sided Jacobi
// (Hestenes) method. For m < n the decomposition is computed on the
// transpose and the factors swapped, so the routine accepts any shape.
//
// One-sided Jacobi is chosen over Golub–Kahan bidiagonalization because it
// is simple, unconditionally convergent, and computes small singular
// values to high relative accuracy — which matters here because the
// detector keys off the *lowest* singular directions of the phasor data
// (they encode the grid topology, see DESIGN.md).
//
// The working matrix and V are packed column-contiguously, so each
// rotation of columns p and q streams two linear blocks instead of
// striding over the rows. The arithmetic (rotation order, tolerances,
// per-element operations, accumulation order over i) is that of the
// textbook row-major sweep, so the factors are bit-identical to it
// (TestFactorSVDBlockedBitIdentical).
func FactorSVD(a *Dense) *SVD {
	m, n := a.rows, a.cols
	if m < n {
		s := FactorSVD(a.T())
		return &SVD{U: s.V, S: s.S, V: s.U}
	}
	// Rotate pairs of columns of a copy of A until all are mutually
	// orthogonal. Then column norms are singular values and normalized
	// columns are U; V accumulates the rotations. Column j of the copy
	// is w[j*m : (j+1)*m], column j of V is vt[j*n : (j+1)*n].
	w := make([]float64, m*n)
	for i := 0; i < m; i++ {
		row := a.data[i*n : (i+1)*n]
		for j, v := range row {
			w[j*m+i] = v
		}
	}
	vt := make([]float64, n*n)
	for j := 0; j < n; j++ {
		vt[j*n+j] = 1
	}

	const maxSweeps = 60
	// Convergence threshold relative to the largest column norm product.
	eps := math.Nextafter(1, 2) - 1 // machine epsilon
	tol := math.Sqrt(float64(m)) * eps

	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				wp := w[p*m : (p+1)*m]
				wq := w[q*m : (q+1)*m]
				wq = wq[:len(wp)] // bounds hint: the loops below index wq by wp's range
				var alpha, beta, gamma float64
				for i, xp := range wp {
					xq := wq[i]
					alpha += xp * xp
					beta += xq * xq
					gamma += xp * xq
				}
				if alpha == 0 || beta == 0 { //gridlint:ignore floatcmp one-sided Jacobi skips exactly-null columns; tol handles near-zero below
					continue
				}
				if math.Abs(gamma) <= tol*math.Sqrt(alpha*beta) {
					continue
				}
				off++
				// Jacobi rotation zeroing the (p,q) inner product.
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i, xp := range wp {
					xq := wq[i]
					wp[i] = c*xp - s*xq
					wq[i] = s*xp + c*xq
				}
				vp := vt[p*n : (p+1)*n]
				vq := vt[q*n : (q+1)*n]
				vq = vq[:len(vp)]
				for i, xp := range vp {
					xq := vq[i]
					vp[i] = c*xp - s*xq
					vq[i] = s*xp + c*xq
				}
			}
		}
		if off == 0 {
			break
		}
	}

	// Extract singular values and left vectors. Columns with zero
	// singular value keep zero U columns; callers use Rank to ignore them.
	sv := make([]float64, n)
	u := NewDense(m, n)
	for j := 0; j < n; j++ {
		col := w[j*m : (j+1)*m]
		sv[j] = Norm2(col)
		if sv[j] > 0 {
			inv := 1 / sv[j]
			for i := 0; i < m; i++ {
				u.data[i*n+j] = col[i] * inv
			}
		}
	}
	// Sort by decreasing singular value.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return sv[order[a]] > sv[order[b]] })
	us := u.SelectCols(order)
	vs := NewDense(n, n)
	ss := make([]float64, n)
	for k, j := range order {
		ss[k] = sv[j]
		for i, x := range vt[j*n : (j+1)*n] {
			vs.data[i*n+k] = x
		}
	}
	return &SVD{U: us, S: ss, V: vs}
}

// Rank returns the numerical rank: the number of singular values above
// max(m,n) * eps * S[0]. A custom tolerance <= 0 selects this default.
func (s *SVD) Rank(tol float64) int {
	if len(s.S) == 0 {
		return 0
	}
	if tol <= 0 {
		m, _ := s.U.Dims()
		n, _ := s.V.Dims()
		d := m
		if n > d {
			d = n
		}
		eps := math.Nextafter(1, 2) - 1
		tol = float64(d) * eps * s.S[0]
	}
	r := 0
	for _, v := range s.S {
		if v > tol {
			r++
		}
	}
	return r
}

// Reconstruct returns U * diag(S) * V^T.
func (s *SVD) Reconstruct() *Dense {
	m, k := s.U.Dims()
	n, _ := s.V.Dims()
	us := NewDense(m, k)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			us.data[i*k+j] = s.U.data[i*k+j] * s.S[j]
		}
	}
	_ = n
	return us.Mul(s.V.T())
}

// PseudoInverse returns the Moore–Penrose pseudo-inverse of a, computed
// from the SVD with the default rank tolerance.
func PseudoInverse(a *Dense) *Dense {
	s := FactorSVD(a)
	r := s.Rank(0)
	m, k := s.U.Dims()
	n, _ := s.V.Dims()
	// pinv = V * diag(1/S_r) * U^T, using only the first r triples.
	out := NewDense(n, m)
	for t := 0; t < r; t++ {
		inv := 1 / s.S[t]
		for i := 0; i < n; i++ {
			vi := s.V.data[i*k+t] * inv
			if vi == 0 { //gridlint:ignore floatcmp sparse accumulate skips exact structural zeros only
				continue
			}
			orow := out.data[i*m : (i+1)*m]
			for j := 0; j < m; j++ {
				orow[j] += vi * s.U.data[j*k+t]
			}
		}
	}
	return out
}
