package mat

import (
	"fmt"
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

	tol := jacobiTol(m)
	for sweep := 0; sweep < jacobiSweeps; sweep++ {
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
				c, s, ok := rotation(alpha, beta, gamma, tol)
				if !ok {
					continue
				}
				off++
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
	return svdOfColumns(w, vt, m, n)
}

// LeadingQuad returns FactorSVD(a[l]).Leading(k) for each of four
// matrices, bit for bit. Four matrices of one shape are factored in
// lockstep where the platform has lanes that keep FactorSVD's bits
// (amd64 with AVX, see lanes_amd64.s): one matrix per lane, each lane
// running FactorSVD's sequence of sums, skip tests and rotations, and
// stopping after its own first sweep that rotates nothing. A Jacobi
// sweep is a chain of dependent sums, so one matrix cannot go faster
// than its add latency; four in lanes take little more than the time
// of one. Only what Leading reads is built: a tall matrix accumulates
// no V and builds only its leading columns of U; a wide one is
// factored through its transpose, whose V is its U, as FactorSVD does.
// Matrices of different shapes, and every quad elsewhere, take four
// FactorSVD calls.
func LeadingQuad(a [4]*Dense, k int) [4]*Dense {
	for _, x := range a[1:] {
		if x.rows != a[0].rows || x.cols != a[0].cols {
			return leadingEach(a, k)
		}
	}
	return leadingQuad(a, k)
}

// leadingEach is LeadingQuad through one FactorSVD per matrix.
func leadingEach(a [4]*Dense, k int) [4]*Dense {
	var out [4]*Dense
	for l, x := range a {
		out[l] = FactorSVD(x).Leading(k)
	}
	return out
}

// jacobiSweeps caps the sweeps of one-sided Jacobi.
const jacobiSweeps = 60

// jacobiTol is the convergence threshold of an m-row Jacobi sweep,
// relative to the product of the two column norms.
func jacobiTol(m int) float64 {
	eps := math.Nextafter(1, 2) - 1 // machine epsilon
	return math.Sqrt(float64(m)) * eps
}

// rotation returns the Jacobi rotation that zeroes the inner product
// gamma of two columns with squared norms alpha and beta, or ok false
// when the pair is left alone: a column is exactly null, or the pair
// is orthogonal to within tol. FactorSVD and LeadingQuad's lanes both
// decide and rotate through it, so they share its bits.
func rotation(alpha, beta, gamma, tol float64) (c, s float64, ok bool) {
	if alpha == 0 || beta == 0 { //gridlint:ignore floatcmp one-sided Jacobi skips exactly-null columns; tol handles near-zero below
		return 0, 0, false
	}
	if math.Abs(gamma) <= tol*math.Sqrt(alpha*beta) {
		return 0, 0, false
	}
	zeta := (beta - alpha) / (2 * gamma)
	t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
	c = 1 / math.Sqrt(1+t*t)
	return c, c * t, true
}

// svdOfColumns reads the SVD off the converged Jacobi state of an
// m×n matrix, m >= n: w holds the rotated columns and vt the columns
// of V, each column-contiguous. The column norms are the singular
// values and the normalised columns U; columns with zero singular
// value keep zero U columns, which callers ignore through Rank. The
// triples are sorted by decreasing singular value.
func svdOfColumns(w, vt []float64, m, n int) *SVD {
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
	order := sortedOrder(sv)
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

// sortedOrder returns the column order of singular values sv sorted
// in decreasing order, ties (and NaNs) kept in column order.
func sortedOrder(sv []float64) []int {
	order := make([]int, len(sv))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return sv[order[a]] > sv[order[b]] })
	return order
}

// Rank returns the numerical rank: the number of singular values above
// max(m,n) * eps * S[0]. A custom tolerance <= 0 selects this default.
func (s *SVD) Rank(tol float64) int {
	m, _ := s.U.Dims()
	n, _ := s.V.Dims()
	return rank(s.S, max(m, n), tol)
}

// rank is Rank of the sorted singular values s of a matrix whose
// larger dimension is d.
func rank(s []float64, d int, tol float64) int {
	if len(s) == 0 {
		return 0
	}
	if tol <= 0 {
		eps := math.Nextafter(1, 2) - 1
		tol = float64(d) * eps * s[0]
	}
	r := 0
	for _, v := range s {
		if v > tol {
			r++
		}
	}
	return r
}

// Leading returns the leading left singular vectors: the first k
// columns of U, with k raised to 1 and cut to the numerical rank
// Rank(0), so a rank-0 SVD gives a matrix of no columns.
func (s *SVD) Leading(k int) *Dense {
	m, _ := s.U.Dims()
	k = leadingCols(k, s.Rank(0))
	out := NewDense(m, k)
	for i := 0; i < m; i++ {
		copy(out.data[i*k:(i+1)*k], s.U.data[i*s.U.cols:i*s.U.cols+k])
	}
	return out
}

// leadingCols is the number of columns Leading keeps of an SVD of
// numerical rank r when asked for k.
func leadingCols(k, r int) int {
	return min(max(k, 1), r)
}

// PseudoInverse returns the Moore–Penrose pseudo-inverse of a, computed
// from the SVD with the default rank tolerance. A single column takes
// PseudoInverseColumn's closed form, which is what the SVD does to it.
func PseudoInverse(a *Dense) *Dense {
	if a.cols == 1 {
		out := NewDense(1, a.rows)
		PseudoInverseColumn(out.data, a.data)
		return out
	}
	return pseudoInverseSVD(a)
}

// PseudoInverseColumn writes the pseudo-inverse of the one-column
// matrix with column a, its one row, into dst, bit for bit as
// FactorSVD and the SVD path of PseudoInverse compute it. Jacobi has
// nothing to rotate in one column: the singular value is S = Norm2(a),
// the left vector u = a·(1/S) and the right vector 1, and the rank is 1
// iff S > m·eps·S (Rank's default tolerance), so the pseudo-inverse is
// 0 + (1/S)·u, or zero when S is zero, infinite or NaN. dst may alias
// a.
func PseudoInverseColumn(dst, a []float64) {
	if len(dst) != len(a) {
		panic(fmt.Sprintf("mat: PseudoInverseColumn of %d values into %d", len(a), len(dst)))
	}
	s := Norm2(a)
	eps := math.Nextafter(1, 2) - 1
	if !(s > float64(max(len(a), 1))*eps*s) {
		clear(dst)
		return
	}
	inv := 1 / s
	for i, x := range a {
		dst[i] = 0 + inv*(x*inv)
	}
}

// pseudoInverseSVD is PseudoInverse through the SVD, for any shape.
func pseudoInverseSVD(a *Dense) *Dense {
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
