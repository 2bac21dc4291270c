package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a
// (numerically) singular matrix.
var ErrSingular = errors.New("mat: matrix is singular")

// LU holds an LU factorization with partial pivoting: P*A = L*U.
type LU struct {
	lu  *Dense // combined L (unit lower) and U storage
	piv []int  // row permutation
}

// FactorLU computes the LU factorization of the square matrix a with
// partial pivoting. Like LAPACK's getrf it eliminates in place: a is
// overwritten by the factors and the returned LU keeps it, so a caller
// that still needs a factors a.Clone(). It returns ErrSingular when a
// pivot underflows, leaving a partly eliminated. On amd64 each row
// update runs two elements per instruction in SSE2 lanes (subMul in
// lanes_amd64.s), with subMulGo's bits.
func FactorLU(a *Dense) (*LU, error) {
	return factorLU(a, subMul)
}

// factorLU is FactorLU with the row update ri[j] -= m·rk[j] over a
// row's trailing columns done by update: subMul, or subMulGo, its
// portable form and the tests' oracle.
func factorLU(a *Dense, update func(ri, rk []float64, m float64)) (*LU, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("mat: FactorLU requires square matrix, got %dx%d", a.rows, a.cols)
	}
	lu := a
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Pivot: largest |value| in column k at or below the diagonal.
		p := k
		mx := math.Abs(lu.data[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.data[i*n+k]); a > mx {
				mx, p = a, i
			}
		}
		if mx == 0 || math.IsNaN(mx) { //gridlint:ignore floatcmp LAPACK-style exact-zero pivot column means structurally singular
			return nil, ErrSingular
		}
		if p != k {
			rk := lu.data[k*n : (k+1)*n]
			rp := lu.data[p*n : (p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivVal := lu.data[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu.data[i*n+k] / pivVal
			lu.data[i*n+k] = m
			if m == 0 { //gridlint:ignore floatcmp exact-zero multiplier skip; near-zero still eliminates correctly
				continue
			}
			update(lu.data[i*n+k+1:(i+1)*n], lu.data[k*n+k+1:(k+1)*n], m)
		}
	}
	return &LU{lu: lu, piv: piv}, nil
}

// subMulGo subtracts m·rk from ri element by element: FactorLU's row
// update in Go.
func subMulGo(ri, rk []float64, m float64) {
	rk = rk[:len(ri)]
	for j, x := range rk {
		ri[j] -= m * x
	}
}

// Solve solves A*x = b for a single right-hand side.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.rows
	if len(b) != n {
		return nil, fmt.Errorf("mat: LU.Solve rhs length %d != %d", len(b), n)
	}
	x := make([]float64, n)
	// Apply permutation.
	for i, p := range f.piv {
		x[i] = b[p]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := f.lu.data[i*n : (i+1)*n]
		var s float64
		for j := 0; j < i; j++ {
			s += row[j] * x[j]
		}
		x[i] -= s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.data[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		d := row[i]
		if d == 0 { //gridlint:ignore floatcmp LAPACK-style exact-zero diagonal means singular back-substitution
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// SolveMany solves A*x = b for several right-hand sides at once: b
// holds them one after another, the j-th in b[j*n : (j+1)*n], and dst
// receives the solutions in the same layout; dst may alias b. Each
// solution has Solve's bits, and a zero diagonal gives ErrSingular, as
// in Solve. On amd64 the substitutions run eight right-hand sides per
// pass in the lanes of SSE2 registers (lanes_amd64.s), each lane in
// Solve's sequence; elsewhere each right-hand side is one Solve.
func (f *LU) SolveMany(dst, b []float64) error {
	n := f.lu.rows
	if len(dst) != len(b) || len(b) > 0 && (n == 0 || len(b)%n != 0) {
		return fmt.Errorf("mat: LU.SolveMany of %d rhs values into %d for order %d", len(b), len(dst), n)
	}
	if len(b) == 0 {
		return nil
	}
	return f.solveMany(dst, b)
}

// SolveMat solves A*X = B column by column.
func (f *LU) SolveMat(b *Dense) (*Dense, error) {
	n := f.lu.rows
	if b.rows != n {
		return nil, fmt.Errorf("mat: LU.SolveMat rhs rows %d != %d", b.rows, n)
	}
	out := NewDense(n, b.cols)
	for j := 0; j < b.cols; j++ {
		x, err := f.Solve(b.Col(j))
		if err != nil {
			return nil, err
		}
		out.SetCol(j, x)
	}
	return out, nil
}

// Solve solves the square system a*x = b using LU with partial pivoting.
// It factors a copy of a, so a is left as it was.
func Solve(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorLU(a.Clone())
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
