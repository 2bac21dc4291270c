package subspace

import "pmuoutage/internal/mat"

// quadCoefficients, quadResidualRows and quadRankOne are the kernels of
// packed_amd64.s, on 256-bit AVX registers of four lanes: the Go loops
// coefficientsGo, residualRowsGo and rankOneGo with four rows or four
// slots per instruction, each lane with its loop's bits.

// quadCoefficients is coefficientsGo, four pinv rows per register.
//
//go:noescape
func quadCoefficients(alpha, pinv, x []float64)

// quadResidualRows is residualRowsGo, four rows per register, on a
// multiple of four rows.
//
//go:noescape
func quadResidualRows(dst, x, ud, alpha []float64)

// quadRankOne is rankOneGo, four slots per register, on a multiple of
// four slots.
//
//go:noescape
func quadRankOne(scale, ssq, alpha, x, basis []float64, stride int)

// useAVX selects the AVX kernels. Only tests change it.
var useAVX = mat.HasAVX()

// coefficients forms the least-squares coefficients alpha[t] =
// Σ_j q_t[j]·x[j] of every row t of pinv, which holds len(alpha)/4
// quads of len(x) columns (quadAt); len(alpha) is a multiple of four.
func coefficients(alpha, pinv, x []float64) {
	if useAVX {
		quadCoefficients(alpha, pinv, x)
		return
	}
	coefficientsGo(alpha, pinv, x)
}

// residualRows writes x[i] − Σ_t u_i[t]·α[t] into dst for each row i of
// ud, which holds len(x) rows of len(alpha) columns in quads of rows.
// The lanes take the whole quads and the Go loop the rows after them.
func residualRows(dst, x, ud, alpha []float64) {
	whole := 0
	if useAVX {
		whole = len(x) &^ 3
		quadResidualRows(dst[:whole], x[:whole], ud, alpha)
	}
	residualRowsGo(dst[whole:], x[whole:], ud[whole*len(alpha):], alpha)
}

// rankOne takes, row by row, each rank-one slot's normStep on its
// residual x[i] − basis[i*stride+slot]·alpha[slot]; len(scale) is a
// multiple of four.
func rankOne(scale, ssq, alpha, x, basis []float64, stride int) {
	if useAVX {
		quadRankOne(scale, ssq, alpha, x, basis, stride)
		return
	}
	rankOneGo(scale, ssq, alpha, x, basis, stride)
}
