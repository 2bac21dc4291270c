//go:build !amd64

package subspace

// coefficients, residualRows and rankOne are the Go loops on
// architectures without the AVX kernels: there the Go compiler may fuse
// a multiply and an add, so lanes written in Go would not be bound to
// the loops' bits.

func coefficients(alpha, pinv, x []float64) { coefficientsGo(alpha, pinv, x) }

func residualRows(dst, x, ud, alpha []float64) { residualRowsGo(dst, x, ud, alpha) }

func rankOne(scale, ssq, alpha, x, basis []float64, stride int) {
	rankOneGo(scale, ssq, alpha, x, basis, stride)
}
