//go:build !amd64

package subspace

// onesPass is the portable pass on architectures without the assembly
// kernel.
func onesPass(scale, ssq, alpha, x, basis []float64, stride int) {
	onesPassGeneric(scale, ssq, alpha, x, basis, stride)
}
