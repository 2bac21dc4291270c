//go:build !amd64

package mat

// leadingQuad is four FactorSVD calls on architectures without the
// AVX lane kernels: there the Go compiler may fuse a multiply and an
// add, so lanes written in Go would not be bound to FactorSVD's bits.
func leadingQuad(a [4]*Dense, k int) [4]*Dense {
	return leadingEach(a, k)
}
