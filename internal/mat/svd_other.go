//go:build !amd64

package mat

// factorSVDPair is two FactorSVD calls on architectures without the
// SSE2 lane kernels: there the Go compiler may fuse a multiply and an
// add, so lanes written in Go would not be bound to FactorSVD's bits.
func factorSVDPair(a, b *Dense) (*SVD, *SVD) {
	return FactorSVD(a), FactorSVD(b)
}
