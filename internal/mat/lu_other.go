//go:build !amd64

package mat

// subMul is FactorLU's row update, subMulGo, on architectures without
// the SSE2 lane kernels.
func subMul(ri, rk []float64, m float64) { subMulGo(ri, rk, m) }

// solveMany is one Solve per right-hand side on architectures without
// the SSE2 lane kernels: there the Go compiler may fuse a multiply and
// an add, so lanes written in Go would not be bound to Solve's bits.
func (f *LU) solveMany(dst, b []float64) error {
	n := f.lu.rows
	for j := 0; j < len(b); j += n {
		x, err := f.Solve(b[j : j+n])
		if err != nil {
			return err
		}
		copy(dst[j:j+n], x)
	}
	return nil
}
