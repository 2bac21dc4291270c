package mat

// subMul is subMulGo in SSE2 lanes (lanes_amd64.s), two elements per
// instruction, with subMulGo's bits: ri[j] -= m·rk[j] for j <
// len(ri); rk has at least len(ri) elements.
//
//go:noescape
func subMul(ri, rk []float64, m float64)

// solveLanes8 is the eight-lane kernel of lanes_amd64.s: it runs
// Solve's forward and back substitution on x, n rows of eight lanes
// (row i of lane l at x[8*i+l]), already permuted, on the n×n factor
// lu, and each lane has Solve's bits. The diagonal must have no zero.
//
//go:noescape
func solveLanes8(lu []float64, n int, x []float64)

// solveMany solves eight right-hand sides per solveLanes8 pass,
// gathering each block through the row permutation into its lanes; a
// last block of fewer than eight runs with its spare lanes zero.
func (f *LU) solveMany(dst, b []float64) error {
	n := f.lu.rows
	for i := 0; i < n; i++ {
		if f.lu.data[i*n+i] == 0 { //gridlint:ignore floatcmp Solve's exact-zero diagonal test, which no right-hand side changes
			return ErrSingular
		}
	}
	x := make([]float64, 8*n)
	for j0 := 0; j0 < len(b); j0 += 8 * n {
		k := min(8, (len(b)-j0)/n)
		clear(x)
		for l := 0; l < k; l++ {
			bl := b[j0+l*n : j0+(l+1)*n]
			for i, p := range f.piv {
				x[8*i+l] = bl[p]
			}
		}
		solveLanes8(f.lu.data, n, x)
		for l := 0; l < k; l++ {
			dl := dst[j0+l*n : j0+(l+1)*n]
			for i := range dl {
				dl[i] = x[8*i+l]
			}
		}
	}
	return nil
}
