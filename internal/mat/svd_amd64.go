package mat

// pairSums and pairRotate are the SVD pair's kernels in lanes_amd64.s.
// Each SSE2 lane performs one matrix's scalar sequence: the same
// operands, in the same order, one rounding per operation and no FMA,
// so a lane has the bits of the FactorSVD loop it replaces.

// pairSums adds, over the rows of two interleaved column pairs, the
// sums FactorSVD forms from +0 in row order: sums is alpha, beta and
// gamma, two lanes each.
//
//go:noescape
func pairSums(sums *[6]float64, wp, wq []float64)

// pairRotate rotates two interleaved columns by each lane's c and s,
// as FactorSVD rotates one column pair.
//
//go:noescape
func pairRotate(xp, xq []float64, c, s *[2]float64)

// factorSVDPair runs FactorSVD's sweeps on a and b, one shape with at
// least as many rows as columns, in lockstep: the working columns and
// those of V are FactorSVD's column-contiguous layout with the two
// matrices interleaved, lane l of element k at index 2*k+l. Both lanes
// sum through pairSums on every column pair while either is live; each
// live lane decides by rotation, and the lanes that rotate do so
// through pairRotate when both do and through laneRotate, in Go, when
// one does. A lane stops after its first sweep without a rotation.
func factorSVDPair(a, b *Dense) (*SVD, *SVD) {
	m, n := a.rows, a.cols
	w := make([]float64, 2*m*n)
	for l, x := range [2]*Dense{a, b} {
		for i := 0; i < m; i++ {
			for j, v := range x.data[i*n : (i+1)*n] {
				w[2*(j*m+i)+l] = v
			}
		}
	}
	vt := make([]float64, 2*n*n)
	for j := 0; j < n; j++ {
		vt[2*(j*n+j)], vt[2*(j*n+j)+1] = 1, 1
	}

	tol := jacobiTol(m)
	live := [2]bool{true, true}
	var sums [6]float64
	for sweep := 0; sweep < jacobiSweeps && (live[0] || live[1]); sweep++ {
		var off [2]int
		for p := 0; p < n-1; p++ {
			wp := w[2*p*m : 2*(p+1)*m]
			vp := vt[2*p*n : 2*(p+1)*n]
			for q := p + 1; q < n; q++ {
				wq := w[2*q*m : 2*(q+1)*m]
				vq := vt[2*q*n : 2*(q+1)*n]
				pairSums(&sums, wp, wq)
				var c, s [2]float64
				var rot [2]bool
				for l := range live {
					if live[l] {
						c[l], s[l], rot[l] = rotation(sums[l], sums[2+l], sums[4+l], tol)
					}
					if rot[l] {
						off[l]++
					}
				}
				switch {
				case rot[0] && rot[1]:
					pairRotate(wp, wq, &c, &s)
					pairRotate(vp, vq, &c, &s)
				case rot[0] || rot[1]:
					l := 0
					if rot[1] {
						l = 1
					}
					laneRotate(wp, wq, l, c[l], s[l])
					laneRotate(vp, vq, l, c[l], s[l])
				}
			}
		}
		for l, k := range off {
			if k == 0 {
				live[l] = false
			}
		}
	}
	return svdOfColumns(lane(w, 0), lane(vt, 0), m, n), svdOfColumns(lane(w, 1), lane(vt, 1), m, n)
}

// laneRotate rotates lane l of two interleaved columns by c and s, as
// FactorSVD rotates one column pair.
func laneRotate(xp, xq []float64, l int, c, s float64) {
	xq = xq[:len(xp)]
	for i := l; i < len(xp); i += 2 {
		p, q := xp[i], xq[i]
		xp[i] = c*p - s*q
		xq[i] = s*p + c*q
	}
}

// lane returns lane l of two interleaved slices.
func lane(x []float64, l int) []float64 {
	out := make([]float64, len(x)/2)
	for i := range out {
		out[i] = x[2*i+l]
	}
	return out
}
