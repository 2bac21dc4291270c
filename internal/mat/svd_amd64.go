package mat

// quadSums, quadRotate and quadRotateMask are LeadingQuad's kernels in
// lanes_amd64.s, on 256-bit AVX registers of four lanes. Each lane
// performs one matrix's scalar sequence: the same operands, in the same
// order, one rounding per operation and no FMA, so a lane has the bits
// of the FactorSVD loop it replaces.

// quadSums adds, over the rows of two interleaved column pairs, the
// sums FactorSVD forms from +0 in row order: sums is alpha, beta and
// gamma, four lanes each.
//
//go:noescape
func quadSums(sums *[12]float64, wp, wq []float64)

// quadRotate rotates two interleaved columns by each lane's c and s,
// as FactorSVD rotates one column pair.
//
//go:noescape
func quadRotate(xp, xq []float64, c, s *[4]float64)

// quadRotateMask is quadRotate in the lanes whose mask is all ones;
// the other lanes keep their bits.
//
//go:noescape
func quadRotateMask(xp, xq []float64, c, s *[4]float64, mask *[4]uint64)

// cpuid and xgetbv are the CPUID and XGETBV instructions, for probeAVX.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// probeAVX reports whether the CPU has AVX and the operating system
// saves the YMM registers' upper halves (XCR0 bits 1 and 2).
func probeAVX() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 1 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

// hasAVX is probeAVX's answer, taken once when the package loads.
var hasAVX = probeAVX()

// HasAVX reports whether the CPU has AVX and the operating system
// saves the YMM registers' upper halves: whether AVX kernels may run.
// It is the module's one CPUID probe. A package with AVX kernels sets
// its own switch from it, as useAVX is set here, so that its tests can
// turn the kernels off.
func HasAVX() bool { return hasAVX }

// useAVX selects the four-lane kernels. Only tests change it.
var useAVX = hasAVX

// leadingQuad runs FactorSVD's sweeps on four matrices of one shape in
// lockstep and reads each one's Leading(k) off its converged columns.
// The working columns, and for a wide shape those of V, are FactorSVD's
// column-contiguous layout with the four matrices interleaved, lane l
// of element e at index 4*e+l. All lanes sum through quadSums on every
// column pair while any is live; each live lane decides by rotation,
// and the lanes that rotate do so through quadRotate when all four do,
// as most do, and through quadRotateMask when some do (blending every
// rotation made a repeated ieee118 training take 1.13 times the CPU).
// A lane stops after its first sweep without a rotation.
func leadingQuad(a [4]*Dense, k int) [4]*Dense {
	if !useAVX {
		return leadingEach(a, k)
	}
	// The Jacobi problem is m×n with m >= n: a itself when tall, its
	// transpose when wide, whose V holds a's left singular vectors.
	m, n := a[0].rows, a[0].cols
	wide := m < n
	if wide {
		m, n = n, m
	}
	w := make([]float64, 4*m*n)
	for l, x := range a {
		for i := 0; i < x.rows; i++ {
			for j, v := range x.data[i*x.cols : (i+1)*x.cols] {
				if wide {
					w[4*(i*m+j)+l] = v // column i of the transpose
				} else {
					w[4*(j*m+i)+l] = v
				}
			}
		}
	}
	var vt []float64
	if wide {
		vt = make([]float64, 4*n*n)
		for j := 0; j < n; j++ {
			for l := 0; l < 4; l++ {
				vt[4*(j*n+j)+l] = 1
			}
		}
	}

	tol := jacobiTol(m)
	live := [4]bool{true, true, true, true}
	var sums [12]float64
	var c, s [4]float64
	var mask [4]uint64
	all := [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	for sweep := 0; sweep < jacobiSweeps && live != [4]bool{}; sweep++ {
		var off [4]int
		for p := 0; p < n-1; p++ {
			wp := w[4*p*m : 4*(p+1)*m]
			for q := p + 1; q < n; q++ {
				wq := w[4*q*m : 4*(q+1)*m]
				quadSums(&sums, wp, wq)
				for l := range live {
					var ok bool
					c[l], s[l], mask[l] = 0, 0, 0
					if live[l] {
						c[l], s[l], ok = rotation(sums[l], sums[4+l], sums[8+l], tol)
					}
					if ok {
						mask[l] = ^uint64(0)
						off[l]++
					}
				}
				var vp, vq []float64
				if wide {
					vp, vq = vt[4*p*n:4*(p+1)*n], vt[4*q*n:4*(q+1)*n]
				}
				switch mask {
				case [4]uint64{}:
				case all:
					quadRotate(wp, wq, &c, &s)
					quadRotate(vp, vq, &c, &s)
				default:
					quadRotateMask(wp, wq, &c, &s, &mask)
					quadRotateMask(vp, vq, &c, &s, &mask)
				}
			}
		}
		for l, k := range off {
			if k == 0 {
				live[l] = false
			}
		}
	}

	var out [4]*Dense
	col := make([]float64, m)
	sv := make([]float64, n)
	ss := make([]float64, n)
	for l := range out {
		for j := range sv {
			for i := range col {
				col[i] = w[4*(j*m+i)+l]
			}
			sv[j] = Norm2(col)
		}
		order := sortedOrder(sv)
		for t, j := range order {
			ss[t] = sv[j]
		}
		kl := leadingCols(k, rank(ss, m, 0))
		// svdOfColumns' U, or for a wide shape its V, column by column.
		if wide {
			u := NewDense(n, kl)
			for t, j := range order[:kl] {
				for i := 0; i < n; i++ {
					u.data[i*kl+t] = vt[4*(j*n+i)+l]
				}
			}
			out[l] = u
			continue
		}
		u := NewDense(m, kl)
		for t, j := range order[:kl] {
			if sv[j] > 0 {
				inv := 1 / sv[j]
				for i := 0; i < m; i++ {
					u.data[i*kl+t] = w[4*(j*m+i)+l] * inv
				}
			}
		}
		out[l] = u
	}
	return out
}
