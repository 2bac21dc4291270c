package mat

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func isOrthonormalCols(m *Dense, tol float64) bool {
	_, k := m.Dims()
	g := m.T().Mul(m)
	return g.Equalf(Identity(k), tol)
}

func TestSVDReconstructionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(10)
		c := 1 + rng.Intn(10)
		a := randDense(rng, r, c)
		s := FactorSVD(a)
		return s.Reconstruct().Equalf(a, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSVDOrthonormalFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][2]int{{8, 5}, {5, 8}, {6, 6}, {1, 4}, {4, 1}} {
		a := randDense(rng, dims[0], dims[1])
		s := FactorSVD(a)
		if !isOrthonormalCols(s.U, 1e-10) {
			t.Errorf("%v: U columns not orthonormal", dims)
		}
		if !isOrthonormalCols(s.V, 1e-10) {
			t.Errorf("%v: V columns not orthonormal", dims)
		}
	}
}

func TestSVDSingularValuesSortedNonnegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randDense(rng, 2+rng.Intn(8), 2+rng.Intn(8))
		s := FactorSVD(a)
		for i, v := range s.S {
			if v < 0 {
				return false
			}
			if i > 0 && s.S[i-1] < v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSVDKnownDiagonal(t *testing.T) {
	a := NewDenseData(3, 3, []float64{
		3, 0, 0,
		0, 1, 0,
		0, 0, 2,
	})
	s := FactorSVD(a)
	want := []float64{3, 2, 1}
	for i, w := range want {
		if math.Abs(s.S[i]-w) > 1e-12 {
			t.Fatalf("S[%d] = %v, want %v", i, s.S[i], w)
		}
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Rank-1 outer product.
	u := []float64{1, 2, 3}
	v := []float64{4, 5}
	a := NewDense(3, 2)
	for i := range u {
		for j := range v {
			a.Set(i, j, u[i]*v[j])
		}
	}
	s := FactorSVD(a)
	if r := s.Rank(0); r != 1 {
		t.Fatalf("Rank = %d, want 1", r)
	}
	// Largest singular value = |u|*|v|.
	want := Norm2(u) * Norm2(v)
	if math.Abs(s.S[0]-want) > 1e-10 {
		t.Fatalf("S[0] = %v, want %v", s.S[0], want)
	}
}

func TestSVDFrobeniusInvariant(t *testing.T) {
	// ||A||_F^2 == sum of squared singular values.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randDense(rng, 3+rng.Intn(6), 3+rng.Intn(6))
		s := FactorSVD(a)
		var ss float64
		for _, v := range s.S {
			ss += v * v
		}
		fn := a.FrobeniusNorm()
		return math.Abs(fn*fn-ss) < 1e-9*(1+fn*fn)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSVDZeroMatrix(t *testing.T) {
	s := FactorSVD(NewDense(3, 2))
	for _, v := range s.S {
		if v != 0 {
			t.Fatalf("zero matrix has nonzero singular value %v", v)
		}
	}
	if s.Rank(0) != 0 {
		t.Fatalf("zero matrix Rank = %d, want 0", s.Rank(0))
	}
}

func TestSVDSmallestSingularDirectionIsNullspace(t *testing.T) {
	// Build a matrix with a known (approximate) null direction; the last
	// right singular vector must align with it. This is the property the
	// detector relies on (low singular directions encode topology).
	rng := rand.New(rand.NewSource(13))
	n := 6
	a := randDense(rng, 20, n)
	null := make([]float64, n)
	for i := range null {
		null[i] = rng.NormFloat64()
	}
	nn := Norm2(null)
	for i := range null {
		null[i] /= nn
	}
	// Project the null direction out of every row of a.
	for i := 0; i < 20; i++ {
		row := a.RawRow(i)
		c := Dot(row, null)
		for j := range row {
			row[j] -= c * null[j]
		}
	}
	s := FactorSVD(a)
	last := s.V.Col(n - 1)
	if got := math.Abs(Dot(last, null)); got < 1-1e-8 {
		t.Fatalf("|<v_min, null>| = %v, want ~1", got)
	}
}

func TestPseudoInversePenroseConditions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(7)
		c := 1 + rng.Intn(7)
		a := randDense(rng, r, c)
		p := PseudoInverse(a)
		apa := a.Mul(p).Mul(a)
		pap := p.Mul(a).Mul(p)
		if !apa.Equalf(a, 1e-8) || !pap.Equalf(p, 1e-8) {
			return false
		}
		// Symmetry conditions.
		ap := a.Mul(p)
		pa := p.Mul(a)
		return ap.Equalf(ap.T(), 1e-8) && pa.Equalf(pa.T(), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPseudoInverseOfInvertibleIsInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 5
	a := randDense(rng, n, n)
	for i := 0; i < n; i++ {
		a.Add(i, i, 6)
	}
	p := PseudoInverse(a)
	if !a.Mul(p).Equalf(Identity(n), 1e-8) {
		t.Fatal("pinv of invertible matrix is not the inverse")
	}
}

func BenchmarkSVD50x50(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randDense(rng, 50, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FactorSVD(a)
	}
}

func BenchmarkSVD118x40(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randDense(rng, 118, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FactorSVD(a)
	}
}

// TestFactorSVDBlockedBitIdentical pins FactorSVD's column-contiguous
// layout to the row-major reference: same rotations, same tolerances,
// so the factors must agree to the last bit, not just to a tolerance.
// The shapes cover tall deviation matrices, the per-line training shape
// (118×40), a wide matrix that FactorSVD factors through its transpose
// (30×40), and the small restricted bases of the detect path.
func TestFactorSVDBlockedBitIdentical(t *testing.T) {
	for _, dims := range [][2]int{{300, 8}, {512, 24}, {257, 3}, {300, 1}, {118, 40}, {30, 40}, {40, 2}, {20, 1}} {
		m, n := dims[0], dims[1]
		rng := rand.New(rand.NewSource(int64(m + n)))
		a := NewDense(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		// Plant a few exactly-zero columns' worth of structure to hit the
		// null-column skip in both paths.
		if n > 2 {
			for i := 0; i < m; i++ {
				a.Set(i, n-1, 0)
			}
		}
		got := FactorSVD(a)
		if m < n {
			got = &SVD{U: got.V, S: got.S, V: got.U}
			a = a.T()
		}
		ref := factorSVDRef(a)
		for k := range ref.S {
			if ref.S[k] != got.S[k] {
				t.Fatalf("%dx%d: S[%d] %v != %v", m, n, k, ref.S[k], got.S[k])
			}
		}
		if !ref.U.Equalf(got.U, 0) || !ref.V.Equalf(got.V, 0) {
			t.Fatalf("%dx%d: factors differ between reference and FactorSVD", m, n)
		}
	}
}

// factorSVDRef is the textbook row-major one-sided Jacobi sweep, the
// oracle FactorSVD's column-contiguous layout must reproduce bit for
// bit.
func factorSVDRef(a *Dense) *SVD {
	m, n := a.rows, a.cols
	// Work on columns of a copy of A; rotate pairs of columns until all
	// are mutually orthogonal. Then column norms are singular values and
	// normalized columns are U; V accumulates the rotations.
	w := a.Clone()
	v := Identity(n)

	const maxSweeps = 60
	// Convergence threshold relative to the largest column norm product.
	eps := math.Nextafter(1, 2) - 1 // machine epsilon
	tol := math.Sqrt(float64(m)) * eps

	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var alpha, beta, gamma float64
				for i := 0; i < m; i++ {
					wp := w.data[i*n+p]
					wq := w.data[i*n+q]
					alpha += wp * wp
					beta += wq * wq
					gamma += wp * wq
				}
				if alpha == 0 || beta == 0 { //gridlint:ignore floatcmp one-sided Jacobi skips exactly-null columns; tol handles near-zero below
					continue
				}
				if math.Abs(gamma) <= tol*math.Sqrt(alpha*beta) {
					continue
				}
				off++
				// Jacobi rotation zeroing the (p,q) inner product.
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < m; i++ {
					wp := w.data[i*n+p]
					wq := w.data[i*n+q]
					w.data[i*n+p] = c*wp - s*wq
					w.data[i*n+q] = s*wp + c*wq
				}
				for i := 0; i < n; i++ {
					vp := v.data[i*n+p]
					vq := v.data[i*n+q]
					v.data[i*n+p] = c*vp - s*vq
					v.data[i*n+q] = s*vp + c*vq
				}
			}
		}
		if off == 0 {
			break
		}
	}

	// Extract singular values and left vectors.
	sv := make([]float64, n)
	u := NewDense(m, n)
	for j := 0; j < n; j++ {
		col := w.Col(j)
		sv[j] = Norm2(col)
		if sv[j] > 0 {
			inv := 1 / sv[j]
			for i := 0; i < m; i++ {
				u.data[i*n+j] = col[i] * inv
			}
		}
	}
	// Sort by decreasing singular value.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return sv[order[a]] > sv[order[b]] })
	us := u.SelectCols(order)
	vs := v.SelectCols(order)
	ss := make([]float64, n)
	for k, j := range order {
		ss[k] = sv[j]
	}
	// Columns with zero singular value have undefined U columns; replace
	// them with zeros (already zero) — callers use Rank to ignore them.
	return &SVD{U: us, S: ss, V: vs}
}

func BenchmarkFactorSVDTall(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	m, n := 2000, 24
	a := NewDense(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FactorSVD(a)
	}
}
