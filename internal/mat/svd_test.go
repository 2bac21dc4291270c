package mat

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// The FactorSVD and PseudoInverse tests check against these oracles,
// which no code outside the tests needs.

// Inverse returns the inverse of a square matrix, or ErrSingular. It
// factors a copy, so a is left as it was.
func Inverse(a *Dense) (*Dense, error) {
	f, err := FactorLU(a.Clone())
	if err != nil {
		return nil, err
	}
	return f.SolveMat(Identity(a.rows))
}

// Reconstruct returns U * diag(S) * V^T.
func (s *SVD) Reconstruct() *Dense {
	m, k := s.U.Dims()
	us := NewDense(m, k)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			us.data[i*k+j] = s.U.data[i*k+j] * s.S[j]
		}
	}
	return us.Mul(s.V.T())
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Dense) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

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

// TestPseudoInverseColumnMatchesSVD pins the closed form to the SVD
// path bit for bit, and PseudoInverse to it on one column: columns of
// 1–64 entries mixing exact zeros, −0, subnormals, ordinary values and
// entries near 1e±300, and columns that are all zero, all subnormal,
// hold a NaN or an infinity, or have a norm that overflows.
func TestPseudoInverseColumnMatchesSVD(t *testing.T) {
	entry := func(rng *rand.Rand) float64 {
		switch rng.Intn(7) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return rng.NormFloat64() * 1e-310 // subnormal
		case 3:
			return rng.NormFloat64() * 1e300
		case 4:
			return rng.NormFloat64() * 1e-300
		}
		return rng.NormFloat64()
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(64)
		a := make([]float64, m)
		for i := range a {
			a[i] = entry(rng)
		}
		switch rng.Intn(8) {
		case 0: // all zero, some of them −0
			for i := range a {
				a[i] = math.Copysign(0, float64(rng.Intn(2))-0.5)
			}
		case 1: // all subnormal: 1/S overflows
			for i := range a {
				a[i] = rng.NormFloat64() * 5e-324
			}
		case 2:
			a[rng.Intn(m)] = math.NaN()
		case 3:
			a[rng.Intn(m)] = math.Inf(1 - 2*rng.Intn(2))
		case 4: // the norm overflows once two entries are this large
			for i := range a {
				a[i] = math.Copysign(1.5e308, rng.NormFloat64())
			}
		}
		col := NewDenseData(m, 1, append([]float64(nil), a...))
		want := pseudoInverseSVD(col)
		got := make([]float64, m)
		PseudoInverseColumn(got, a)
		inPlace := append([]float64(nil), a...)
		PseudoInverseColumn(inPlace, inPlace)
		viaDense := PseudoInverse(col)
		for j := range got {
			w := math.Float64bits(want.At(0, j))
			if math.Float64bits(got[j]) != w || math.Float64bits(inPlace[j]) != w || math.Float64bits(viaDense.At(0, j)) != w {
				t.Logf("seed %d, %d entries: pinv[%d] %v (in place %v, PseudoInverse %v), SVD path %v",
					seed, m, j, got[j], inPlace[j], viaDense.At(0, j), want.At(0, j))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
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
