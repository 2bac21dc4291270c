package subspace

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pmuoutage/internal/mat"
)

func randDense(rng *rand.Rand, r, c int) *mat.Dense {
	a := mat.NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	return a
}

// dataAlong builds a d x t matrix whose columns are random multiples of
// the given directions plus tiny noise.
func dataAlong(rng *rand.Rand, t int, dirs ...[]float64) *mat.Dense {
	d := len(dirs[0])
	x := mat.NewDense(d, t)
	for c := 0; c < t; c++ {
		col := make([]float64, d)
		for _, dir := range dirs {
			a := 1 + rng.Float64()
			if rng.Intn(2) == 0 {
				a = -a
			}
			for i := range col {
				col[i] += a * dir[i]
			}
		}
		for i := range col {
			col[i] += 1e-6 * rng.NormFloat64()
		}
		x.SetCol(c, col)
	}
	return x
}

func unit(d, i int) []float64 {
	v := make([]float64, d)
	v[i] = 1
	return v
}

func TestLearnRecoversDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dir := []float64{3, 0, 4, 0, 0}
	x := dataAlong(rng, 30, dir)
	s, err := Learn(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rank() != 1 || s.Dim() != 5 {
		t.Fatalf("rank %d dim %d", s.Rank(), s.Dim())
	}
	b := s.Basis().Col(0)
	// Basis must align with dir/|dir| up to sign.
	cos := math.Abs(mat.Dot(b, dir)) / mat.Norm2(dir)
	if cos < 0.999 {
		t.Fatalf("recovered direction cos = %v", cos)
	}
}

func TestLearnClampsRank(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Exactly rank-1 data: repeated multiples of one direction, no noise.
	d := 4
	x := mat.NewDense(d, 20)
	for c := 0; c < 20; c++ {
		col := unit(d, 0)
		col[0] = 1 + rng.Float64()
		x.SetCol(c, col)
	}
	s, err := Learn(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rank() != 1 {
		t.Fatalf("rank = %d, want 1", s.Rank())
	}
}

func TestLearnErrors(t *testing.T) {
	if _, err := Learn(mat.NewDense(0, 0), 1); err != ErrNoData {
		t.Fatalf("err = %v", err)
	}
}

// TestLearnQuadMatchesLearn: each subspace LearnQuad returns equals
// Learn's exactly (mat pins the SVD bits), with the rank clamp
// (rank-one data asked for three directions, a zero matrix for one)
// and wide data, and an empty member refuses the quad.
func TestLearnQuadMatchesLearn(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rankOne := mat.NewDense(6, 20)
	for c := 0; c < 20; c++ {
		col := unit(6, 2)
		col[2] = 1 + rng.Float64()
		rankOne.SetCol(c, col)
	}
	for _, c := range []struct {
		x [4]*mat.Dense
		k int
	}{
		{[4]*mat.Dense{randDense(rng, 30, 8), randDense(rng, 30, 8), randDense(rng, 30, 8), randDense(rng, 30, 8)}, 2},
		{[4]*mat.Dense{rankOne, randDense(rng, 6, 20), rankOne, mat.NewDense(6, 20)}, 3},
		{[4]*mat.Dense{randDense(rng, 6, 9), mat.NewDense(6, 9), randDense(rng, 6, 9), randDense(rng, 6, 9)}, 1},
	} {
		subs, err := LearnQuad(c.x, c.k)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range c.x {
			want, err := Learn(x, c.k)
			if err != nil {
				t.Fatal(err)
			}
			if !subs[i].Basis().Equalf(want.Basis(), 0) {
				t.Fatalf("member %d: LearnQuad's basis differs from Learn's", i)
			}
		}
	}
	x := randDense(rng, 3, 2)
	if _, err := LearnQuad([4]*mat.Dense{x, x, mat.NewDense(3, 0), x}, 1); err != ErrNoData {
		t.Fatalf("empty member: err = %v", err)
	}
}

func TestZeroSubspace(t *testing.T) {
	z := Zero(6)
	if z.Rank() != 0 || z.Dim() != 6 {
		t.Fatal("zero subspace malformed")
	}
	p, err := z.Proximity([]float64{0, 3, 0, 4, 0, 0}, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-25) > 1e-12 {
		t.Fatalf("zero-subspace proximity = %v, want 25", p)
	}
}

func TestProximityInsideAndOutside(t *testing.T) {
	// Subspace = span(e0). Points along e0 have ~zero residual; points
	// along e1 keep their full energy.
	rng := rand.New(rand.NewSource(3))
	x := dataAlong(rng, 25, unit(4, 0))
	s, err := Learn(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	all := []int{0, 1, 2, 3}
	pin, err := s.Proximity([]float64{2, 0, 0, 0}, all)
	if err != nil {
		t.Fatal(err)
	}
	pout, err := s.Proximity([]float64{0, 2, 0, 0}, all)
	if err != nil {
		t.Fatal(err)
	}
	if pin > 1e-8 {
		t.Fatalf("in-subspace proximity = %v", pin)
	}
	if math.Abs(pout-4) > 1e-6 {
		t.Fatalf("out-of-subspace proximity = %v, want 4", pout)
	}
}

func TestProximityRestrictedRows(t *testing.T) {
	// With only rows {0,1} observed, a vector whose restriction lies in
	// the restricted span has zero proximity even if the hidden rows
	// disagree — that is exactly the detection-group mechanism.
	basis := mat.NewDense(3, 1)
	basis.SetCol(0, []float64{1 / math.Sqrt(2), 1 / math.Sqrt(2), 0})
	s := FromBasis(basis)
	p, err := s.Proximity([]float64{5, 5, 999}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-10 {
		t.Fatalf("restricted proximity = %v, want 0", p)
	}
	// Restriction that disagrees keeps residual.
	p, err = s.Proximity([]float64{5, -5, 0}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p < 1 {
		t.Fatalf("orthogonal restricted proximity = %v", p)
	}
}

// TestRestrictedResidual: one restriction serves many vectors, its
// residual energy is the Eq. (9) proximity over the same rows, the zero
// subspace passes vectors through, and wrong lengths and out-of-range
// rows are errors.
func TestRestrictedResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, err := Learn(dataAlong(rng, 25, unit(5, 0), unit(5, 3)), 2)
	if err != nil {
		t.Fatal(err)
	}
	group := []int{0, 2, 3}
	r, err := s.Restrict(group)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]float64, len(group))
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, 5)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		if err := r.ResidualTo(res, []float64{x[0], x[2], x[3]}); err != nil {
			t.Fatal(err)
		}
		n := mat.Norm2(res)
		p, err := s.Proximity(x, group)
		if err != nil {
			t.Fatal(err)
		}
		if e := n * n; math.Abs(e-p) > 1e-12*(1+p) {
			t.Fatalf("restricted residual energy %v, proximity %v", e, p)
		}
	}
	if err := r.ResidualTo(res, []float64{1, 2}); err == nil {
		t.Fatal("expected length error")
	}
	if err := r.ResidualTo(res[:2], []float64{1, 2, 3}); err == nil {
		t.Fatal("expected destination length error")
	}
	if _, err := s.Restrict([]int{0, 7}); err == nil {
		t.Fatal("expected range error")
	}
	z, err := Zero(5).Restrict(group)
	if err != nil {
		t.Fatal(err)
	}
	xd := []float64{1, 2, 3}
	if err := z.ResidualTo(res, xd); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(xd, []float64{1, 2, 3}) || !slices.Equal(res, xd) {
		t.Fatalf("zero-subspace residual %v of %v is not a copy", res, xd)
	}
}

// allocResidual is the allocating formulation the detector scored with
// before ResidualTo: xd − U_D ((U_D)⁺ xd) through two MulVec products on
// the row-major factors Restrict takes.
func allocResidual(s *Subspace, group []int, xd []float64) []float64 {
	out := slices.Clone(xd)
	if s.Rank() == 0 {
		return out
	}
	ud := s.basis.SelectRows(group)
	fit := ud.MulVec(mat.PseudoInverse(ud).MulVec(out))
	for i := range out {
		out[i] -= fit[i]
	}
	return out
}

// TestResidualToMatchesMulVec: the residual keeps the bits of
// allocResidual at ranks 0 to 5 and one rank past the stack buffer, on
// groups of every length modulo four, for vectors mixing exact zeros,
// ordinary values and entries near 1e±300.
func TestResidualToMatchesMulVec(t *testing.T) { checkResidualToMatchesMulVec(t) }

// checkResidualToMatchesMulVec is TestResidualToMatchesMulVec's check,
// which the tests without AVX rerun.
func checkResidualToMatchesMulVec(t *testing.T) {
	const d = 16
	for _, k := range []int{0, 1, 2, 3, 4, 5, stackRank + 1} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			s := Zero(d)
			if k > 0 {
				s = FromBasis(mat.Orthonormalize(randDense(rng, d, k)))
			}
			group := rng.Perm(d)[:k+rng.Intn(d-k+1)]
			r, err := s.Restrict(group)
			if err != nil {
				t.Fatal(err)
			}
			xd := make([]float64, len(group))
			for i := range xd {
				switch rng.Intn(4) {
				case 0: // exact zero
				case 1:
					xd[i] = rng.NormFloat64()
				case 2:
					xd[i] = rng.NormFloat64() * 1e300
				default:
					xd[i] = rng.NormFloat64() * 1e-300
				}
			}
			dst := make([]float64, len(xd))
			if err := r.ResidualTo(dst, xd); err != nil {
				t.Fatal(err)
			}
			want := allocResidual(s, group, xd)
			for i := range dst {
				if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
					t.Logf("rank %d seed %d: residual[%d] %v, want %v", k, seed, i, dst[i], want[i])
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("rank %d: %v", k, err)
		}
	}
}

func TestProximityValidation(t *testing.T) {
	s := Zero(3)
	if _, err := s.Proximity([]float64{1, 2}, []int{0}); err == nil {
		t.Fatal("expected dim error")
	}
	if _, err := s.Proximity([]float64{1, 2, 3}, nil); err == nil {
		t.Fatal("expected empty-group error")
	}
	if _, err := s.Proximity([]float64{1, 2, 3}, []int{9}); err == nil {
		t.Fatal("expected range error")
	}
}

func TestProximityNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 3 + rng.Intn(6)
		x := dataAlong(rng, 15, unit(d, rng.Intn(d)), unit(d, rng.Intn(d)))
		s, err := Learn(x, 2)
		if err != nil {
			return false
		}
		v := make([]float64, d)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		group := []int{0, 1, 2}
		p, err := s.Proximity(v, group)
		if err != nil {
			return false
		}
		// Residual energy cannot exceed the restricted sample energy.
		var e float64
		for _, i := range group {
			e += v[i] * v[i]
		}
		return p >= -1e-12 && p <= e+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestUnionContainsParts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := 6
	s1, _ := Learn(dataAlong(rng, 20, unit(d, 0)), 1)
	s2, _ := Learn(dataAlong(rng, 20, unit(d, 2)), 1)
	u, err := Union(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if u.Rank() != 2 {
		t.Fatalf("union rank = %d, want 2", u.Rank())
	}
	all := []int{0, 1, 2, 3, 4, 5}
	for _, v := range [][]float64{unit(d, 0), unit(d, 2)} {
		p, err := u.Proximity(v, all)
		if err != nil {
			t.Fatal(err)
		}
		if p > 1e-8 {
			t.Fatalf("union must contain member direction, prox = %v", p)
		}
	}
	// Orthogonal direction stays out.
	p, _ := u.Proximity(unit(d, 4), all)
	if p < 0.9 {
		t.Fatalf("union unexpectedly contains e4: prox = %v", p)
	}
}

func TestUnionValidation(t *testing.T) {
	if _, err := Union(); err == nil {
		t.Fatal("expected error for empty union")
	}
	if _, err := Union(Zero(3), Zero(4)); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
	u, err := Union(Zero(3), Zero(3))
	if err != nil || u.Rank() != 0 {
		t.Fatal("union of zeros must be zero")
	}
}

func TestIntersectionSharedDirection(t *testing.T) {
	// Two 2-D subspaces sharing exactly e0.
	rng := rand.New(rand.NewSource(5))
	d := 5
	s1, _ := Learn(dataAlong(rng, 30, unit(d, 0), unit(d, 1)), 2)
	s2, _ := Learn(dataAlong(rng, 30, unit(d, 0), unit(d, 3)), 2)
	inter, err := Intersection(0.9, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if inter.Rank() != 1 {
		t.Fatalf("intersection rank = %d, want 1", inter.Rank())
	}
	b := inter.Basis().Col(0)
	if math.Abs(b[0]) < 0.99 {
		t.Fatalf("intersection direction = %v, want ~e0", b)
	}
}

func TestIntersectionFallback(t *testing.T) {
	// Disjoint subspaces: exact intersection empty, fallback returns the
	// single most-shared direction.
	rng := rand.New(rand.NewSource(6))
	d := 4
	s1, _ := Learn(dataAlong(rng, 20, unit(d, 0)), 1)
	s2, _ := Learn(dataAlong(rng, 20, unit(d, 1)), 1)
	inter, err := Intersection(0.99, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if inter.Rank() != 1 {
		t.Fatalf("fallback rank = %d, want 1", inter.Rank())
	}
}

func TestIntersectionValidation(t *testing.T) {
	if _, err := Intersection(0.5); err == nil {
		t.Fatal("expected error for empty intersection")
	}
	if _, err := Intersection(0.5, Zero(2), Zero(3)); err == nil {
		t.Fatal("expected dimension mismatch")
	}
	z, err := Intersection(0.5, Zero(3), Zero(3))
	if err != nil || z.Rank() != 0 {
		t.Fatal("intersection of zero subspaces must be zero")
	}
}

func TestRegressorShapeAndProximity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := 5
	x := dataAlong(rng, 30, unit(d, 0), unit(d, 1))
	s, _ := Learn(x, 2)
	group := []int{0, 1, 2}
	phi, err := s.Regressor(group)
	if err != nil {
		t.Fatal(err)
	}
	if r, c := phi.Dims(); r != 3 || c != 2 {
		t.Fatalf("regressor dims = %dx%d, want 3x2", r, c)
	}
	// A sample in the subspace has near-zero regressor proximity.
	v := make([]float64, d)
	v[0], v[1] = 2, -1
	p, err := s.RegressorProximity(v, group)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-6 {
		t.Fatalf("in-subspace regressor proximity = %v", p)
	}
	if _, err := Zero(d).Regressor(group); err == nil {
		t.Fatal("zero subspace must have no regressor")
	}
}

func TestRegressorProximityAgreesOnCompleteGroups(t *testing.T) {
	// When the detection group covers all rows, both proximity variants
	// coincide with the plain projection residual.
	rng := rand.New(rand.NewSource(8))
	d := 4
	x := dataAlong(rng, 25, unit(d, 0))
	s, _ := Learn(x, 1)
	all := []int{0, 1, 2, 3}
	v := []float64{1, 2, -1, 0.5}
	p1, err := s.Proximity(v, all)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.RegressorProximity(v, all)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p1-p2) > 1e-8 {
		t.Fatalf("variants disagree on complete group: %v vs %v", p1, p2)
	}
}

func TestScaledProximity(t *testing.T) {
	if got := ScaledProximity(2, 3, 4); math.Abs(got-1.5) > 1e-15 {
		t.Fatalf("ScaledProximity = %v", got)
	}
	// Zero normal proximity must not blow up to Inf/NaN.
	got := ScaledProximity(1, 1, 0)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("ScaledProximity unguarded: %v", got)
	}
}

func TestUnionIntersectionRankAlgebra(t *testing.T) {
	// Union rank is bounded by the rank sum; intersection rank by the
	// smallest member rank (shared-direction reading).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 5 + rng.Intn(5)
		k := 2 + rng.Intn(3)
		var subs []*Subspace
		total := 0
		minRank := d
		for j := 0; j < k; j++ {
			r := 1 + rng.Intn(2)
			x := dataAlong(rng, 20, unit(d, rng.Intn(d)), unit(d, rng.Intn(d)))
			s, err := Learn(x, r)
			if err != nil {
				return false
			}
			subs = append(subs, s)
			total += s.Rank()
			if s.Rank() < minRank {
				minRank = s.Rank()
			}
		}
		u, err := Union(subs...)
		if err != nil {
			return false
		}
		if u.Rank() > total || u.Rank() > d {
			return false
		}
		in, err := Intersection(0.99, subs...)
		if err != nil {
			return false
		}
		// The fallback guarantees at least one direction; the shared set
		// never exceeds the smallest member.
		return in.Rank() >= 1 && in.Rank() <= minRank
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
