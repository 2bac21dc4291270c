package mat

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sameBits reports whether two floats have the same bits; with nan
// set, any two NaNs also match, whatever their payloads.
func sameBits(a, b float64, nan bool) bool {
	return math.Float64bits(a) == math.Float64bits(b) || nan && math.IsNaN(a) && math.IsNaN(b)
}

// sameSlice is sameBits over two slices of one length.
func sameSlice(a, b []float64, nan bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i], nan) {
			return false
		}
	}
	return true
}

// checkLane fails t unless got is want, bit for bit.
func checkLane(t *testing.T, name string, got, want *Dense, nan bool) {
	t.Helper()
	gm, gk := got.Dims()
	wm, wk := want.Dims()
	if gm != wm || gk != wk {
		t.Fatalf("%s: %dx%d, want %dx%d", name, gm, gk, wm, wk)
	}
	if !sameSlice(got.data, want.data, nan) {
		t.Fatalf("%s: leading vectors differ from FactorSVD's", name)
	}
}

// checkQuad fails t unless each lane of LeadingQuad(a, k) is
// FactorSVD(a[l]).Leading(k), bit for bit.
func checkQuad(t *testing.T, name string, a [4]*Dense, k int, nan bool) {
	t.Helper()
	got := LeadingQuad(a, k)
	for l, x := range a {
		checkLane(t, fmt.Sprintf("%s k=%d lane %d", name, k, l), got[l], FactorSVD(x).Leading(k), nan)
	}
}

// diagonal is the m×n matrix with i+1 at (i, i): its columns (or, when
// wide, its rows) are orthogonal, so its Jacobi lane stops after the
// first sweep.
func diagonal(m, n int) *Dense {
	a := NewDense(m, n)
	for i := 0; i < min(m, n); i++ {
		a.Set(i, i, float64(i+1))
	}
	return a
}

// nearTol is the m×n diagonal matrix whose first singular value is 1
// and whose others lie between min(m,n) and max(m,n) machine epsilons:
// Rank's default tolerance, from the larger dimension, cuts them, and
// one from the smaller would keep them.
func nearTol(m, n int) *Dense {
	a := NewDense(m, n)
	eps := math.Nextafter(1, 2) - 1
	for i := 0; i < min(m, n); i++ {
		v := float64(m+n) / 2 * eps
		if i == 0 {
			v = 1
		}
		a.Set(i, i, v)
	}
	return a
}

// TestLeadingQuadBitIdentical: each lane of LeadingQuad is FactorSVD's
// Leading, bit for bit, on the training shapes (118×40 per line on
// ieee118, 57×40 on ieee57, 30×40 wide on ieee30), tall and small
// restricted shapes and one column, for k from 0 to every column; with
// a zero column, an all-zero lane, a lane that stops after its first
// sweep beside ones that rotate for several, rank-one lanes and lanes
// with singular values just under the rank tolerance, whose rank clamp
// cuts k, and four random lanes, which stop when each converges.
func TestLeadingQuadBitIdentical(t *testing.T) {
	for _, dims := range [][2]int{{118, 40}, {57, 40}, {30, 40}, {300, 8}, {28, 3}, {40, 2}, {20, 1}, {3, 9}} {
		m, n := dims[0], dims[1]
		rng := rand.New(rand.NewSource(int64(m*100 + n)))
		x, y, z := randDense(rng, m, n), randDense(rng, m, n), randDense(rng, m, n)
		zeroCol := randDense(rng, m, n)
		for i := 0; i < m; i++ {
			zeroCol.Set(i, n/2, 0)
		}
		rankOne := NewDense(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				rankOne.Set(i, j, float64(i+1)*float64(j+2))
			}
		}
		for _, c := range []struct {
			name string
			a    [4]*Dense
		}{
			{"random", [4]*Dense{x, y, z, zeroCol}},
			{"zero lane", [4]*Dense{y, NewDense(m, n), x, z}},
			{"first sweep", [4]*Dense{x, diagonal(m, n), y, diagonal(m, n)}},
			{"first sweep lane 0", [4]*Dense{diagonal(m, n), z, x, y}},
			{"rank one", [4]*Dense{rankOne, x, rankOne, NewDense(m, n)}},
			{"near the rank tolerance", [4]*Dense{nearTol(m, n), x, y, nearTol(m, n)}},
		} {
			for _, k := range []int{0, 1, 2, n} {
				checkQuad(t, fmt.Sprintf("%dx%d %s", m, n, c.name), c.a, k, false)
			}
		}
	}
}

// TestLeadingQuadShapes: matrices of different shapes each get
// FactorSVD's Leading.
func TestLeadingQuadShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	checkQuad(t, "shapes", [4]*Dense{randDense(rng, 12, 5), randDense(rng, 5, 12), randDense(rng, 12, 5), randDense(rng, 12, 6)}, 2, false)
	checkQuad(t, "no columns", [4]*Dense{NewDense(4, 0), NewDense(4, 0), NewDense(4, 0), NewDense(4, 0)}, 1, false)
	checkQuad(t, "no rows", [4]*Dense{NewDense(0, 3), NewDense(0, 3), NewDense(0, 3), NewDense(0, 3)}, 1, false)
}

// TestLeadingTruncates: Leading is U's first columns, k raised to 1 and
// cut to the rank.
func TestLeadingTruncates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randDense(rng, 10, 4)
	for i := 0; i < 10; i++ {
		a.Set(i, 3, a.At(i, 0)) // rank 3
	}
	s := FactorSVD(a)
	for _, c := range [][2]int{{-1, 1}, {0, 1}, {2, 2}, {3, 3}, {4, 3}, {9, 3}} {
		got := s.Leading(c[0])
		idx := make([]int, c[1])
		for i := range idx {
			idx[i] = i
		}
		checkLane(t, fmt.Sprintf("k=%d", c[0]), got, s.U.SelectCols(idx), false)
	}
	if got := FactorSVD(NewDense(5, 3)).Leading(2); got.Rows() != 5 || got.Cols() != 0 {
		t.Fatalf("zero matrix: Leading is %dx%d, want 5x0", got.Rows(), got.Cols())
	}
}

// TestSolveManyMatchesSolve: every right-hand side SolveMany solves is
// Solve's solution, bit for bit, for one block, a short block, a full
// block, a block and one and five blocks; a zero diagonal gives
// ErrSingular, as in Solve; bad lengths are refused.
func TestSolveManyMatchesSolve(t *testing.T) {
	const n = 117 // B′ of a 118-bus grid
	rng := rand.New(rand.NewSource(11))
	f, err := FactorLU(randDense(rng, n, n))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 7, 8, 9, 40} {
		b := make([]float64, k*n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got := make([]float64, len(b))
		if err := f.SolveMany(got, b); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < k; j++ {
			want, err := f.Solve(b[j*n : (j+1)*n])
			if err != nil {
				t.Fatal(err)
			}
			if !sameSlice(got[j*n:(j+1)*n], want, false) {
				t.Fatalf("%d right-hand sides: solution %d differs from Solve's", k, j)
			}
		}
		// In place.
		if err := f.SolveMany(b, b); err != nil || !sameSlice(b, got, false) {
			t.Fatalf("%d right-hand sides in place: %v", k, err)
		}
	}

	sing := &LU{lu: NewDenseData(3, 3, []float64{2, 1, 1, 0.5, 0, 1, 0.5, 1, 3}), piv: []int{2, 0, 1}}
	b := []float64{1, 2, 3, 4, 5, 6}
	if _, err := sing.Solve(b[:3]); !errors.Is(err, ErrSingular) {
		t.Fatalf("Solve on a zero diagonal: %v", err)
	}
	if err := sing.SolveMany(make([]float64, 6), b); !errors.Is(err, ErrSingular) {
		t.Fatalf("SolveMany on a zero diagonal: %v, want ErrSingular", err)
	}
	for _, c := range [][2]int{{6, 5}, {5, 5}, {0, 3}} {
		if err := f.SolveMany(make([]float64, c[0]), make([]float64, c[1])); err == nil {
			t.Fatalf("SolveMany of %d values into %d: no error", c[1], c[0])
		}
	}
	if err := f.SolveMany(nil, nil); err != nil {
		t.Fatalf("SolveMany of nothing: %v", err)
	}
}

// specials are the entries the LU lane tests sprinkle into random
// data: NaNs with two payloads, infinities, signed zeros and a
// subnormal.
var specials = []float64{math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64}

// randSpecial returns a standard normal draw, or one time in eight one
// of specials.
func randSpecial(rng *rand.Rand) float64 {
	if rng.Intn(8) == 0 {
		return specials[rng.Intn(len(specials))]
	}
	return rng.NormFloat64()
}

// TestSubMulMatchesGo: FactorLU's row update in lanes has subMulGo's
// bits, NaN payloads included, on every length from 0 to 70 and some
// longer, from starts at every offset of a 32-byte line, with special
// entries and multipliers; elements past len(ri) are left alone.
func TestSubMulMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	lengths := []int{117, 255, 256, 1000}
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for off := 0; off < 4; off++ {
			ri := make([]float64, off+n+1)
			rk := make([]float64, off+n+1)
			for i := range ri {
				ri[i], rk[i] = randSpecial(rng), randSpecial(rng)
			}
			m := randSpecial(rng)
			got, want := append([]float64(nil), ri...), append([]float64(nil), ri...)
			subMul(got[off:off+n], rk[off:], m)
			subMulGo(want[off:off+n], rk[off:], m)
			if !sameSlice(got, want, false) {
				t.Fatalf("length %d at offset %d, m %v: %v, want %v", n, off, m, got, want)
			}
		}
	}
}

// TestFactorLUMatchesGo: FactorLU, whose row updates run in lanes, has
// the bits of the same elimination through subMulGo, pivots and
// ErrSingular included, on random matrices of orders 1 to 40 and 117
// (B′ of a 118-bus grid), with and without special entries, and on
// ones with a zero column.
func TestFactorLUMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	orders := []int{117}
	for n := 1; n <= 40; n++ {
		orders = append(orders, n)
	}
	for _, n := range orders {
		for c, fill := range []func() float64{rng.NormFloat64, func() float64 { return randSpecial(rng) }} {
			a := NewDense(n, n)
			for i := range a.data {
				a.data[i] = fill()
			}
			if c == 1 && n > 2 {
				for i := 0; i < n; i++ {
					a.data[i*n+n/2] = 0 // a zero column: ErrSingular
				}
			}
			b := a.Clone()
			got, gerr := FactorLU(a)
			want, werr := factorLU(b, subMulGo)
			if gerr != werr {
				t.Fatalf("order %d case %d: error %v, want %v", n, c, gerr, werr)
			}
			if !sameSlice(a.data, b.data, false) {
				t.Fatalf("order %d case %d: factors differ from the Go elimination's", n, c)
			}
			if werr == nil && !slices.Equal(got.piv, want.piv) {
				t.Fatalf("order %d case %d: pivots %v, want %v", n, c, got.piv, want.piv)
			}
		}
	}
}

// fuzzFloats reads k float64s from raw little-endian bits, NaN
// payloads, infinities, subnormals and signed zeros included; data
// short of 8k bytes reads as zeros.
func fuzzFloats(data []byte, k int) []float64 {
	out := make([]float64, k)
	for i := range out {
		if len(data) < 8 {
			break
		}
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
	}
	return out
}

// fuzzBytes is fuzzFloats' inverse, for seeds: head bytes, then the
// bits of each value.
func fuzzBytes(head []byte, vals ...float64) []byte {
	out := append([]byte(nil), head...)
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// normals returns k standard normal draws of rng, for fuzz seeds.
func normals(rng *rand.Rand, k int) []float64 {
	v := make([]float64, k)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// FuzzLeadingQuad: each lane of LeadingQuad equals FactorSVD's
// Leading bit for bit, NaN payloads included, on four small matrices
// of one shape, tall or wide, read from raw float64 bits. The first two
// bytes give the shape and the third k.
func FuzzLeadingQuad(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	// 4×3 lanes: a zero column beside random lanes.
	zc := normals(rng, 12)
	for i := 0; i < 4; i++ {
		zc[i*3+1] = 0
	}
	f.Add(fuzzBytes([]byte{3, 2, 1}, append(zc, normals(rng, 36)...)...))
	// 3×5 (wide): random lanes beside an all-zero lane.
	f.Add(fuzzBytes([]byte{2, 4, 2}, append(normals(rng, 45), make([]float64, 15)...)...))
	// 5×4: diagonal lanes that stop after one sweep beside random
	// lanes that rotate for several.
	diag := diagonal(5, 4).data
	f.Add(fuzzBytes([]byte{4, 3, 3}, append(append(append(normals(rng, 20), diag...), normals(rng, 20)...), diag...)...))
	f.Add(fuzzBytes([]byte{1, 1, 0}, math.NaN(), math.Inf(1), math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1, math.MaxFloat64, 2, -3,
		math.Inf(-1), 0, 4, math.NaN(), 5, 6, -7, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		m, n, k := 1+int(data[0])%6, 1+int(data[1])%6, int(data[2])%8
		v := fuzzFloats(data[3:], 4*m*n)
		var a [4]*Dense
		for l := range a {
			a[l] = NewDenseData(m, n, v[l*m*n:(l+1)*m*n])
		}
		checkQuad(t, fmt.Sprintf("%dx%d", m, n), a, k, false)
	})
}

// FuzzSolveLanes: SolveMany on one to nine right-hand sides equals
// Solve on each, ErrSingular included, for a small factor read from
// raw float64 bits with a row permutation picked by the third byte.
// The first two bytes give the order and the number of right-hand
// sides. NaNs match as NaN.
func FuzzSolveLanes(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	// 4×4 with a zero column, so a zero diagonal: ErrSingular.
	zc := normals(rng, 16)
	for i := 0; i < 4; i++ {
		zc[i*4+2] = 0
	}
	f.Add(fuzzBytes([]byte{3, 2, 1}, append(zc, normals(rng, 12)...)...))
	// 5×5, nine right-hand sides (a block of eight and one), the
	// second all zero.
	rhs := normals(rng, 45)
	clear(rhs[5:10])
	f.Add(fuzzBytes([]byte{4, 8, 2}, append(normals(rng, 25), rhs...)...))
	f.Add(fuzzBytes([]byte{1, 0, 0}, math.NaN(), math.Inf(-1), math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1, 2, 3, 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n, k := 1+int(data[0])%6, 1+int(data[1])%9
		v := fuzzFloats(data[3:], n*n+k*n)
		lu := &LU{lu: NewDenseData(n, n, v[:n*n]), piv: rand.New(rand.NewSource(int64(data[2]))).Perm(n)}
		b := v[n*n:]
		got := make([]float64, len(b))
		err := lu.SolveMany(got, b)
		for j := 0; j < k; j++ {
			want, werr := lu.Solve(b[j*n : (j+1)*n])
			if !errors.Is(err, werr) && err != werr {
				t.Fatalf("right-hand side %d: SolveMany error %v, Solve %v", j, err, werr)
			}
			if werr == nil && !sameSlice(got[j*n:(j+1)*n], want, true) {
				t.Fatalf("right-hand side %d: %v, Solve %v", j, got[j*n:(j+1)*n], want)
			}
		}
	})
}

func BenchmarkLeadingQuad118x40(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var a [4]*Dense
	for l := range a {
		a[l] = randDense(rng, 118, 40)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LeadingQuad(a, 1)
	}
}

func BenchmarkSolveMany40(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f, err := FactorLU(randDense(rng, 117, 117))
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, 40*117)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	x := make([]float64, len(rhs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.SolveMany(x, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
