package mat

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
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

// checkSVDLane fails t unless got is want, bit for bit.
func checkSVDLane(t *testing.T, name string, got, want *SVD, nan bool) {
	t.Helper()
	gm, gk := got.U.Dims()
	wm, wk := want.U.Dims()
	gn, _ := got.V.Dims()
	wn, _ := want.V.Dims()
	if gm != wm || gk != wk || gn != wn {
		t.Fatalf("%s: U %dx%d V %d rows, want U %dx%d V %d rows", name, gm, gk, gn, wm, wk, wn)
	}
	if !sameSlice(got.S, want.S, nan) {
		t.Fatalf("%s: S %v, want %v", name, got.S, want.S)
	}
	if !sameSlice(got.U.data, want.U.data, nan) || !sameSlice(got.V.data, want.V.data, nan) {
		t.Fatalf("%s: factors differ from FactorSVD's", name)
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

// TestFactorSVDPairBitIdentical: each lane of FactorSVDPair is
// FactorSVD, bit for bit, on the training shapes (118×40 per line on
// ieee118, 30×40 wide on ieee30), tall and small restricted shapes and
// one column; with a zero column, an all-zero lane, a lane that stops
// after its first sweep beside one that rotates for several, and two
// random lanes, which stop when each converges.
func TestFactorSVDPairBitIdentical(t *testing.T) {
	for _, dims := range [][2]int{{118, 40}, {30, 40}, {300, 8}, {28, 3}, {40, 2}, {20, 1}} {
		m, n := dims[0], dims[1]
		rng := rand.New(rand.NewSource(int64(m*100 + n)))
		x, y := randDense(rng, m, n), randDense(rng, m, n)
		zeroCol := randDense(rng, m, n)
		for i := 0; i < m; i++ {
			zeroCol.Set(i, n/2, 0)
		}
		for _, c := range []struct {
			name string
			a, b *Dense
		}{
			{"random", x, y},
			{"zero column", zeroCol, x},
			{"zero lane", y, NewDense(m, n)},
			{"first sweep", x, diagonal(m, n)},
			{"first sweep swapped", diagonal(m, n), y},
		} {
			ga, gb := FactorSVDPair(c.a, c.b)
			checkSVDLane(t, c.name+" lane 0", ga, FactorSVD(c.a), false)
			checkSVDLane(t, c.name+" lane 1", gb, FactorSVD(c.b), false)
		}
	}
}

// TestFactorSVDPairShapes: matrices of different shapes each get
// FactorSVD's result.
func TestFactorSVDPairShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := randDense(rng, 12, 5), randDense(rng, 5, 12)
	ga, gb := FactorSVDPair(a, b)
	checkSVDLane(t, "tall", ga, FactorSVD(a), false)
	checkSVDLane(t, "wide", gb, FactorSVD(b), false)
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

// FuzzFactorSVDPair: each lane of FactorSVDPair equals FactorSVD on
// two small matrices of one shape, tall or wide, read from raw float64
// bits; NaNs match as NaN. The first two bytes give the shape.
func FuzzFactorSVDPair(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	// 4×3 lanes: a zero column beside a random lane.
	zc := normals(rng, 12)
	for i := 0; i < 4; i++ {
		zc[i*3+1] = 0
	}
	f.Add(fuzzBytes([]byte{3, 2}, append(zc, normals(rng, 12)...)...))
	// 3×5 (wide): a random lane beside an all-zero lane.
	f.Add(fuzzBytes([]byte{2, 4}, append(normals(rng, 15), make([]float64, 15)...)...))
	// 5×4: a diagonal lane that stops after one sweep beside a random
	// lane that rotates for several.
	f.Add(fuzzBytes([]byte{4, 3}, append(diagonal(5, 4).data, normals(rng, 20)...)...))
	f.Add(fuzzBytes([]byte{1, 1}, math.NaN(), math.Inf(1), math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1, math.MaxFloat64, 2, -3))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		m, n := 1+int(data[0])%6, 1+int(data[1])%6
		v := fuzzFloats(data[2:], 2*m*n)
		a, b := NewDenseData(m, n, v[:m*n]), NewDenseData(m, n, v[m*n:])
		ga, gb := FactorSVDPair(a, b)
		checkSVDLane(t, "lane 0", ga, FactorSVD(a), true)
		checkSVDLane(t, "lane 1", gb, FactorSVD(b), true)
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

func BenchmarkSVDPair118x40(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := randDense(rng, 118, 40), randDense(rng, 118, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FactorSVDPair(x, y)
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
