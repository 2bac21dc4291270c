package subspace

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pmuoutage/internal/mat"
)

// randSubspace returns a random orthonormal subspace of dimension d and
// rank k (the zero subspace for k = 0).
func randSubspace(rng *rand.Rand, d, k int) *Subspace {
	if k == 0 {
		return Zero(d)
	}
	return FromBasis(mat.Orthonormalize(randDense(rng, d, k)))
}

// restrictedEnergies is the oracle EnergiesTo must reproduce: each
// member restricted on its own, its residual by ResidualTo and its
// energy the square of mat.Norm2.
func restrictedEnergies(t testing.TB, group []int, subs []*Subspace, x []float64) []float64 {
	t.Helper()
	out := make([]float64, len(subs))
	res := make([]float64, len(x))
	for k, s := range subs {
		r, err := s.Restrict(group)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.ResidualTo(res, x); err != nil {
			t.Fatal(err)
		}
		n := mat.Norm2(res)
		out[k] = n * n
	}
	return out
}

// energiesOf runs EnergiesTo on x with its energy ‖x‖² from mat.Norm2.
func energiesOf(t testing.TB, p *Packed, x []float64) (dst, scratch []float64) {
	t.Helper()
	dst, scratch = make([]float64, p.Len()), make([]float64, p.ScratchLen())
	n := mat.Norm2(x)
	if err := p.EnergiesTo(dst, scratch, x, n*n); err != nil {
		t.Fatal(err)
	}
	return dst, scratch
}

// TestPackedMatchesResidualTo: every member's packed energy keeps the
// bits of Restrict(group), ResidualTo and mat.Norm2, for members of
// ranks 0, 1, 2, 3 and one past stackRank in random order, random
// groups, and vectors mixing exact zeros, ordinary values and entries
// near 1e±300.
func TestPackedMatchesResidualTo(t *testing.T) { checkPackedMatchesResidualTo(t) }

// checkPackedMatchesResidualTo is TestPackedMatchesResidualTo's check,
// which the tests without AVX rerun.
func checkPackedMatchesResidualTo(t *testing.T) {
	const d = 24
	ranks := []int{0, 1, 2, 3, stackRank + 1}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		subs := make([]*Subspace, 1+rng.Intn(12))
		for k := range subs {
			subs[k] = randSubspace(rng, d, ranks[rng.Intn(len(ranks))])
		}
		group := rng.Perm(d)[:1+rng.Intn(d)]
		x := make([]float64, len(group))
		for i := range x {
			switch rng.Intn(4) {
			case 0: // exact zero
			case 1:
				x[i] = rng.NormFloat64()
			case 2:
				x[i] = rng.NormFloat64() * 1e300
			default:
				x[i] = rng.NormFloat64() * 1e-300
			}
		}
		p, err := Pack(group, subs...)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := energiesOf(t, p, x)
		want := restrictedEnergies(t, group, subs, x)
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Logf("seed %d: member %d of rank %d: energy %v, want %v", seed, k, subs[k].Rank(), got[k], want[k])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// hostileValue draws an entry for the scoring passes: NaN of either
// sign with a random payload, quiet or signalling, ±Inf, ±0, a
// subnormal, a value near 1e±300, or an ordinary value.
func hostileValue(rng *rand.Rand) float64 {
	sign := uint64(rng.Intn(2)) << 63
	switch rng.Intn(9) {
	case 0:
		return math.Float64frombits(sign | 0x7ff0000000000000 | uint64(1+rng.Int63n(1<<52-1)))
	case 1:
		return math.Float64frombits(sign | 0x7ff0000000000000)
	case 2:
		return math.Float64frombits(sign)
	case 3:
		return math.Float64frombits(sign | uint64(rng.Int63n(1<<52)))
	case 4:
		return rng.NormFloat64() * 1e300
	case 5:
		return rng.NormFloat64() * 1e-300
	default:
		return rng.NormFloat64()
	}
}

// sameBits reports the first index where got and want differ in their
// bits, or -1.
func sameBits(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// rankOneState runs pass over the first ones slots of basis (rows of
// stride) from a fresh norm state and returns their scales followed by
// their sums of squares.
func rankOneState(pass func(scale, ssq, alpha, x, basis []float64, stride int), ones int, alpha, x, basis []float64, stride int) []float64 {
	state := make([]float64, 2*ones)
	scale, ssq := state[:ones], state[ones:]
	for k := range ssq {
		ssq[k] = 1
	}
	pass(scale, ssq, alpha[:ones], x, basis, stride)
	return state
}

// checkCoefficients holds coefficients (the AVX kernel where the CPU
// has AVX) to coefficientsGo bit for bit: n coefficients of the quads
// in pinv against x, whatever bits they hold.
func checkCoefficients(t testing.TB, n int, pinv, x []float64) {
	t.Helper()
	got, want := make([]float64, n), make([]float64, n)
	coefficients(got, pinv, x)
	coefficientsGo(want, pinv, x)
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("coefficient %d of %d over %d columns: %v, Go loop %v (x %v)", i, n, len(x), got[i], want[i], x)
	}
}

// checkResidualRows holds residualRows to residualRowsGo bit for bit:
// the residual rows of ud (len(x) rows of len(alpha) columns in quads)
// against alpha, whatever bits they hold.
func checkResidualRows(t testing.TB, x, ud, alpha []float64) {
	t.Helper()
	got, want := make([]float64, len(x)), make([]float64, len(x))
	residualRows(got, x, ud, alpha)
	residualRowsGo(want, x, ud, alpha)
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("residual row %d of %d, rank %d: %v, Go loop %v (x %v, alpha %v)", i, len(x), len(alpha), got[i], want[i], x, alpha)
	}
}

// checkRankOne holds rankOne to rankOneGo bit for bit in every slot's
// scale and sum of squares: the first ones slots of basis (len(x) rows
// of stride) against alpha, ones a multiple of four, whatever bits they
// hold.
func checkRankOne(t testing.TB, ones int, alpha, x, basis []float64, stride int) {
	t.Helper()
	got := rankOneState(rankOne, ones, alpha, x, basis, stride)
	want := rankOneState(rankOneGo, ones, alpha, x, basis, stride)
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("rank-one slot %d of %d over %d rows: scales and sums of squares %v, Go loop %v (x %v, alpha %v)",
			i%ones, ones, len(x), got, want, x, alpha[:ones])
	}
}

// checkPacked holds EnergiesTo's passes to the Go loops on p: the
// coefficients and rank-one state it leaves in scratch against
// coefficientsGo and rankOneGo on p's factors and x, and then, when
// alpha is not nil, rankOne on p's basis and alpha.
func checkPacked(t testing.TB, p *Packed, x, alpha []float64) {
	t.Helper()
	_, scratch := energiesOf(t, p, x)
	n4 := roundQuad(len(p.slots))
	want := make([]float64, p.stride)
	coefficientsGo(want, p.pinv, x)
	if i := sameBits(scratch[:p.stride], want); i >= 0 {
		t.Fatalf("EnergiesTo: coefficient %d of %d over %d rows: %v, Go loop %v (x %v)", i, p.stride, p.rows, scratch[i], want[i], x)
	}
	state := rankOneState(rankOneGo, p.ones, want, x, p.basis, p.stride)
	got := slices.Concat(scratch[p.stride:p.stride+p.ones], scratch[p.stride+n4:p.stride+n4+p.ones])
	if i := sameBits(got, state); i >= 0 {
		t.Fatalf("EnergiesTo: rank-one slot %d of %d over %d rows: scales and sums of squares %v, Go loop %v (x %v)",
			i%p.ones, p.ones, p.rows, got, state, x)
	}
	if alpha != nil {
		checkRankOne(t, roundQuad(p.ones), alpha, x, p.basis, p.stride)
	}
}

// TestLanesMatchGo: the scoring passes keep their Go loops' bits in
// every lane, on vectors, coefficients and factors that mix NaN of both
// signs and random payloads, ±Inf, ±0, subnormals, 1e±300 and leading
// exact zeros: through EnergiesTo on packed members (0–9 of rank one
// with up to three of ranks 0, 2 and 3 mixed in, on groups of 0, 1, or
// 28 or more rows), and on their own on raw factors of 0–9 and 117–118
// rows, ranks 1–9 and 0–13 quads. A zero residual while the scale is
// still zero is the path the rank-one kernel's clamp reproduces; it
// needs an exact zero in x against a zero coefficient.
func TestLanesMatchGo(t *testing.T) {
	const d = 40
	higher := []int{0, 2, 3}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var subs []*Subspace
		for k := rng.Intn(10); k > 0; k-- {
			subs = append(subs, randSubspace(rng, d, 1))
		}
		for k := rng.Intn(4); k > 0; k-- {
			subs = append(subs, randSubspace(rng, d, higher[rng.Intn(len(higher))]))
		}
		rng.Shuffle(len(subs), func(i, j int) { subs[i], subs[j] = subs[j], subs[i] })
		rows := []int{0, 1, 28 + rng.Intn(d-27)}[rng.Intn(3)]
		p, err := Pack(rng.Perm(d)[:rows], subs...)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, rows)
		for i := rng.Intn(rows + 1); i < rows; i++ {
			x[i] = hostileValue(rng)
		}
		alpha := make([]float64, p.stride)
		for k := range alpha {
			if rng.Intn(3) > 0 {
				alpha[k] = hostileValue(rng)
			}
		}
		checkPacked(t, p, x, alpha)

		// The passes on their own, on raw factors.
		rows = []int{rng.Intn(10), 117 + rng.Intn(2)}[rng.Intn(2)]
		k, quads := 1+rng.Intn(9), rng.Intn(14)
		stride := 4 * max(quads, 1)
		hostile := func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				if rng.Intn(4) > 0 {
					v[i] = hostileValue(rng)
				}
			}
			return v
		}
		x = hostile(rows)
		checkCoefficients(t, 4*quads, hostile(4*quads*rows), x)
		checkResidualRows(t, x, hostile(roundQuad(rows)*k), hostile(k))
		checkRankOne(t, 4*quads, hostile(stride), x, hostile(rows*stride), stride)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// FuzzPackedEnergies holds the scoring passes to their Go loops bit for
// bit on inputs read from raw bytes: the members' ranks (0–3) and the
// group's rows from the first bytes, then the vector's entries as raw
// float64 bit patterns, NaN payloads included, and any words left over
// as coefficients and as the factors of the coefficient and residual
// passes, so that a lane's wrong operand order shows where both are
// NaN.
func FuzzPackedEnergies(f *testing.F) {
	const d = 40
	words := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add([]byte{1, 1, 1}, []byte{3, 9, 27}, words(1, 0.5, -2))
	f.Add([]byte{1, 1, 1}, []byte{0, 1, 2, 3},
		words(math.Float64frombits(0x7ff8000000000bad), 1, math.Float64frombits(0xfff4000000000001), 2, 0.5, -0.25, 3))
	f.Add([]byte{1, 2, 0, 1, 3}, []byte{0, 5, 10, 15, 20, 25, 30, 35, 1, 6, 11, 16, 21, 26, 31, 36, 2, 7, 12, 17, 22, 27, 32, 37, 3, 8, 13, 18},
		words(0, 0, math.Float64frombits(0xfff0dead00000001), math.Inf(1), math.Copysign(0, -1), 4.9e-324, 1e300, -1e-300, 0.5))
	f.Add([]byte{1, 1}, []byte{4}, words(0, 0, 0))
	f.Add([]byte{1, 1, 1, 1, 1}, []byte{1, 2, 3, 4, 5, 6},
		words(math.Float64frombits(0x7ff0000000000c01), math.Float64frombits(0xfff8000000000c02), 1, 2, 3, 4,
			math.Float64frombits(0x7ff8000000000c03), math.Float64frombits(0xfff0000000000c04), -1))
	f.Fuzz(func(t *testing.T, ranks, rows, raw []byte) {
		if len(ranks) > 12 || len(rows) > d {
			return
		}
		rng := rand.New(rand.NewSource(int64(len(raw))))
		subs := make([]*Subspace, len(ranks))
		for k, r := range ranks {
			subs[k] = randSubspace(rng, d, int(r%4))
		}
		group := make([]int, len(rows))
		for i, r := range rows {
			group[i] = int(r) % d
		}
		p, err := Pack(group, subs...)
		if err != nil {
			t.Fatal(err)
		}
		word := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:])) }
		n := len(raw) / 8
		x := make([]float64, len(group))
		for i := range x {
			if i < n {
				x[i] = word(i)
			}
		}
		if n <= len(x) {
			checkPacked(t, p, x, nil)
			return
		}
		// The words after x, cycled, fill the coefficients and the
		// factors of the passes on their own.
		next := len(x)
		fill := func(v []float64) []float64 {
			for i := range v {
				v[i] = word(next)
				if next++; next == n {
					next = len(x)
				}
			}
			return v
		}
		checkPacked(t, p, x, fill(make([]float64, p.stride)))
		k := 1 + len(ranks)%9
		checkCoefficients(t, roundQuad(k), fill(make([]float64, roundQuad(k)*len(x))), x)
		checkResidualRows(t, x, fill(make([]float64, roundQuad(len(x))*k)), fill(make([]float64, k)))
	})
}

// TestPackedValidation: Pack refuses a group row outside a member's
// dimension, and EnergiesTo refuses vectors that do not fit.
func TestPackedValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	subs := []*Subspace{randSubspace(rng, 6, 1), randSubspace(rng, 6, 2)}
	if _, err := Pack([]int{0, 6}, subs...); err == nil {
		t.Error("Pack accepted a group row past the dimension")
	}
	p, err := Pack([]int{0, 2, 4}, subs...)
	if err != nil {
		t.Fatal(err)
	}
	dst, scratch := make([]float64, 2), make([]float64, p.ScratchLen())
	for _, tc := range []struct {
		name            string
		dst, scratch, x []float64
	}{
		{"short vector", dst, scratch, make([]float64, 2)},
		{"short dst", dst[:1], scratch, make([]float64, 3)},
		{"short scratch", dst, scratch[:p.ScratchLen()-1], make([]float64, 3)},
	} {
		if err := p.EnergiesTo(tc.dst, tc.scratch, tc.x, 0); err == nil {
			t.Errorf("%s: EnergiesTo accepted it", tc.name)
		}
	}
}

// packedFixture is ones rank-one members of dimension d, plus the zero
// subspace when zero is set, restricted to rows of the d rows, and a
// vector to measure.
func packedFixture(d, rows, ones int, zero bool) (group []int, subs []*Subspace, x []float64) {
	rng := rand.New(rand.NewSource(7))
	subs = make([]*Subspace, ones)
	for k := range subs {
		subs[k] = randSubspace(rng, d, 1)
	}
	if zero {
		subs = append(subs, Zero(d))
	}
	group = rng.Perm(d)[:rows]
	x = make([]float64, len(group))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return group, subs, x
}

// TestPackedEnergiesAllocs pins EnergiesTo at zero allocations, backing
// its //gridlint:zeroalloc annotation.
func TestPackedEnergiesAllocs(t *testing.T) {
	group, subs, x := packedFixture(40, 28, 32, false)
	p, err := Pack(group, subs...)
	if err != nil {
		t.Fatal(err)
	}
	dst, scratch := make([]float64, p.Len()), make([]float64, p.ScratchLen())
	allocs := testing.AllocsPerRun(100, func() {
		if err := p.EnergiesTo(dst, scratch, x, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EnergiesTo allocates %.1f times per call, want 0", allocs)
	}
}

// BenchmarkPackedEnergies times the packed kernel, its rank-one
// residual pass alone as EnergiesTo takes it (the AVX kernel where the
// CPU has AVX) and in Go, and one ResidualTo and mat.Norm2 per member,
// on two fixtures: 32 rank-one members on 28 of 40 rows, and one sized
// like an ieee118 cluster plan, 52 rank-one members and the zero
// subspace on 28 of 118 rows.
func BenchmarkPackedEnergies(b *testing.B) {
	for _, fx := range []struct {
		name          string
		d, rows, ones int
		zero          bool
	}{
		{"lines32", 40, 28, 32, false},
		{"ieee118", 118, 28, 52, true},
	} {
		group, subs, x := packedFixture(fx.d, fx.rows, fx.ones, fx.zero)
		p, err := Pack(group, subs...)
		if err != nil {
			b.Fatal(err)
		}
		// The passes read the coefficients EnergiesTo leaves in scratch.
		dst, scratch := energiesOf(b, p, x)
		b.Run(fx.name+"/packed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := p.EnergiesTo(dst, scratch, x, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, pass := range []struct {
			name string
			run  func(scale, ssq, alpha, x, basis []float64, stride int)
		}{
			{"rank-one", rankOne},
			{"rank-one-go", rankOneGo},
		} {
			b.Run(fx.name+"/"+pass.name, func(b *testing.B) {
				ones := roundQuad(p.ones)
				alpha, scale, ssq := scratch[:ones], make([]float64, ones), make([]float64, ones)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for k := range scale {
						scale[k], ssq[k] = 0, 1
					}
					pass.run(scale, ssq, alpha, x, p.basis, p.stride)
				}
			})
		}
		b.Run(fx.name+"/restricted", func(b *testing.B) {
			rs := make([]*Restricted, len(subs))
			for k, s := range subs {
				if rs[k], err = s.Restrict(group); err != nil {
					b.Fatal(err)
				}
			}
			res := make([]float64, len(x))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range rs {
					if err := r.ResidualTo(res, x); err != nil {
						b.Fatal(err)
					}
					mat.Norm2(res)
				}
			}
		})
	}
}
