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
// member restricted on its own and measured by ResidualTo.
func restrictedEnergies(t testing.TB, group []int, subs []*Subspace, x []float64) []float64 {
	t.Helper()
	out := make([]float64, len(subs))
	res := make([]float64, len(x))
	for k, s := range subs {
		r, err := s.Restrict(group)
		if err != nil {
			t.Fatal(err)
		}
		if out[k], err = r.ResidualTo(res, x); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestPackedMatchesResidualTo: every member's packed energy keeps the
// bits of Restrict(group) + ResidualTo, for members of ranks 0, 1, 2, 3
// and one past stackRank in random order, random groups, and vectors
// mixing exact zeros, ordinary values and entries near 1e±300.
func TestPackedMatchesResidualTo(t *testing.T) {
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
		got := make([]float64, p.Len())
		if err := p.EnergiesTo(got, make([]float64, p.ScratchLen()), x); err != nil {
			t.Fatal(err)
		}
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

// hostileValue draws an entry for the rank-one residual pass: NaN of
// either sign with a random payload, quiet or signalling, ±Inf, ±0, a
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

// onesPassState runs pass over p's rank-one slots from a fresh norm
// state and returns their scales followed by their sums of squares.
func onesPassState(pass func(scale, ssq, alpha, x, basis []float64, stride int), p *Packed, alpha, x []float64) []float64 {
	state := make([]float64, 2*p.ones)
	scale, ssq := state[:p.ones], state[p.ones:]
	for k := range ssq {
		ssq[k] = 1
	}
	pass(scale, ssq, alpha[:p.ones], x, p.basis, p.total)
	return state
}

// checkOnesPass holds the rank-one pass EnergiesTo takes (the SSE2
// kernel on amd64) to onesPassGeneric bit for bit, in every rank-one
// slot's scale and sum of squares: inside EnergiesTo, on the
// coefficients it forms from x, and on its own over alpha when alpha is
// not nil.
func checkOnesPass(t testing.TB, p *Packed, x, alpha []float64) {
	t.Helper()
	scratch := make([]float64, p.ScratchLen())
	if err := p.EnergiesTo(make([]float64, p.Len()), scratch, x); err != nil {
		t.Fatal(err)
	}
	total, n := p.total, len(p.slots)
	check := func(who string, alpha, got []float64) {
		t.Helper()
		want := onesPassState(onesPassGeneric, p, alpha, x)
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("%s: rank-one slot %d of %d, %d rows, x %v, alpha %v: scales and sums of squares %v, portable pass %v",
					who, k%p.ones, p.ones, p.rows, x, alpha[:p.ones], got, want)
			}
		}
	}
	check("EnergiesTo", scratch[:total], slices.Concat(scratch[total:total+p.ones], scratch[total+n:total+n+p.ones]))
	if alpha != nil {
		check("onesPass", alpha, onesPassState(onesPass, p, alpha, x))
	}
}

// TestOnesPassMatchesGeneric: the rank-one residual pass keeps
// onesPassGeneric's bits in every lane, on vectors and coefficients that
// mix NaN of both signs and random payloads, ±Inf, ±0, subnormals,
// 1e±300 and leading exact zeros. A zero residual while the scale is
// still zero is the path the kernel's clamp reproduces; it needs an
// exact zero in x against a zero coefficient. Members number 0–9 of
// rank one with up to three of ranks 0, 2 and 3 mixed in, and groups
// have 0, 1, or 28 or more rows.
func TestOnesPassMatchesGeneric(t *testing.T) {
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
		alpha := make([]float64, p.total)
		for k := range alpha {
			if rng.Intn(3) > 0 {
				alpha[k] = hostileValue(rng)
			}
		}
		checkOnesPass(t, p, x, alpha)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// FuzzPackedEnergies holds the rank-one residual pass to onesPassGeneric
// bit for bit on inputs read from raw bytes: the members' ranks (0–3)
// and the group's rows from the first bytes, then the vector's entries
// as raw float64 bit patterns, NaN payloads included, and any words
// left over as coefficients.
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
		var alpha []float64
		if n > len(x) {
			alpha = make([]float64, p.total)
			for k := range alpha {
				alpha[k] = word(len(x) + k%(n-len(x)))
			}
		}
		checkOnesPass(t, p, x, alpha)
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
		if err := p.EnergiesTo(tc.dst, tc.scratch, tc.x); err == nil {
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
		if err := p.EnergiesTo(dst, scratch, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EnergiesTo allocates %.1f times per call, want 0", allocs)
	}
}

// BenchmarkPackedEnergies times the packed kernel, its rank-one residual
// pass alone in the form EnergiesTo takes (kernel) and in Go (portable),
// and one ResidualTo per member, on two fixtures: 32 rank-one members on
// 28 of 40 rows, and one sized like an ieee118 cluster plan, 52 rank-one
// members and the zero subspace on 28 of 118 rows.
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
		dst, scratch := make([]float64, p.Len()), make([]float64, p.ScratchLen())
		if err := p.EnergiesTo(dst, scratch, x); err != nil {
			b.Fatal(err)
		}
		b.Run(fx.name+"/packed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := p.EnergiesTo(dst, scratch, x); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, pass := range []struct {
			name string
			run  func(scale, ssq, alpha, x, basis []float64, stride int)
		}{
			{"kernel", onesPass},
			{"portable", onesPassGeneric},
		} {
			b.Run(fx.name+"/"+pass.name, func(b *testing.B) {
				alpha, scale, ssq := scratch[:p.ones], make([]float64, p.ones), make([]float64, p.ones)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for k := range scale {
						scale[k], ssq[k] = 0, 1
					}
					pass.run(scale, ssq, alpha, x, p.basis, p.total)
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
					if _, err := r.ResidualTo(res, x); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
