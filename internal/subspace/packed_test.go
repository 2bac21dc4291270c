package subspace

import (
	"math"
	"math/rand"
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

// packedFixture is 32 rank-one members restricted to 28 of 40 rows, a
// detection group's worth of line subspaces, and a vector to measure.
func packedFixture() (group []int, subs []*Subspace, x []float64) {
	rng := rand.New(rand.NewSource(7))
	subs = make([]*Subspace, 32)
	for k := range subs {
		subs[k] = randSubspace(rng, 40, 1)
	}
	group = rng.Perm(40)[:28]
	x = make([]float64, len(group))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return group, subs, x
}

// TestPackedEnergiesAllocs pins EnergiesTo at zero allocations, backing
// its //gridlint:zeroalloc annotation.
func TestPackedEnergiesAllocs(t *testing.T) {
	group, subs, x := packedFixture()
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

// BenchmarkPackedEnergies times the packed kernel against one
// ResidualTo per member on packedFixture.
func BenchmarkPackedEnergies(b *testing.B) {
	group, subs, x := packedFixture()
	b.Run("packed", func(b *testing.B) {
		p, err := Pack(group, subs...)
		if err != nil {
			b.Fatal(err)
		}
		dst, scratch := make([]float64, p.Len()), make([]float64, p.ScratchLen())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.EnergiesTo(dst, scratch, x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("restricted", func(b *testing.B) {
		rs := make([]*Restricted, len(subs))
		for k, s := range subs {
			var err error
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
