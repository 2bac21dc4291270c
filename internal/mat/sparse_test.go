package mat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randSparseTrips draws a random r-by-c pattern with about density*r*c
// entries, including some deliberate duplicates to exercise summing.
func randSparseTrips(rng *rand.Rand, r, c int, density float64) []Triplet {
	var trips []Triplet
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				trips = append(trips, Triplet{Row: i, Col: j, Val: rng.NormFloat64()})
				if rng.Float64() < 0.2 {
					trips = append(trips, Triplet{Row: i, Col: j, Val: rng.NormFloat64()})
				}
			}
		}
	}
	return trips
}

func TestNewSparseAssembly(t *testing.T) {
	// Unsorted input with duplicates: values sum, indices sort.
	s := NewSparse(3, 3, []Triplet{
		{2, 1, 4},
		{0, 2, 1},
		{0, 0, 2},
		{0, 2, 0.5},
		{2, 0, -1},
	})
	if s.NNZ() != 4 {
		t.Fatalf("nnz = %d, want 4", s.NNZ())
	}
	want := NewDenseData(3, 3, []float64{
		2, 0, 1.5,
		0, 0, 0,
		-1, 4, 0,
	})
	if !s.DenseInto(nil).Equalf(want, 0) {
		t.Fatalf("assembled %v, want %v", s.DenseInto(nil), want)
	}
	if got := s.At(0, 2); got != 1.5 {
		t.Fatalf("At(0,2) = %v, want 1.5", got)
	}
	if got := s.At(1, 1); got != 0 {
		t.Fatalf("At(1,1) = %v, want 0", got)
	}
	// Entries summing to exactly zero keep their structural slot.
	z := NewSparse(1, 1, []Triplet{{0, 0, 1}, {0, 0, -1}})
	if z.NNZ() != 1 {
		t.Fatalf("zero-sum entry dropped: nnz = %d", z.NNZ())
	}
}

// TestSparseRoundTripsAndOps assembles random triplets (duplicates
// included) and checks the CSR matrix against a dense accumulation of
// the same triplets in input order, through DenseInto and At: equality,
// since duplicates sum in input order.
func TestSparseRoundTripsAndOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(12)
		c := 1 + rng.Intn(12)
		trips := randSparseTrips(rng, r, c, 0.3)
		rng.Shuffle(len(trips), func(i, j int) { trips[i], trips[j] = trips[j], trips[i] })
		s := NewSparse(r, c, trips)
		want := NewDense(r, c)
		for _, tr := range trips {
			want.Add(tr.Row, tr.Col, tr.Val)
		}
		if !s.DenseInto(nil).Equalf(want, 0) {
			return false
		}
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if s.At(i, j) != want.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestDenseIntoReuses: DenseInto overwrites every entry of a matrix of
// the right shape in place, and expands into a new matrix when given
// nil or another shape.
func TestDenseIntoReuses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSparse(4, 5, randSparseTrips(rng, 4, 5, 0.3))
	d := randDense(rng, 4, 5)
	if got := s.DenseInto(d); got != d || !d.Equalf(s.DenseInto(nil), 0) {
		t.Fatal("DenseInto into a 4x5 matrix: not in place, or stale entries kept")
	}
	for _, d := range []*Dense{nil, NewDense(5, 4)} {
		if got := s.DenseInto(d); got == d || !got.Equalf(s.DenseInto(nil), 0) {
			t.Fatalf("DenseInto into %v: want a new 4x5 matrix", d)
		}
	}
}
