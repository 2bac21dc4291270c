//go:build gate

package mat

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// TestGateLanes is the ratio gate of the lane kernels (make gate): in
// one process it times gatePairs interleaved pairs, the lane path then
// the one-problem path, and fails when the median per-pair ratio of
// their times passes the bound. A ratio of two paths timed side by
// side holds across machines where nanoseconds do not. Each bound is
// about 1.5× the ratio measured when the kernels landed (CHANGES.md);
// a bound is never raised.
func TestGateLanes(t *testing.T) {
	const gatePairs = 31
	rng := rand.New(rand.NewSource(1))
	var quad [4]*Dense
	for l := range quad {
		quad[l] = randDense(rng, 118, 40)
	}
	const n, steps = 117, 40 // B′ of a 118-bus grid, one training's steps
	f, err := FactorLU(randDense(rng, n, n))
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, steps*n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	dst := make([]float64, len(rhs))

	for _, g := range []struct {
		name     string // the lane path against the one-problem path
		bound    float64
		reps     int // runs per timing, so one timing spans a millisecond or more
		lanes    func()
		oneByOne func()
	}{
		{
			name: "LeadingQuad / four FactorSVD calls, 118×40", bound: 0.42, reps: 1,
			lanes: func() { LeadingQuad(quad, 1) },
			oneByOne: func() {
				for _, x := range quad {
					FactorSVD(x).Leading(1)
				}
			},
		},
		{
			name: "LU.SolveMany / 40 LU.Solve calls, order 117", bound: 0.45, reps: 8,
			lanes: func() {
				if err := f.SolveMany(dst, rhs); err != nil {
					t.Fatal(err)
				}
			},
			oneByOne: func() {
				for j := 0; j < steps; j++ {
					if _, err := f.Solve(rhs[j*n : (j+1)*n]); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
	} {
		g.lanes()
		g.oneByOne()
		ratios := make([]float64, gatePairs)
		as, bs := make([]time.Duration, gatePairs), make([]time.Duration, gatePairs)
		for i := range ratios {
			as[i] = timeReps(g.lanes, g.reps)
			bs[i] = timeReps(g.oneByOne, g.reps)
			ratios[i] = as[i].Seconds() / bs[i].Seconds()
		}
		sort.Float64s(ratios)
		slices.Sort(as)
		slices.Sort(bs)
		med := ratios[gatePairs/2]
		t.Logf("%s: median ratio %.3f (quartiles %.3f–%.3f over %d pairs; median times %v and %v for %d runs), bound %.2f",
			g.name, med, ratios[gatePairs/4], ratios[3*gatePairs/4], gatePairs, as[gatePairs/2], bs[gatePairs/2], g.reps, g.bound)
		if med > g.bound {
			t.Errorf("%s: median ratio %.3f passes its bound %.2f", g.name, med, g.bound)
		}
	}
}

// timeReps returns the wall time of reps runs of fn.
func timeReps(fn func(), reps int) time.Duration {
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return time.Since(start)
}
