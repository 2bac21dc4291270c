package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailPercentiles are the candidate percentiles for a timing's tail, in
// increasing order. The reported tail is the highest one that still has
// at least minBeyond samples above it.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// nearestRank returns the p-th percentile (0 < p <= 100) of sorted by
// the nearest-rank method: the smallest value with at least p% of the
// samples at or below it. It returns 0 for an empty slice.
func nearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[rankIndex(n, p)]
}

// rankIndex is the 0-based nearest-rank index of the p-th percentile of
// n samples.
func rankIndex(n int, p float64) int {
	// The epsilon keeps p*n/100 from landing just above an integer through
	// float rounding (99.9 * 1000 / 100 is not exactly 999).
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k - 1
}

// tailPercentile picks the highest candidate percentile that has at
// least minBeyond samples beyond it among n samples. With too few
// samples for any candidate it falls back to the median.
func tailPercentile(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if n-(rankIndex(n, p)+1) >= minBeyond {
			best = p
		}
	}
	return best
}

// timings is a set of durations, reported as median and tail.
type timings struct {
	ms []float64
}

func (t *timings) add(d time.Duration) { t.ms = append(t.ms, float64(d)/float64(time.Millisecond)) }

// summary is a timing set reduced to the numbers the report prints.
type summary struct {
	N     int
	P50   float64
	P90   float64
	P99   float64
	TailP float64 // which percentile Tail is
	Tail  float64
}

func (t *timings) summary() summary {
	s := append([]float64(nil), t.ms...)
	sort.Float64s(s)
	out := summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.P50 = nearestRank(s, 50)
	out.P90 = nearestRank(s, 90)
	out.P99 = nearestRank(s, 99)
	out.TailP = tailPercentile(len(s))
	out.Tail = nearestRank(s, out.TailP)
	return out
}

// String renders the summary as the report prints timings.
func (s summary) String() string {
	return fmt.Sprintf("p50 %.4f ms, p90 %.4f ms, p%g %.4f ms (n=%d)", s.P50, s.P90, s.TailP, s.Tail, s.N)
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
