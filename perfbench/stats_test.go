package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
	}{
		{1, 50, 1},
		{1, 99, 1},
		{2, 50, 1},
		{3, 50, 2},
		{4, 50, 2},
		{10, 90, 9},
		{10, 91, 10},
		{100, 99, 99},
		{1000, 99, 990},
		{1000, 99.9, 999},
		{1000, 100, 1000},
	} {
		if got := nearestRank(seq(tc.n), tc.p); got != tc.want {
			t.Errorf("nearestRank(1..%d, %g) = %g, want %g", tc.n, tc.p, got, tc.want)
		}
	}
	if got := nearestRank(nil, 50); got != 0 {
		t.Errorf("nearestRank(nil) = %g, want 0", got)
	}
}

// The tail is the highest candidate percentile with at least ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50},    // too few for any candidate: median
		{19, 50},   // p50 leaves 9 beyond
		{20, 50},   // p50 leaves 10 beyond
		{99, 50},   // p90 leaves 9 beyond
		{100, 90},  // p90 leaves 10 beyond
		{999, 90},  // p99 leaves 9 beyond
		{1000, 99}, // p99 leaves exactly 10 beyond
		{9999, 99},
		{10000, 99.9},
		{1000000, 99.9}, // no candidate above p99.9
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestSummary(t *testing.T) {
	var tm timings
	for i := 1000; i >= 1; i-- { // order must not matter
		tm.add(time.Duration(i) * time.Millisecond)
	}
	s := tm.summary()
	if s.N != 1000 || s.P50 != 500 || s.P90 != 900 || s.P99 != 990 || s.TailP != 99 || s.Tail != 990 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %g", got)
	}
}
