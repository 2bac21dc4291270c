package metrics

import (
	"math"
	"testing"
)

func TestNearZeroBoundary(t *testing.T) {
	eps := 1e-9
	cases := []struct {
		x    float64
		want bool
	}{
		{0, true},
		{eps, true},  // boundary is inclusive
		{-eps, true}, // symmetric
		{math.Nextafter(eps, 1), false},
		{-math.Nextafter(eps, 1), false},
		{1e-12, true},
		{1, false},
		{math.NaN(), false},
		{math.Inf(1), false},
	}
	for _, c := range cases {
		if got := NearZero(c.x, eps); got != c.want {
			t.Errorf("NearZero(%v, %v) = %v, want %v", c.x, eps, got, c.want)
		}
	}
}

func TestNearEqual(t *testing.T) {
	eps := 1e-9
	cases := []struct {
		a, b float64
		want bool
	}{
		{1, 1, true},
		{1, 1 + eps/2, true},
		{1, 1 + 3*eps, false},
		{0, eps, true}, // absolute regime near zero
		{0, 2 * eps, false},
		{1e12, 1e12 * (1 + eps/2), true}, // relative regime at scale
		{1e12, 1e12 + 1, true},
		{1e12, 1e12 * (1 + 1e-6), false},
		{math.Inf(1), math.Inf(1), true},
		{math.Inf(1), math.Inf(-1), false},
		{math.NaN(), math.NaN(), false},
		{math.NaN(), 1, false},
	}
	for _, c := range cases {
		if got := NearEqual(c.a, c.b, eps); got != c.want {
			t.Errorf("NearEqual(%v, %v, %v) = %v, want %v", c.a, c.b, eps, got, c.want)
		}
		if got := NearEqual(c.b, c.a, eps); got != c.want {
			t.Errorf("NearEqual(%v, %v, %v) = %v, want %v (asymmetric!)", c.b, c.a, eps, got, c.want)
		}
	}
}

func TestPositiveFloor(t *testing.T) {
	if got := PositiveFloor(0, 1e-18); got != 1e-18 {
		t.Errorf("PositiveFloor(0) = %v", got)
	}
	if got := PositiveFloor(1e-30, 1e-18); got != 1e-18 {
		t.Errorf("PositiveFloor(1e-30) = %v", got)
	}
	if got := PositiveFloor(2.5, 1e-18); got != 2.5 {
		t.Errorf("PositiveFloor(2.5) = %v", got)
	}
	if got := PositiveFloor(-1, 1e-18); got != 1e-18 {
		t.Errorf("PositiveFloor(-1) = %v; negative energies are numeric noise and must clamp", got)
	}
	if got := PositiveFloor(math.NaN(), 1e-18); !math.IsNaN(got) {
		t.Errorf("PositiveFloor(NaN) = %v, want NaN to propagate", got)
	}
}
