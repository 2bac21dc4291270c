package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDotKnown(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if Norm2(nil) != 0 {
		t.Fatal("Norm2(nil) != 0")
	}
	if Norm2([]float64{0, 0}) != 0 {
		t.Fatal("Norm2(zeros) != 0")
	}
}

func TestNorm2Overflow(t *testing.T) {
	// Naive sum of squares would overflow here.
	big := math.MaxFloat64 / 2
	got := Norm2([]float64{big, big})
	want := big * math.Sqrt2
	if math.IsInf(got, 0) || math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("Norm2 overflow handling: got %v, want %v", got, want)
	}
}

func TestVecArithmetic(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 5}
	if d := Sub(b, a); d[0] != 2 || d[1] != 3 {
		t.Fatalf("Sub = %v", d)
	}
}

func TestCauchySchwarzProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		for _, x := range append(append([]float64{}, a...), b...) {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip pathological inputs
			}
		}
		lhs := math.Abs(Dot(a, b))
		rhs := Norm2(a) * Norm2(b)
		return lhs <= rhs*(1+1e-12)+1e-300
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		for _, x := range append(append([]float64{}, a...), b...) {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true
			}
		}
		sum := make([]float64, n)
		for i := range sum {
			sum[i] = a[i] + b[i]
		}
		return Norm2(sum) <= Norm2(a)+Norm2(b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
