package loadgen

import (
	"math"
	"testing"
)

func TestNewProcessValidation(t *testing.T) {
	if _, err := NewProcess(0, DefaultOU(10), 1); err == nil {
		t.Fatal("expected error for zero buses")
	}
	if _, err := NewProcess(3, OUParams{Theta: -1, Sigma: 0.1, DtH: 1}, 1); err == nil {
		t.Fatal("expected error for negative theta")
	}
	if _, err := NewProcess(3, OUParams{Theta: 1, Sigma: 0.1, DtH: 0}, 1); err == nil {
		t.Fatal("expected error for zero dt")
	}
}

func TestProcessDeterministic(t *testing.T) {
	a, _ := NewProcess(4, DefaultOU(24), 42)
	b, _ := NewProcess(4, DefaultOU(24), 42)
	for k := 0; k < 10; k++ {
		ma, mb := a.Step(), b.Step()
		for i := range ma {
			if ma[i] != mb[i] {
				t.Fatal("same seed must give identical trajectories")
			}
		}
	}
}

// TestStepIntoMatchesStep: StepInto draws what Step draws, into the
// caller's slice, and refuses a slice of another length.
func TestStepIntoMatchesStep(t *testing.T) {
	a, _ := NewProcess(5, DefaultOU(24), 7)
	b, _ := NewProcess(5, DefaultOU(24), 7)
	out := make([]float64, 5)
	for k := 0; k < 10; k++ {
		want := a.Step()
		b.StepInto(out)
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("step %d bus %d: StepInto %v, Step %v", k, i, out[i], want[i])
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("StepInto of 5 buses into 4 multipliers did not panic")
		}
	}()
	b.StepInto(out[:4])
}

func TestProcessMeanReversion(t *testing.T) {
	// Long-run mean of the multipliers must be close to 1 and the
	// stationary standard deviation close to sigma/sqrt(2 theta).
	p := OUParams{Theta: 2, Sigma: 0.05, DtH: 0.1}
	pr, err := NewProcess(1, p, 7)
	if err != nil {
		t.Fatal(err)
	}
	var sum, sumsq float64
	n := 200000
	for k := 0; k < n; k++ {
		x := pr.Step()[0]
		sum += x
		sumsq += x * x
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumsq/float64(n) - mean*mean)
	if math.Abs(mean-1) > 0.01 {
		t.Errorf("stationary mean = %.4f, want ~1", mean)
	}
	wantStd := p.Sigma / math.Sqrt(2*p.Theta)
	if math.Abs(std-wantStd) > 0.2*wantStd {
		t.Errorf("stationary std = %.4f, want ~%.4f", std, wantStd)
	}
}

func TestProcessStaysPositive(t *testing.T) {
	// Even with violent volatility the multipliers must stay positive.
	pr, err := NewProcess(2, OUParams{Theta: 0.1, Sigma: 3, DtH: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5000; k++ {
		for _, x := range pr.Step() {
			if x <= 0 {
				t.Fatalf("multiplier %v <= 0 at step %d", x, k)
			}
		}
	}
}

func TestStepReturnsCopy(t *testing.T) {
	pr, _ := NewProcess(2, DefaultOU(24), 1)
	a := pr.Step()
	a[0] = 999
	b := pr.Step()
	if b[0] > 100 {
		t.Fatal("Step must return a defensive copy")
	}
}

func TestDefaultOUSane(t *testing.T) {
	p := DefaultOU(288)
	if p.DtH <= 0 || math.Abs(p.DtH*288-24) > 1e-12 {
		t.Fatalf("DefaultOU dt = %v", p.DtH)
	}
	if DefaultOU(0).DtH != 24 {
		t.Fatal("DefaultOU must clamp zero steps")
	}
}

func TestNoiseModelPerturb(t *testing.T) {
	nm := NewNoiseModel(1e-3, 2e-3, 5)
	vm := []float64{1, 1.02, 0.98}
	va := []float64{0, -0.1, 0.2}
	ovm, ova := nm.Perturb(vm, va)
	if len(ovm) != 3 || len(ova) != 3 {
		t.Fatal("shape mismatch")
	}
	// Inputs untouched.
	if vm[0] != 1 || va[0] != 0 {
		t.Fatal("Perturb mutated inputs")
	}
	// Empirical noise std must match the configured sigmas.
	n := 50000
	var sm, sa float64
	for k := 0; k < n; k++ {
		pm, pa := nm.Perturb(vm, va)
		d := pm[0] - vm[0]
		sm += d * d
		d = pa[0] - va[0]
		sa += d * d
	}
	stdM := math.Sqrt(sm / float64(n))
	stdA := math.Sqrt(sa / float64(n))
	if math.Abs(stdM-1e-3) > 2e-4 {
		t.Errorf("magnitude noise std = %v, want 1e-3", stdM)
	}
	if math.Abs(stdA-2e-3) > 4e-4 {
		t.Errorf("angle noise std = %v, want 2e-3", stdA)
	}
}

func TestNoiseModelDefaults(t *testing.T) {
	nm := NewNoiseModel(0, -1, 1)
	if nm.SigmaVm != 1e-3 || nm.SigmaVa != 1e-3 {
		t.Fatalf("defaults = %v/%v", nm.SigmaVm, nm.SigmaVa)
	}
}
