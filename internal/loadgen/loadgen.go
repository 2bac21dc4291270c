// Package loadgen generates the stochastic load trajectories and
// measurement noise used to synthesise PMU data. Following the paper
// (§V-A), per-bus load variations follow an Ornstein–Uhlenbeck process
// around the test-case demand over a 24-hour window, and Gaussian noise
// is added to the solved voltage phasors so they resemble real PMU
// measurements.
package loadgen

import (
	"fmt"
	"math"
	"math/rand"
)

// OUParams configures the Ornstein–Uhlenbeck load process
//
//	dX_t = theta (mu - X_t) dt + sigma dW_t
//
// discretised exactly over a fixed step.
type OUParams struct {
	Theta float64 // mean-reversion rate per hour
	Sigma float64 // volatility (fraction of mean load per sqrt hour)
	DtH   float64 // time step in hours
	// Corr is the spatial correlation of load variation across buses,
	// in [0, 1): demand moves together system-wide (weather, time of
	// day) with only a small idiosyncratic residual per bus, following
	// the multi-area consumption model of Perninge et al. [16]. The
	// correlated structure is what makes the normal-operation data
	// low-rank — the property the detector's S⁰ subspace exploits.
	Corr float64
}

// DefaultOU returns the parameters used by the data generator: gentle
// mean reversion with a few percent of load volatility, sampled so a
// 24-hour day yields the requested number of steps.
func DefaultOU(steps int) OUParams {
	if steps < 1 {
		steps = 1
	}
	return OUParams{Theta: 0.5, Sigma: 0.03, DtH: 24 / float64(steps), Corr: 0.85}
}

// Process is a deterministic (seeded) multi-bus OU load process: each
// bus load is a multiplier around 1.0 applied to its base demand, built
// from a shared system-wide OU factor plus a per-bus idiosyncratic OU
// residual (spatial correlation Corr).
type Process struct {
	p      OUParams
	state  []float64 // per-bus idiosyncratic OU states (around 0)
	common float64   // shared OU state (around 0)
	rng    *rand.Rand
	// Exact discretisation coefficients.
	decay, diff float64
	// Mixing weights: multiplier_i = 1 + wc*common + wi*state_i keeps
	// the stationary variance at sigma²/(2 theta) for any Corr.
	wc, wi float64
}

// NewProcess creates an OU process for n buses with the given seed.
func NewProcess(n int, p OUParams, seed int64) (*Process, error) {
	if n <= 0 {
		return nil, fmt.Errorf("loadgen: need at least one bus, got %d", n)
	}
	if p.Theta <= 0 || p.Sigma < 0 || p.DtH <= 0 {
		return nil, fmt.Errorf("loadgen: invalid OU params %+v", p)
	}
	if p.Corr < 0 || p.Corr >= 1 {
		return nil, fmt.Errorf("loadgen: correlation %v outside [0,1)", p.Corr)
	}
	decay := math.Exp(-p.Theta * p.DtH)
	// Stationary-consistent diffusion for the exact discretisation.
	diff := p.Sigma * math.Sqrt((1-decay*decay)/(2*p.Theta))
	return &Process{
		p: p, state: make([]float64, n), rng: rand.New(rand.NewSource(seed)),
		decay: decay, diff: diff,
		wc: math.Sqrt(p.Corr), wi: math.Sqrt(1 - p.Corr),
	}, nil
}

// Step advances the process one time step and returns the per-bus load
// multipliers. The returned slice is a copy.
func (pr *Process) Step() []float64 {
	out := make([]float64, len(pr.state))
	pr.StepInto(out)
	return out
}

// StepInto is Step writing the multipliers into out, which must have
// one element per bus, so a caller can reuse one slice for every step.
func (pr *Process) StepInto(out []float64) {
	if len(out) != len(pr.state) {
		panic(fmt.Sprintf("loadgen: StepInto of %d buses into %d multipliers", len(pr.state), len(out)))
	}
	pr.common = pr.common*pr.decay + pr.diff*pr.rng.NormFloat64()
	for i, x := range pr.state {
		pr.state[i] = x*pr.decay + pr.diff*pr.rng.NormFloat64()
		m := 1 + pr.wc*pr.common + pr.wi*pr.state[i]
		// Loads cannot go negative; clamp far tail events.
		if m < 0.05 {
			m = 0.05
		}
		out[i] = m
	}
}

// NoiseModel adds Gaussian measurement noise to voltage phasors. Sigma
// values are absolute: per-unit for magnitude, radians for angle. IEEE
// C37.118 total-vector-error budgets put realistic PMU noise well under
// 1% — the defaults sit comfortably inside that.
type NoiseModel struct {
	SigmaVm float64 //gridlint:unit pu
	SigmaVa float64 //gridlint:unit rad
	rng     *rand.Rand
}

// NewNoiseModel returns a seeded noise model. Non-positive sigmas are
// replaced by the defaults (1e-3 p.u., 1e-3 rad).
//
//gridlint:unit sigmaVm pu
//gridlint:unit sigmaVa rad
func NewNoiseModel(sigmaVm, sigmaVa float64, seed int64) *NoiseModel {
	if sigmaVm <= 0 {
		sigmaVm = 1e-3
	}
	if sigmaVa <= 0 {
		sigmaVa = 1e-3
	}
	return &NoiseModel{SigmaVm: sigmaVm, SigmaVa: sigmaVa, rng: rand.New(rand.NewSource(seed))}
}

// Perturb returns noisy copies of the magnitude and angle vectors.
//
//gridlint:unit vm pu
//gridlint:unit va rad
func (nm *NoiseModel) Perturb(vm, va []float64) ([]float64, []float64) {
	ovm := make([]float64, len(vm))
	ova := make([]float64, len(va))
	for i := range vm {
		ovm[i] = vm[i] + nm.SigmaVm*nm.rng.NormFloat64()
	}
	for i := range va {
		ova[i] = va[i] + nm.SigmaVa*nm.rng.NormFloat64()
	}
	return ovm, ova
}
