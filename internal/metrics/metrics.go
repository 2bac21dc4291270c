// Package metrics implements the evaluation metrics of Eq. (12):
// identification accuracy (IA) and false-alarm rate (FA), including the
// |F| = 0 conventions of §V-C2 for normal-operation samples.
package metrics

import (
	"fmt"

	"pmuoutage/internal/grid"
)

// Eval scores one detection: F is the true outage set, Fhat the
// detected set. Per Eq. (12),
//
//	IA = |F̂ ∩ F| / |F|,   FA = 1 − |F̂ ∩ F| / |F̂|,
//
// and per §V-C2, when |F| = 0: IA = 1 and FA = 0 iff |F̂| = 0, else
// IA = 0 and FA = 1.
func Eval(f, fhat []grid.Line) (ia, fa float64) {
	inter := intersect(f, fhat)
	switch {
	case len(f) == 0 && len(fhat) == 0:
		return 1, 0
	case len(f) == 0:
		return 0, 1
	case len(fhat) == 0:
		return 0, 0
	default:
		return float64(inter) / float64(len(f)), 1 - float64(inter)/float64(len(fhat))
	}
}

func intersect(a, b []grid.Line) int {
	in := map[grid.Line]bool{}
	for _, e := range a {
		in[e] = true
	}
	n := 0
	seen := map[grid.Line]bool{}
	for _, e := range b {
		if in[e] && !seen[e] {
			n++
			seen[e] = true
		}
	}
	return n
}

// Accumulator averages IA/FA over many detections.
type Accumulator struct {
	sumIA, sumFA float64
	n            int
}

// Add scores one detection into the running averages.
func (a *Accumulator) Add(f, fhat []grid.Line) {
	ia, fa := Eval(f, fhat)
	a.AddScores(ia, fa)
}

// AddScores accumulates precomputed scores (used by the reliability
// study, which weights patterns by probability before averaging).
func (a *Accumulator) AddScores(ia, fa float64) {
	a.sumIA += ia
	a.sumFA += fa
	a.n++
}

// Merge folds another accumulator's scores into a. Partial
// accumulators built per work item and merged in a fixed order give the
// same result on every worker count — the reduction seam EvaluateContext
// uses over the par pool.
func (a *Accumulator) Merge(b Accumulator) {
	a.sumIA += b.sumIA
	a.sumFA += b.sumFA
	a.n += b.n
}

// N returns the number of accumulated detections.
func (a *Accumulator) N() int { return a.n }

// IA returns the mean identification accuracy, or 0 with no samples.
func (a *Accumulator) IA() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sumIA / float64(a.n)
}

// FA returns the mean false-alarm rate, or 0 with no samples.
func (a *Accumulator) FA() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sumFA / float64(a.n)
}

// String summarises the accumulator for logs and harness output.
func (a *Accumulator) String() string {
	return fmt.Sprintf("IA=%.4f FA=%.4f (n=%d)", a.IA(), a.FA(), a.n)
}
