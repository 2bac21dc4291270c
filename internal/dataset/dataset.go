// Package dataset synthesises and organises the PMU measurement data the
// detector learns from, mirroring §V-A of the paper: Ornstein–Uhlenbeck
// load variations over a 24-hour window, AC power flows solved per time
// step (our MATPOWER substitute), Gaussian measurement noise, and one
// data set per valid single-line-outage scenario plus the normal case.
package dataset

import (
	"fmt"
	"math/rand"

	"pmuoutage/internal/grid"
	"pmuoutage/internal/mat"
	"pmuoutage/internal/pmunet"
)

// Channel selects which scalar series feeds vector-space methods. The
// paper's X holds "either voltage magnitude or phase measurements"; the
// stacked channel concatenates both.
type Channel int

const (
	// Angle uses voltage angles in radians (N values per sample). It is
	// the zero value and therefore the default everywhere: topology
	// changes redistribute line flows, and flows live in the angles, so
	// the angle channel carries the strongest outage signature (and is
	// the only informative one for DC-generated data).
	Angle Channel = iota
	// Magnitude uses per-unit voltage magnitudes (N values per sample).
	Magnitude
	// Stacked concatenates magnitudes then angles (2N values).
	Stacked
)

// String names the channel.
func (c Channel) String() string {
	switch c {
	case Magnitude:
		return "magnitude"
	case Angle:
		return "angle"
	case Stacked:
		return "stacked"
	default:
		return fmt.Sprintf("Channel(%d)", int(c))
	}
}

// Dim returns the feature dimension of the channel for an n-bus grid.
func (c Channel) Dim(n int) int {
	if c == Stacked {
		return 2 * n
	}
	return n
}

// Sample is one time instant of PMU data: the column X_{:,t} of the
// paper's data matrix, with an optional missing-data mask.
type Sample struct {
	Vm []float64 //gridlint:unit pu
	Va []float64 //gridlint:unit rad
	// Mask marks buses whose measurements are missing; nil = complete.
	Mask pmunet.Mask
}

// N returns the number of buses in the sample.
func (s *Sample) N() int { return len(s.Vm) }

// Complete reports whether the sample has no missing measurements.
func (s *Sample) Complete() bool { return s.Mask == nil || !s.Mask.AnyMissing() }

// Vector returns the sample as a flat feature vector for the channel.
// Missing entries are still present numerically; consumers that care
// must consult the mask (the detector's whole point is to pick rows
// that are available rather than impute).
func (s *Sample) Vector(ch Channel) []float64 {
	switch ch {
	case Magnitude:
		out := make([]float64, len(s.Vm))
		copy(out, s.Vm)
		return out
	case Angle:
		out := make([]float64, len(s.Va))
		copy(out, s.Va)
		return out
	case Stacked:
		out := make([]float64, 0, len(s.Vm)+len(s.Va))
		out = append(out, s.Vm...)
		return append(out, s.Va...)
	default:
		panic(fmt.Sprintf("dataset: unknown channel %d", ch))
	}
}

// MaskFor expands the bus-level mask to the channel's feature indices.
func (s *Sample) MaskFor(ch Channel) pmunet.Mask {
	n := s.N()
	out := make(pmunet.Mask, ch.Dim(n))
	if s.Mask == nil {
		return out
	}
	for i, m := range s.Mask {
		if !m {
			continue
		}
		switch ch {
		case Magnitude, Angle:
			out[i] = true
		case Stacked:
			out[i] = true
			out[i+n] = true
		}
	}
	return out
}

// Phasor2D returns bus i's measurement as the 2-D point (Vm, Va) used by
// the normal-operation ellipses of Eq. (4).
func (s *Sample) Phasor2D(i int) (float64, float64) { return s.Vm[i], s.Va[i] }

// WithMask returns a shallow copy of the sample carrying the given mask.
func (s *Sample) WithMask(m pmunet.Mask) Sample {
	return Sample{Vm: s.Vm, Va: s.Va, Mask: m}
}

// Scenario identifies a failure case F: the set of outaged lines. An
// empty scenario is normal operation.
type Scenario []grid.Line

// Normal reports whether the scenario has no outages.
func (sc Scenario) Normal() bool { return len(sc) == 0 }

// Key returns a canonical string for map keys and logs.
func (sc Scenario) Key() string {
	if sc.Normal() {
		return "normal"
	}
	s := "lines"
	for _, e := range sc {
		s += fmt.Sprintf("-%d", e)
	}
	return s
}

// Set holds the samples generated for one scenario — the paper's X^0 or
// X^{\e_{i,j}} matrices.
type Set struct {
	Case    Scenario
	Samples []Sample
}

// T returns the number of samples (time window length).
func (s *Set) T() int { return len(s.Samples) }

// Matrix returns the d-by-T data matrix X whose columns are the samples'
// channel vectors (rows = features, columns = time, as in the paper).
func (s *Set) Matrix(ch Channel) *mat.Dense {
	if s.T() == 0 {
		return mat.NewDense(0, 0)
	}
	d := ch.Dim(s.Samples[0].N())
	x := mat.NewDense(d, s.T())
	for t := range s.Samples {
		x.SetCol(t, s.Samples[t].Vector(ch))
	}
	return x
}

// Split partitions the set into train and test subsets with the given
// training fraction, shuffled deterministically by seed (the paper
// follows the split procedure of [14]).
func (s *Set) Split(trainFrac float64, seed int64) (train, test *Set) {
	if trainFrac < 0 {
		trainFrac = 0
	}
	if trainFrac > 1 {
		trainFrac = 1
	}
	idx := make([]int, s.T())
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	cut := int(trainFrac * float64(len(idx)))
	train = &Set{Case: s.Case}
	test = &Set{Case: s.Case}
	for k, i := range idx {
		if k < cut {
			train.Samples = append(train.Samples, s.Samples[i])
		} else {
			test.Samples = append(test.Samples, s.Samples[i])
		}
	}
	return train, test
}

// Data bundles everything generated for one grid: the normal-operation
// set and one set per valid single-line outage.
type Data struct {
	G          *grid.Grid
	Normal     *Set
	Outages    map[grid.Line]*Set
	ValidLines []grid.Line // lines whose outage converged without islanding
}

// OutageSet returns the set for line e or nil.
func (d *Data) OutageSet(e grid.Line) *Set { return d.Outages[e] }
