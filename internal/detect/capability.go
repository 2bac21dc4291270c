// Package detect implements the paper's robust outage detector: per-node
// detection-capability learning from normal-operation ellipses
// (Eqs. 4–7), cluster-based detection groups with in- and out-of-cluster
// alternatives (Eq. 8), group selection under missing data (Eq. 10), and
// the proximity-rule decoder that turns scaled subspace proximities
// (Eq. 11) into a candidate outage set F̂.
package detect

import (
	"context"
	"fmt"

	"pmuoutage/internal/dataset"
	"pmuoutage/internal/ellipse"
	"pmuoutage/internal/par"
)

// UnionProbIE computes the probability of the union of independent
// events with probabilities ps via the inclusion–exclusion expansion of
// Eq. (7). Exponential in len(ps); use UnionProb beyond ~20 events.
func UnionProbIE(ps []float64) float64 {
	n := len(ps)
	if n == 0 {
		return 0
	}
	if n > 24 {
		return UnionProb(ps)
	}
	var total float64
	for mask := 1; mask < 1<<uint(n); mask++ {
		prod := 1.0
		bits := 0
		for j := 0; j < n; j++ {
			if mask&(1<<uint(j)) != 0 {
				prod *= ps[j]
				bits++
			}
		}
		if bits%2 == 1 {
			total += prod
		} else {
			total -= prod
		}
	}
	return clamp01(total)
}

// UnionProb computes the same union probability in closed form,
// 1 − Π(1−p). For independent events it equals UnionProbIE exactly and
// costs O(n).
func UnionProb(ps []float64) float64 {
	q := 1.0
	for _, p := range ps {
		q *= 1 - clamp01(p)
	}
	return clamp01(1 - q)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Capabilities holds the learned per-node detection machinery: the
// normal-operation ellipse Ω_k of every node, the per-case rows of
// Eq. (5), and the capability matrix P where P[i][k] = p_{i,k} of
// Eq. (6) — how reliably node k detects an outage of any line of node i.
type Capabilities struct {
	Ellipses []*ellipse.Ellipse
	// Case holds the per-case rows of Eq. (5), one per valid line in
	// training order: Case[j][k] is how reliably node k flags an outage
	// of valid line j. A model stores these rather than P, so a patch
	// can rebuild P from refreshed rows without the outage data of the
	// untouched lines.
	Case [][]float64
	// P derives from Case by capabilityMatrix. Only BuildGroups reads
	// it, so a detector loaded from a model leaves it nil.
	P [][]float64
}

// fitEllipses fits Ω_k for every node from the normal-operation
// training set (Eq. 4), one fit per worker slot; each node's (vm, va)
// scratch is private to its item. useMVEE selects the minimum-volume
// enclosing ellipse instead of the default covariance-scaled fit.
func fitEllipses(ctx context.Context, normal *dataset.Set, margin float64, useMVEE bool, workers int) ([]*ellipse.Ellipse, error) {
	if normal.T() < 2 {
		return nil, fmt.Errorf("detect: need at least 2 normal samples, got %d", normal.T())
	}
	n := normal.Samples[0].N()
	return par.Map(ctx, workers, n, func(_ context.Context, k int) (*ellipse.Ellipse, error) {
		vm := make([]float64, normal.T())
		va := make([]float64, normal.T())
		for t, s := range normal.Samples {
			vm[t], va[t] = s.Phasor2D(k)
		}
		var e *ellipse.Ellipse
		var err error
		if useMVEE {
			e, err = ellipse.FitMVEE(vm, va, margin, 0)
		} else {
			e, err = ellipse.Fit(vm, va, margin)
		}
		if err != nil {
			return nil, fmt.Errorf("detect: ellipse for node %d: %w", k, err)
		}
		return e, nil
	})
}

// CaseCapability computes p_k(F | X_k^F) of Eq. (5): the count of outage
// samples falling outside Ω_k, normalised by the count of normal
// training samples inside Ω_k.
func CaseCapability(om *ellipse.Ellipse, outage, normal *dataset.Set, k int) float64 {
	if outage.T() == 0 || normal.T() == 0 {
		return 0
	}
	outside := 0
	for _, s := range outage.Samples {
		vm, va := s.Phasor2D(k)
		if !om.Contains(vm, va) {
			outside++
		}
	}
	inside := 0
	for _, s := range normal.Samples {
		vm, va := s.Phasor2D(k)
		if om.Contains(vm, va) {
			inside++
		}
	}
	if inside == 0 {
		return 0
	}
	return clamp01(float64(outside) / float64(inside))
}

// caseRow is the Eq. (5) row of one outage case: CaseCapability at
// every node.
func caseRow(ells []*ellipse.Ellipse, outage, normal *dataset.Set) []float64 {
	row := make([]float64, len(ells))
	for k, om := range ells {
		row[k] = CaseCapability(om, outage, normal, k)
	}
	return row
}

// capabilityMatrix is P of Eqs. (6)–(7): row i is the union capability
// over the cases of node i's valid lines, lines[i] (indices into rows,
// as incidentLines lists them), and all zero for a node without one.
// Each row depends only on its node's lines, so P rebuilt from a model's
// rows is bit for bit the P training built.
func capabilityMatrix(lines [][]int, rows [][]float64) [][]float64 {
	n := len(lines)
	p := make([][]float64, n)
	for i, cases := range lines {
		p[i] = make([]float64, n)
		if len(cases) == 0 {
			continue
		}
		ps := make([]float64, len(cases))
		for k := range p[i] {
			for c, j := range cases {
				ps[c] = rows[j][k]
			}
			p[i][k] = UnionProb(ps)
		}
	}
	return p
}

// learnCapabilities builds the full capability structure from
// training data: ellipses from the normal set, the Eq. (5) row of every
// valid line, then for every node pair (i, k) the union capability
// p_{i,k} over all training cases involving node i (Eqs. 6–7). The
// ellipse fits and the per-case rows of Eq. (5) each fan out over
// workers. Every row is index-exclusive, so the tables are
// byte-identical for any worker count.
func learnCapabilities(ctx context.Context, d *dataset.Data, margin float64, useMVEE bool, workers int) (*Capabilities, error) {
	ells, err := fitEllipses(ctx, d.Normal, margin, useMVEE, workers)
	if err != nil {
		return nil, err
	}
	rows, err := par.Map(ctx, workers, len(d.ValidLines), func(_ context.Context, j int) ([]float64, error) {
		return caseRow(ells, d.Outages[d.ValidLines[j]], d.Normal), nil
	})
	if err != nil {
		return nil, err
	}
	return &Capabilities{Ellipses: ells, Case: rows, P: capabilityMatrix(incidentLines(d.G, d.ValidLines), rows)}, nil
}
