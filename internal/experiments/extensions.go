package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"pmuoutage/internal/dataset"
	"pmuoutage/internal/grid"
	"pmuoutage/internal/metrics"
	"pmuoutage/internal/pmunet"
	"pmuoutage/internal/recovery"
)

// Recovery runs the extension study motivated by §II/[8]: instead of
// designing for missing data, recover the missing entries first (from
// the low-dimensional structure of historical data) and then run the
// complete-data MLR classifier. The scenario is Fig. 7 (data missing at
// the outage location — the hardest pattern, because the historical
// basis is learned from normal operation while the missing block is
// exactly where the outage signature lives). Three rows per system:
// plain MLR, recover-then-MLR, and the recovery-free subspace method.
// The Row.X of the recovery row carries the mean recovery time per
// sample in microseconds — the latency cost the paper cautions about.
func Recovery(ctx context.Context, cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	return rowJobs(ctx, cfg, len(cfg.Systems), func(ctx context.Context, si int) ([]Row, error) {
		system := cfg.Systems[si]
		b, err := cfg.prepare(ctx, system, true)
		if err != nil {
			return nil, err
		}
		// Historical basis from normal-operation training data (what a
		// control center has before the outage).
		basis, err := recovery.Basis(b.train.Normal.Matrix(dataset.Angle), 6)
		if err != nil {
			return nil, err
		}
		basisVm, err := recovery.Basis(b.train.Normal.Matrix(dataset.Magnitude), 6)
		if err != nil {
			return nil, err
		}

		var sub, plain, rec metrics.Accumulator
		var recTime time.Duration
		recN := 0
		for _, e := range b.test.ValidLines {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			truth := []grid.Line{e}
			mask := b.nw.OutageLocationMask(e)
			for _, s := range b.test.OutageSet(e).Samples {
				masked := s.WithMask(mask)

				r, derr := b.det.Detect(masked)
				if derr != nil {
					return nil, derr
				}
				sub.Add(truth, r.Lines)
				plain.Add(truth, b.clf.Classify(masked))

				// Recover-then-classify: impute the missing buses from
				// the normal-operation basis, then hand the "complete"
				// sample to MLR.
				start := time.Now()
				va, rerr := recovery.SubspaceImpute(basis, masked.Va, mask)
				if rerr != nil {
					return nil, rerr
				}
				vm, rerr := recovery.SubspaceImpute(basisVm, masked.Vm, mask)
				if rerr != nil {
					return nil, rerr
				}
				recTime += time.Since(start)
				recN++
				rec.Add(truth, b.clf.Classify(dataset.Sample{Vm: vm, Va: va}))
			}
		}
		meanMicros := float64(recTime.Microseconds()) / float64(recN)
		return []Row{
			{Figure: "recovery", System: system, Method: "subspace", IA: sub.IA(), FA: sub.FA(), N: sub.N()},
			{Figure: "recovery", System: system, Method: "mlr", IA: plain.IA(), FA: plain.FA(), N: plain.N()},
			{Figure: "recovery", System: system, Method: "mlr+rec", X: meanMicros, IA: rec.IA(), FA: rec.FA(), N: rec.N()},
		}, nil
	})
}

// MultiOutage runs the severe-event extension: two lines of the same
// node out simultaneously (the scenario the intersection subspaces
// S_i^∩ target, §IV-C/Fig. 3), evaluated with complete data and with the
// shared node's PMU dark. Scenario generation happens on the fly since
// the training data only ever contain single-line outages — the point of
// the node-based design is exactly that multi-line events at a node are
// detectable without having been trained as scenarios.
func MultiOutage(ctx context.Context, cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	return rowJobs(ctx, cfg, len(cfg.Systems), func(ctx context.Context, si int) ([]Row, error) {
		system := cfg.Systems[si]
		b, err := cfg.prepare(ctx, system, false)
		if err != nil {
			return nil, err
		}
		pairs := multiOutagePairs(b, 10)
		if len(pairs) == 0 {
			return nil, fmt.Errorf("experiments: no multi-outage pairs on %s", system)
		}
		var complete, dark metrics.Accumulator
		for _, p := range pairs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			sc := dataset.Scenario{p.e1, p.e2}
			set, err := dataset.GenerateScenarioContext(ctx, b.g, sc, dataset.GenConfig{
				Steps: cfg.TestSteps / 4, Seed: cfg.Seed + 31337 + int64(p.e1)*997 + int64(p.e2),
				UseDC: cfg.UseDC,
			})
			if errors.Is(err, dataset.ErrInvalidScenario) {
				continue // islanding double outage: skip like §V-A
			}
			if err != nil {
				return nil, err
			}
			truth := []grid.Line{p.e1, p.e2}
			mask := pmunet.NoneMissing(b.g.N())
			mask[p.node] = true
			for _, s := range set.Samples {
				r, derr := b.det.Detect(s)
				if derr != nil {
					return nil, derr
				}
				complete.Add(truth, r.Lines)
				r, derr = b.det.Detect(s.WithMask(mask))
				if derr != nil {
					return nil, derr
				}
				dark.Add(truth, r.Lines)
			}
		}
		return []Row{
			{Figure: "multi", System: system, Method: "complete", IA: complete.IA(), FA: complete.FA(), N: complete.N()},
			{Figure: "multi", System: system, Method: "node-dark", IA: dark.IA(), FA: dark.FA(), N: dark.N()},
		}, nil
	})
}

type outagePair struct {
	node   int
	e1, e2 grid.Line
}

// multiOutagePairs picks up to limit (node, line-pair) combinations
// where both lines are valid single-outage cases of the node and their
// joint removal keeps the grid connected.
func multiOutagePairs(b *bundle, limit int) []outagePair {
	valid := map[grid.Line]bool{}
	for _, e := range b.test.ValidLines {
		valid[e] = true
	}
	rng := rand.New(rand.NewSource(424242))
	var pairs []outagePair
	for node := 0; node < b.g.N() && len(pairs) < limit; node++ {
		lines := b.g.LinesOf(node)
		var ok []grid.Line
		for _, e := range lines {
			if valid[e] {
				ok = append(ok, e)
			}
		}
		if len(ok) < 3 {
			continue // removing 2 of 2 would island the node
		}
		// One random pair per eligible node keeps coverage broad.
		i := rng.Intn(len(ok))
		j := rng.Intn(len(ok) - 1)
		if j >= i {
			j++
		}
		e1, e2 := ok[i], ok[j]
		if !b.g.WithoutLines([]grid.Line{e1, e2}).Connected() {
			continue
		}
		pairs = append(pairs, outagePair{node: node, e1: e1, e2: e2})
	}
	return pairs
}
