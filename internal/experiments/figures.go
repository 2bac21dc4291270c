package experiments

import (
	"context"
	"math/rand"

	"pmuoutage/internal/dataset"
	"pmuoutage/internal/detect"
	"pmuoutage/internal/grid"
	"pmuoutage/internal/metrics"
	"pmuoutage/internal/pmunet"
)

// Every figure fans its rows — one job per (system, sweep point) — out
// over cfg.Workers via rowJobs. Each job seeds its own mask RNG exactly
// as the sequential loops did, and results concatenate in job order, so
// the printed tables are byte-identical to a Workers = 1 run.

// Fig4 reproduces Figure 4: the effect of detection-group formation.
// The x axis is the fraction of group members selected by learned
// detection capability (Eq. 8); x = 0 is the naive PCA-orthogonal
// choice, x = 1 the proposed robust group. Complete data, single-line
// outages, subspace method only.
func Fig4(ctx context.Context, cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	mixes := []float64{0, 0.25, 0.5, 0.75, 1}
	return rowJobs(ctx, cfg, len(cfg.Systems)*len(mixes), func(ctx context.Context, i int) ([]Row, error) {
		system := cfg.Systems[i/len(mixes)]
		mix := mixes[i%len(mixes)]
		c := cfg
		c.Detect.Groups.Mix = mix
		if mix == 0 { //gridlint:ignore floatcmp compares against the exact literal 0 from the sweep list above
			// Mix = 0 (zero value) means "default" to detect.TrainContext,
			// so the pure naive choice is requested with -1.
			c.Detect.Groups.Mix = -1
		}
		b, err := c.prepare(ctx, system, false)
		if err != nil {
			return nil, err
		}
		sub, _, err := b.evalOutages(ctx, nil, cfg.Seed+31)
		if err != nil {
			return nil, err
		}
		return []Row{{
			Figure: "fig4", System: system, Method: "subspace",
			X: mix, IA: sub.IA(), FA: sub.FA(), N: sub.N(),
		}}, nil
	})
}

// Fig5 reproduces Figure 5: the complete-data case, subspace vs MLR,
// over all systems.
func Fig5(ctx context.Context, cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	return rowJobs(ctx, cfg, len(cfg.Systems), func(ctx context.Context, i int) ([]Row, error) {
		system := cfg.Systems[i]
		b, err := cfg.prepare(ctx, system, true)
		if err != nil {
			return nil, err
		}
		sub, base, err := b.evalOutages(ctx, nil, cfg.Seed+41)
		if err != nil {
			return nil, err
		}
		return []Row{
			{Figure: "fig5", System: system, Method: "subspace", IA: sub.IA(), FA: sub.FA(), N: sub.N()},
			{Figure: "fig5", System: system, Method: "mlr", IA: base.IA(), FA: base.FA(), N: base.N()},
		}, nil
	})
}

// Fig7 reproduces Figure 7: data from the outage endpoints are missing
// (Fig. 6 top pattern).
func Fig7(ctx context.Context, cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	return rowJobs(ctx, cfg, len(cfg.Systems), func(ctx context.Context, i int) ([]Row, error) {
		system := cfg.Systems[i]
		b, err := cfg.prepare(ctx, system, true)
		if err != nil {
			return nil, err
		}
		mask := func(e grid.Line, _ *rand.Rand) pmunet.Mask {
			return b.nw.OutageLocationMask(e)
		}
		sub, base, err := b.evalOutages(ctx, mask, cfg.Seed+51)
		if err != nil {
			return nil, err
		}
		return []Row{
			{Figure: "fig7", System: system, Method: "subspace", IA: sub.IA(), FA: sub.FA(), N: sub.N()},
			{Figure: "fig7", System: system, Method: "mlr", IA: base.IA(), FA: base.FA(), N: base.N()},
		}, nil
	})
}

// Fig8 reproduces Figure 8: test samples are normal operation with a
// few random missing points (Fig. 6 middle pattern) — can the methods
// tell a data problem from a physical failure? |F| = 0 conventions of
// §V-C2 apply.
func Fig8(ctx context.Context, cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	return rowJobs(ctx, cfg, len(cfg.Systems), func(ctx context.Context, i int) ([]Row, error) {
		system := cfg.Systems[i]
		b, err := cfg.prepare(ctx, system, true)
		if err != nil {
			return nil, err
		}
		var sub, base metrics.Accumulator
		// Several missing-point counts, several draws each.
		for _, k := range []int{1, 2, 3, 5} {
			mask := func(_ grid.Line, rng *rand.Rand) pmunet.Mask {
				return b.nw.RandomMask(k, nil, rng)
			}
			s, m, err := b.evalNormal(ctx, mask, cfg.Seed+61+int64(k))
			if err != nil {
				return nil, err
			}
			mergeInto(&sub, s)
			mergeInto(&base, m)
		}
		return []Row{
			{Figure: "fig8", System: system, Method: "subspace", IA: sub.IA(), FA: sub.FA(), N: sub.N()},
			{Figure: "fig8", System: system, Method: "mlr", IA: base.IA(), FA: base.FA(), N: base.N()},
		}, nil
	})
}

// Fig9 reproduces Figure 9: outage samples with random missing data NOT
// at the outage location (Fig. 6 bottom pattern) — missing data and
// outages uncorrelated.
func Fig9(ctx context.Context, cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	return rowJobs(ctx, cfg, len(cfg.Systems), func(ctx context.Context, i int) ([]Row, error) {
		system := cfg.Systems[i]
		b, err := cfg.prepare(ctx, system, true)
		if err != nil {
			return nil, err
		}
		mask := func(e grid.Line, rng *rand.Rand) pmunet.Mask {
			a, bb := b.g.Endpoints(e)
			k := 1 + rng.Intn(3)
			return b.nw.RandomMask(k, []int{a, bb}, rng)
		}
		sub, base, err := b.evalOutages(ctx, mask, cfg.Seed+71)
		if err != nil {
			return nil, err
		}
		return []Row{
			{Figure: "fig9", System: system, Method: "subspace", IA: sub.IA(), FA: sub.FA(), N: sub.N()},
			{Figure: "fig9", System: system, Method: "mlr", IA: base.IA(), FA: base.FA(), N: base.N()},
		}, nil
	})
}

// Fig10 reproduces Figure 10: the effective false-alarm rate FA(r) of
// Eqs. (13)–(15) as a function of system-wide PMU network reliability.
// The 2^L pattern sum is estimated by Monte Carlo: each trial draws a
// missing-data pattern from the Eq. (15) device distribution, which
// weights patterns by exactly p_l(r). Outage and normal samples are both
// evaluated so FA captures false lines and phantom outages. Every
// (system, level) cell is one parallel job with its own seed-derived
// mask RNGs.
func Fig10(ctx context.Context, cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	levels := []float64{0.80, 0.85, 0.90, 0.95, 0.99}
	return rowJobs(ctx, cfg, len(cfg.Systems)*len(levels), func(ctx context.Context, i int) ([]Row, error) {
		system := cfg.Systems[i/len(levels)]
		r := levels[i%len(levels)]
		b, err := cfg.prepare(ctx, system, false)
		if err != nil {
			return nil, err
		}
		rel, err := pmunet.FromSystemReliability(r, b.g.N())
		if err != nil {
			return nil, err
		}
		mask := func(_ grid.Line, rng *rand.Rand) pmunet.Mask {
			return b.nw.SampleMask(rel, rng)
		}
		sub, _, err := b.evalOutages(ctx, mask, cfg.Seed+81+int64(r*1000))
		if err != nil {
			return nil, err
		}
		subN, _, err := b.evalNormal(ctx, mask, cfg.Seed+91+int64(r*1000))
		if err != nil {
			return nil, err
		}
		mergeInto(&sub, subN)
		return []Row{{
			Figure: "fig10", System: system, Method: "subspace",
			X: r, IA: sub.IA(), FA: sub.FA(), N: sub.N(),
		}}, nil
	})
}

// Ablation compares the design choices DESIGN.md calls out: the literal
// Eq. (9) regressor vs the projection residual, Eq. (11) scaling on/off,
// and the measurement channel, on the Fig. 7 missing-outage-data
// scenario where the differences matter most.
func Ablation(ctx context.Context, cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	variants := []struct {
		name string
		mod  func(*detect.Config)
	}{
		{"residual", func(*detect.Config) {}},
		{"regressor", func(c *detect.Config) { c.UseRegressorProximity = true }},
		{"unscaled", func(c *detect.Config) { c.DisableScaling = true }},
		{"magnitude", func(c *detect.Config) { c.Channel = dataset.Magnitude }},
		{"stacked", func(c *detect.Config) { c.Channel = dataset.Stacked }},
		{"mvee", func(c *detect.Config) { c.UseMVEE = true }},
	}
	return rowJobs(ctx, cfg, len(cfg.Systems)*len(variants), func(ctx context.Context, i int) ([]Row, error) {
		system := cfg.Systems[i/len(variants)]
		v := variants[i%len(variants)]
		c := cfg
		v.mod(&c.Detect)
		b, err := c.prepare(ctx, system, false)
		if err != nil {
			return nil, err
		}
		mask := func(e grid.Line, _ *rand.Rand) pmunet.Mask {
			return b.nw.OutageLocationMask(e)
		}
		sub, _, err := b.evalOutages(ctx, mask, cfg.Seed+101)
		if err != nil {
			return nil, err
		}
		return []Row{{
			Figure: "ablation", System: system, Method: v.name,
			IA: sub.IA(), FA: sub.FA(), N: sub.N(),
		}}, nil
	})
}

// mergeInto folds the counts of src into dst by re-adding its averages
// weighted by sample count.
func mergeInto(dst *metrics.Accumulator, src metrics.Accumulator) {
	for i := 0; i < src.N(); i++ {
		dst.AddScores(src.IA(), src.FA())
	}
}

// All runs every figure and returns the concatenated rows. Figures run
// in order (their rows must print in order); the parallelism lives
// inside each figure.
func All(ctx context.Context, cfg Config) ([]Row, error) {
	var rows []Row
	for _, fn := range []func(context.Context, Config) ([]Row, error){Fig4, Fig5, Fig7, Fig8, Fig9, Fig10} {
		r, err := fn(ctx, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}
