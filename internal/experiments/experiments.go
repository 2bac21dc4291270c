// Package experiments regenerates every figure of the paper's evaluation
// (§V). Each FigN function returns structured rows that cmd/experiments
// prints as tables and bench_test.go asserts shape properties on. See
// DESIGN.md for the experiment index and the shape targets.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"pmuoutage/internal/cases"
	"pmuoutage/internal/dataset"
	"pmuoutage/internal/detect"
	"pmuoutage/internal/grid"
	"pmuoutage/internal/metrics"
	"pmuoutage/internal/mlr"
	"pmuoutage/internal/par"
	"pmuoutage/internal/pmunet"
)

// Row is one measured point of a figure.
type Row struct {
	Figure string  // e.g. "fig5"
	System string  // e.g. "ieee14"
	Method string  // "subspace" or "mlr"
	X      float64 // sweep coordinate (group mix, reliability, ...), 0 if unused
	IA     float64
	FA     float64
	N      int // detections aggregated
}

// String formats the row as a stable table line.
func (r Row) String() string {
	return fmt.Sprintf("%-6s %-8s %-9s x=%-6.3f IA=%.4f FA=%.4f n=%d",
		r.Figure, r.System, r.Method, r.X, r.IA, r.FA, r.N)
}

// Config scopes an experiment run.
type Config struct {
	// Systems to evaluate; nil means the four IEEE systems,
	// cases.PaperNames.
	Systems []string
	// TrainSteps is the training window length per scenario (default 40).
	TrainSteps int
	// TestSteps is the number of test realizations per outage case —
	// the paper uses 100; the default is 20 to keep full AC runs in
	// minutes, and cmd/experiments exposes a flag for the paper value.
	TestSteps int
	// Seed drives the whole pipeline.
	Seed int64
	// UseDC switches data generation to the DC approximation (fast mode
	// for tests; the angle channel keeps the same structure).
	UseDC bool
	// Clusters overrides the PDC cluster count; 0 derives max(3, N/10).
	Clusters int
	// Detect overrides the detector configuration (zero value = package
	// defaults); the MLR baseline always trains with mlr's defaults.
	Detect detect.Config
	// Workers bounds the parallelism of a run (0 = GOMAXPROCS): figure
	// rows — one per (system, sweep point) — fan out over workers, and
	// the same count is handed down to data generation and training.
	// Row values and order are identical for every worker count because
	// every row derives its own seeds.
	Workers int
}

func (c Config) withDefaults() Config {
	if len(c.Systems) == 0 {
		c.Systems = cases.PaperNames()
	}
	if c.TrainSteps <= 0 {
		c.TrainSteps = 40
	}
	if c.TestSteps <= 0 {
		c.TestSteps = 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// clustersForKey returns the cache-key form of the cluster setting.
func (c Config) clustersForKey() int { return c.Clusters }

func (c Config) clustersFor(n int) int {
	if c.Clusters > 0 {
		return c.Clusters
	}
	k := n / 10
	if k < 3 {
		k = 3
	}
	return k
}

// bundle holds everything prepared for one system.
type bundle struct {
	g     *grid.Grid
	nw    *pmunet.Network
	train *dataset.Data
	test  *dataset.Data
	det   *detect.Detector
	clf   *mlr.Classifier
}

// dataCache memoises the expensive power-flow data generation across
// figures: every figure of a run uses the same train/test data for a
// given system, only the detector configuration varies.
var dataCache sync.Map // dataKey -> *cachedData

type dataKey struct {
	system                string
	trainSteps, testSteps int
	seed                  int64
	useDC                 bool
	clusters              int
}

type cachedData struct {
	once  sync.Once
	g     *grid.Grid
	nw    *pmunet.Network
	train *dataset.Data
	test  *dataset.Data
	err   error
}

// prepare builds grid, network, train/test data, the trained detector and
// the MLR baseline for one system. The data generation is cached across
// figures and safe to hit from concurrent rows; training runs per call
// because the detector configuration varies per row.
func (c Config) prepare(ctx context.Context, system string, needMLR bool) (*bundle, error) {
	key := dataKey{system, c.TrainSteps, c.TestSteps, c.Seed, c.UseDC, c.clustersForKey()}
	entry, _ := dataCache.LoadOrStore(key, &cachedData{})
	cd := entry.(*cachedData)
	cd.once.Do(func() {
		g, err := cases.Load(system)
		if err != nil {
			cd.err = err
			return
		}
		nw, err := pmunet.Build(g, c.clustersFor(g.N()))
		if err != nil {
			cd.err = err
			return
		}
		gen := dataset.GenConfig{Steps: c.TrainSteps, Seed: c.Seed, UseDC: c.UseDC, Workers: c.Workers}
		train, err := dataset.GenerateContext(ctx, g, gen)
		if err != nil {
			cd.err = err
			return
		}
		gen.Steps = c.TestSteps
		gen.Seed = c.Seed + 7777
		test, err := dataset.GenerateContext(ctx, g, gen)
		if err != nil {
			cd.err = err
			return
		}
		cd.g, cd.nw, cd.train, cd.test = g, nw, train, test
	})
	if cd.err != nil {
		// A cancelled first caller must not poison the cache for later
		// runs: drop the entry so the next call regenerates.
		if errors.Is(cd.err, context.Canceled) || errors.Is(cd.err, context.DeadlineExceeded) {
			dataCache.CompareAndDelete(key, entry)
		}
		return nil, cd.err
	}
	g, nw, train, test := cd.g, cd.nw, cd.train, cd.test
	dcfg := c.Detect
	dcfg.Workers = c.Workers
	det, err := detect.TrainContext(ctx, train, nw, dcfg)
	if err != nil {
		return nil, err
	}
	b := &bundle{g: g, nw: nw, train: train, test: test, det: det}
	if needMLR {
		clf, err := mlr.Train(train, mlr.Config{})
		if err != nil {
			return nil, err
		}
		b.clf = clf
	}
	return b, nil
}

// rowJobs runs one job per (system, sweep point) pair over the
// configured workers and concatenates the per-job rows in job order, so
// parallel output is identical to the sequential loop it replaced.
func rowJobs(ctx context.Context, cfg Config, n int, job func(ctx context.Context, i int) ([]Row, error)) ([]Row, error) {
	per, err := par.Map(ctx, cfg.Workers, n, job)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, r := range per {
		rows = append(rows, r...)
	}
	return rows, nil
}

// maskFn produces the missing-data mask for one test detection; nil
// means complete data.
type maskFn func(e grid.Line, rng *rand.Rand) pmunet.Mask

// evalOutages runs every valid outage case's test samples through both
// methods with the given missing-data pattern and accumulates Eq. (12).
// The mask RNG is private to the call, so rows evaluating concurrently
// draw exactly the patterns the sequential loop drew.
func (b *bundle) evalOutages(ctx context.Context, mask maskFn, seed int64) (sub, base metrics.Accumulator, err error) {
	rng := rand.New(rand.NewSource(seed))
	for _, e := range b.test.ValidLines {
		if err := ctx.Err(); err != nil {
			return sub, base, err
		}
		truth := []grid.Line{e}
		for _, s := range b.test.OutageSet(e).Samples {
			smp := s
			if mask != nil {
				smp = s.WithMask(mask(e, rng))
			}
			r, derr := b.det.Detect(smp)
			if derr != nil {
				return sub, base, derr
			}
			sub.Add(truth, r.Lines)
			if b.clf != nil {
				base.Add(truth, b.clf.Classify(smp))
			}
		}
	}
	return sub, base, nil
}

// evalNormal runs normal-operation test samples (|F| = 0 conventions).
func (b *bundle) evalNormal(ctx context.Context, mask maskFn, seed int64) (sub, base metrics.Accumulator, err error) {
	rng := rand.New(rand.NewSource(seed))
	for _, s := range b.test.Normal.Samples {
		if err := ctx.Err(); err != nil {
			return sub, base, err
		}
		smp := s
		if mask != nil {
			smp = s.WithMask(mask(-1, rng))
		}
		r, derr := b.det.Detect(smp)
		if derr != nil {
			return sub, base, derr
		}
		sub.Add(nil, r.Lines)
		if b.clf != nil {
			base.Add(nil, b.clf.Classify(smp))
		}
	}
	return sub, base, nil
}
