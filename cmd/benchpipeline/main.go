// Command benchpipeline measures the worker-pooled pipeline stages —
// dataset generation, detector training, the Fig. 10 Monte Carlo — with
// one worker and with all CPUs, and writes the timings as JSON. The two
// configurations compute byte-identical results (see internal/par), so
// the ratio is pure scheduling overhead vs speedup.
//
// It also measures a ladder of grid sizes. Every grid (14 … 1000
// buses) gets one flat-start AC and one DC solve, each on the linear
// solve the grid's size picks (dense LU below
// powerflow.SparseBusThreshold buses, sparse LU at or above it). Every
// grid but synth1000 also gets the training pipeline with one worker:
// DC data generation in the training configuration (40 steps, seed 1),
// detector training on that data with max(3, N/10) PDC clusters, and
// one detection each of an outage sample and a normal sample, picked
// by the rule of BenchmarkDetectSingleSample.
//
// Usage:
//
//	benchpipeline [-o BENCH_pipeline.json] [-reps 3]
//
// The JSON has one entry per (stage, workers) pair with the best-of-reps
// wall time in nanoseconds, one scaling row per (grid, stage) pair (a
// detection row is the best of -reps mean times over a timed loop), plus
// the machine's GOMAXPROCS so single-CPU results are readable for what
// they are.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"pmuoutage/internal/cases"
	"pmuoutage/internal/dataset"
	"pmuoutage/internal/detect"
	"pmuoutage/internal/pmunet"
	"pmuoutage/internal/powerflow"
)

type result struct {
	Stage   string `json:"stage"`
	Workers int    `json:"workers"` // 0 was resolved to GOMAXPROCS
	NsOp    int64  `json:"ns_op"`   // best of -reps runs
}

// scalingRow is one point of the grid-size ladder: one stage run once
// on the named grid.
type scalingRow struct {
	Grid  string `json:"grid"`
	Buses int    `json:"buses"`
	Stage string `json:"stage"` // powerflow/ac | powerflow/dc | dataset/generate-dc | detect/train | detect/outage-sample | detect/normal-sample
	NsOp  int64  `json:"ns_op"` // best of -reps runs
}

type report struct {
	GOMAXPROCS int          `json:"gomaxprocs"`
	Reps       int          `json:"reps"`
	Results    []result     `json:"results"`
	Scaling    []scalingRow `json:"scaling,omitempty"`
}

func main() {
	out := flag.String("o", "BENCH_pipeline.json", "output file")
	reps := flag.Int("reps", 3, "repetitions per stage (best run wins)")
	flag.Parse()

	if err := run(*out, *reps); err != nil {
		fmt.Fprintln(os.Stderr, "benchpipeline:", err)
		os.Exit(1)
	}
}

func run(out string, reps int) error {
	if reps <= 0 {
		reps = 1
	}
	ctx := context.Background()
	g := cases.IEEE30()
	nw, err := pmunet.Build(g, 3)
	if err != nil {
		return err
	}
	d, err := dataset.Generate(g, dataset.GenConfig{Steps: 20, Seed: 1, UseDC: true})
	if err != nil {
		return err
	}

	stages := []struct {
		name string
		fn   func(workers int) error
	}{
		{"dataset/generate-ieee30-dc", func(workers int) error {
			_, err := dataset.GenerateContext(ctx, g, dataset.GenConfig{Steps: 20, Seed: 1, UseDC: true, Workers: workers})
			return err
		}},
		{"detect/train-ieee30", func(workers int) error {
			_, err := detect.TrainContext(ctx, d, nw, detect.Config{Workers: workers})
			return err
		}},
		{"pmunet/montecarlo-100k", func(workers int) error {
			_, err := nw.ReliabilityMonteCarlo(ctx, pmunet.Reliability{RPMU: 0.97, RLink: 0.99}, 100000, 1, workers)
			return err
		}},
	}

	rep := report{GOMAXPROCS: runtime.GOMAXPROCS(0), Reps: reps}
	workerSet := []int{1}
	if rep.GOMAXPROCS > 1 {
		workerSet = append(workerSet, rep.GOMAXPROCS)
	}
	for _, st := range stages {
		for _, workers := range workerSet {
			el, err := best(reps, once(func() error { return st.fn(workers) }))
			if err != nil {
				return fmt.Errorf("%s workers=%d: %w", st.name, workers, err)
			}
			rep.Results = append(rep.Results, result{Stage: st.name, Workers: workers, NsOp: el.Nanoseconds()})
			fmt.Printf("%-28s workers=%-2d %12s\n", st.name, workers, el.Round(time.Microsecond))
		}
	}

	scaling, err := scalingLadder(reps)
	if err != nil {
		return err
	}
	rep.Scaling = scaling

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// best returns the least of reps measurements.
func best(reps int, measure func() (time.Duration, error)) (time.Duration, error) {
	least := time.Duration(-1)
	for r := 0; r < reps; r++ {
		d, err := measure()
		if err != nil {
			return 0, err
		}
		if least < 0 || d < least {
			least = d
		}
	}
	return least, nil
}

// once measures one call of fn.
func once(fn func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	}
}

// loopMin is the least time one timed detection loop runs for.
const loopMin = 50 * time.Millisecond

// loop measures the mean time of one fn call over a loop of at least
// loopMin.
func loop(fn func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		start, n := time.Now(), 0
		for ; n < 10 || time.Since(start) < loopMin; n++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / time.Duration(n), nil
	}
}

// scalingLadder times one flat-start AC and one DC solve per grid size,
// and the training pipeline on every grid but synth1000, whose training
// time is unmeasured. Flat start, because the built-in grids store their
// solved state and a warm start from the exact solution converges
// before any factorization runs, measuring nothing.
func scalingLadder(reps int) ([]scalingRow, error) {
	var rows []scalingRow
	for _, name := range []string{"ieee14", "ieee30", "ieee57", "ieee118", "synth300", "synth1000"} {
		g, err := cases.Load(name)
		if err != nil {
			return nil, err
		}
		add := func(stage string, measure func() (time.Duration, error)) error {
			el, err := best(reps, measure)
			if err != nil {
				return fmt.Errorf("%s %s: %w", name, stage, err)
			}
			rows = append(rows, scalingRow{Grid: name, Buses: g.N(), Stage: stage, NsOp: el.Nanoseconds()})
			fmt.Printf("%-10s %-21s %12s\n", name, stage, el.Round(time.Microsecond))
			return nil
		}
		if err := add("powerflow/ac", once(func() error {
			_, err := powerflow.SolveAC(g.Clone(), powerflow.Options{FlatStart: true})
			return err
		})); err != nil {
			return nil, err
		}
		if err := add("powerflow/dc", once(func() error {
			_, err := powerflow.SolveDC(g.Clone())
			return err
		})); err != nil {
			return nil, err
		}
		if name == "synth1000" {
			continue
		}
		var d *dataset.Data
		if err := add("dataset/generate-dc", once(func() (err error) {
			d, err = dataset.Generate(g, dataset.GenConfig{Steps: 40, Seed: 1, UseDC: true, Workers: 1})
			return err
		})); err != nil {
			return nil, err
		}
		nw, err := pmunet.Build(g, max(3, g.N()/10))
		if err != nil {
			return nil, err
		}
		var det *detect.Detector
		if err := add("detect/train", once(func() (err error) {
			det, err = detect.Train(d, nw, detect.Config{Workers: 1})
			return err
		})); err != nil {
			return nil, err
		}
		outage, normal, err := detectSamples(det, d)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if err := add("detect/outage-sample", loop(func() error { _, err := det.Detect(outage); return err })); err != nil {
			return nil, err
		}
		if err := add("detect/normal-sample", loop(func() error { _, err := det.Detect(normal); return err })); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// detectSamples picks the samples BenchmarkDetectSingleSample times: the
// first valid line's first outage sample that trips the energy gate,
// and the first normal sample that does not.
func detectSamples(det *detect.Detector, d *dataset.Data) (outage, normal dataset.Sample, err error) {
	gated := func(s dataset.Sample) (bool, error) {
		r, err := det.Detect(s)
		if err != nil {
			return false, err
		}
		return r.Outage, nil
	}
	found := 0
	for _, e := range d.ValidLines {
		s := d.Outages[e].Samples[0]
		ok, err := gated(s)
		if err != nil {
			return outage, normal, err
		}
		if ok {
			outage, found = s, found+1
			break
		}
	}
	for _, s := range d.Normal.Samples {
		ok, err := gated(s)
		if err != nil {
			return outage, normal, err
		}
		if !ok {
			normal, found = s, found+1
			break
		}
	}
	if found != 2 {
		return outage, normal, fmt.Errorf("no gate-tripping outage sample or no quiet normal sample")
	}
	return outage, normal, nil
}
