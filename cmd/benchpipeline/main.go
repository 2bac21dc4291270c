// Command benchpipeline measures the worker-pooled pipeline stages —
// dataset generation, detector training, the Fig. 10 Monte Carlo — with
// one worker and with all CPUs, and writes the timings as JSON. The two
// configurations compute byte-identical results (see internal/par), so
// the ratio is pure scheduling overhead vs speedup.
//
// It also measures the power-flow scaling ladder: one flat-start AC and
// one DC solve per grid size (14 … 1000 buses), each on the linear solve
// the grid's size picks (dense LU below powerflow.SparseBusThreshold
// buses, sparse LU at or above it).
//
// Usage:
//
//	benchpipeline [-o BENCH_pipeline.json] [-reps 3]
//
// The JSON has one entry per (stage, workers) pair with the best-of-reps
// wall time in nanoseconds, one scaling row per (grid, stage) pair, plus
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
	"pmuoutage/internal/grid"
	"pmuoutage/internal/pmunet"
	"pmuoutage/internal/powerflow"
)

type result struct {
	Stage   string `json:"stage"`
	Workers int    `json:"workers"` // 0 was resolved to GOMAXPROCS
	NsOp    int64  `json:"ns_op"`   // best of -reps runs
}

// scalingRow is one point of the power-flow scaling ladder: the named
// grid solved once.
type scalingRow struct {
	Grid  string `json:"grid"`
	Buses int    `json:"buses"`
	Stage string `json:"stage"` // powerflow/ac | powerflow/dc
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
			best := time.Duration(-1)
			for r := 0; r < reps; r++ {
				start := time.Now()
				if err := st.fn(workers); err != nil {
					return fmt.Errorf("%s workers=%d: %w", st.name, workers, err)
				}
				if el := time.Since(start); best < 0 || el < best {
					best = el
				}
			}
			rep.Results = append(rep.Results, result{Stage: st.name, Workers: workers, NsOp: best.Nanoseconds()})
			fmt.Printf("%-28s workers=%-2d %12s\n", st.name, workers, best.Round(time.Microsecond))
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

// scalingLadder times one flat-start AC and one DC solve per grid size.
// Flat start, because the built-in grids store their solved state and a
// warm start from the exact solution converges before any
// factorization runs, measuring nothing.
func scalingLadder(reps int) ([]scalingRow, error) {
	stages := []struct {
		label string
		fn    func(*grid.Grid) error
	}{
		{"powerflow/ac", func(g *grid.Grid) error {
			_, err := powerflow.SolveAC(g, powerflow.Options{FlatStart: true})
			return err
		}},
		{"powerflow/dc", func(g *grid.Grid) error {
			_, err := powerflow.SolveDC(g)
			return err
		}},
	}
	var rows []scalingRow
	for _, name := range []string{"ieee14", "ieee30", "ieee57", "ieee118", "synth300", "synth1000"} {
		g, err := cases.Load(name)
		if err != nil {
			return nil, err
		}
		for _, stage := range stages {
			best := time.Duration(-1)
			for r := 0; r < reps; r++ {
				work := g.Clone()
				start := time.Now()
				if err := stage.fn(work); err != nil {
					return nil, fmt.Errorf("%s %s: %w", name, stage.label, err)
				}
				if el := time.Since(start); best < 0 || el < best {
					best = el
				}
			}
			rows = append(rows, scalingRow{Grid: name, Buses: g.N(), Stage: stage.label, NsOp: best.Nanoseconds()})
			fmt.Printf("%-10s %-13s %12s\n", name, stage.label, best.Round(time.Microsecond))
		}
	}
	return rows, nil
}
