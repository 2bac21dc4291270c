// Command experiments regenerates the paper's evaluation figures as
// printed tables. Each sub-command corresponds to one figure of §V (see
// DESIGN.md for the index); "all" runs everything and "ablation" runs
// the extra design-choice studies.
//
// Usage:
//
//	experiments [flags] fig4|fig5|fig7|fig8|fig9|fig10|ablation|recovery|multi|all
//
// Full AC runs over all four systems take minutes; use -systems and -dc
// to scope things down, or -workers to bound the parallelism (0 uses
// every CPU; results are identical for any worker count). Ctrl-C
// cancels the run cleanly mid-figure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pmuoutage/internal/experiments"
)

func main() {
	systems := flag.String("systems", "", "comma-separated systems (default all four)")
	trainSteps := flag.Int("train-steps", 40, "training samples per scenario")
	testSteps := flag.Int("test-steps", 20, "test realizations per outage case (paper: 100)")
	seed := flag.Int64("seed", 1, "random seed")
	useDC := flag.Bool("dc", false, "DC power-flow approximation (fast)")
	clusters := flag.Int("clusters", 0, "PDC clusters (default max(3, N/10))")
	workers := flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS; output is worker-count independent)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: experiments [flags] fig4|fig5|fig7|fig8|fig9|fig10|ablation|recovery|multi|all")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	cfg := experiments.Config{
		TrainSteps: *trainSteps,
		TestSteps:  *testSteps,
		Seed:       *seed,
		UseDC:      *useDC,
		Clusters:   *clusters,
		Workers:    *workers,
	}
	if *systems != "" {
		cfg.Systems = strings.Split(*systems, ",")
	}

	name := flag.Arg(0)
	fn, ok := experiments.Figures[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: unknown figure %q\n", name)
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	rows, err := fn(ctx, cfg)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "experiments: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	for _, r := range rows {
		fmt.Println(r.String())
	}
	fmt.Fprintf(os.Stderr, "experiments: %s done in %s (%d rows)\n", name, time.Since(start).Round(time.Millisecond), len(rows))
}
