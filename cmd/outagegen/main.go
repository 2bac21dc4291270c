// Command outagegen generates a synthetic PMU phasor dataset for a test
// system — the §V-A pipeline: Ornstein–Uhlenbeck load variations, AC (or
// DC) power flows per time step, Gaussian measurement noise, one sample
// set for normal operation plus each valid single-line outage — and
// writes it as JSON for later use by outagedetect.
//
// Usage:
//
//	outagegen -case ieee14 -steps 40 -seed 1 -o ieee14.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"pmuoutage/internal/cases"
	"pmuoutage/internal/dataset"
)

func main() {
	caseName := flag.String("case", "ieee14", "test system (see gridinfo -list)")
	steps := flag.Int("steps", 40, "samples per scenario (time window length)")
	seed := flag.Int64("seed", 1, "random seed (pipeline is deterministic in it)")
	useDC := flag.Bool("dc", false, "use the DC power-flow approximation (fast)")
	sigmaVm := flag.Float64("noise-vm", 0, "magnitude noise sigma p.u. (0 = default 1e-3)")
	sigmaVa := flag.Float64("noise-va", 0, "angle noise sigma rad (0 = default 1e-3)")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	if err := run(*caseName, *steps, *seed, *useDC, *sigmaVm, *sigmaVa, *out); err != nil {
		fmt.Fprintln(os.Stderr, "outagegen:", err)
		os.Exit(1)
	}
}

// run generates the dataset of caseName and writes it as JSON to out,
// or to stdout when out is empty. sigmaVm and sigmaVa are the PMU noise
// levels, non-positive for the defaults.
//
//gridlint:unit sigmaVm pu
//gridlint:unit sigmaVa rad
func run(caseName string, steps int, seed int64, useDC bool, sigmaVm, sigmaVa float64, out string) error {
	g, err := cases.Load(caseName)
	if err != nil {
		return err
	}
	d, err := dataset.GenerateContext(context.TODO(), g, dataset.GenConfig{
		Steps: steps, Seed: seed, UseDC: useDC,
		SigmaVm: sigmaVm, SigmaVa: sigmaVa,
	})
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := d.WriteJSON(w); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "outagegen: %s: %d normal samples, %d outage cases x %d samples\n",
		g.Name, d.Normal.T(), len(d.ValidLines), steps)
	return nil
}
