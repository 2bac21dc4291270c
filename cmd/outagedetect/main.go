// Command outagedetect trains the robust subspace detector on a dataset
// produced by outagegen and evaluates it: per-line identification
// accuracy and false-alarm rate under a chosen missing-data pattern.
//
// Usage:
//
//	outagedetect -data ieee14.json [-pattern none|outage|random|cluster] [-k 3]
//
// The dataset is split into training and test windows; the detector
// never sees the test samples during training.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"pmuoutage/internal/cases"
	"pmuoutage/internal/dataset"
	"pmuoutage/internal/detect"
	"pmuoutage/internal/grid"
	"pmuoutage/internal/metrics"
	"pmuoutage/internal/pmunet"
)

func main() {
	dataPath := flag.String("data", "", "dataset JSON from outagegen (required)")
	pattern := flag.String("pattern", "none", "missing-data pattern: none, outage, random, cluster")
	k := flag.Int("k", 3, "missing points for the random pattern")
	clusters := flag.Int("clusters", 0, "PDC clusters (default max(3, N/10))")
	trainFrac := flag.Float64("train", 0.7, "training fraction of each sample window")
	seed := flag.Int64("seed", 1, "seed for splits and random masks")
	saveModel := flag.String("save-model", "", "write the trained detector as a versioned model artifact")
	loadModel := flag.String("load-model", "", "evaluate a saved model artifact instead of training")
	verbose := flag.Bool("v", false, "print per-line results")
	flag.Parse()

	if *dataPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*dataPath, *pattern, *k, *clusters, *trainFrac, *seed, *saveModel, *loadModel, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "outagedetect:", err)
		os.Exit(1)
	}
}

func run(dataPath, pattern string, k, clusters int, trainFrac float64, seed int64, saveModel, loadModel string, verbose bool) error {
	f, err := os.Open(dataPath)
	if err != nil {
		return err
	}
	name, err := dataset.SystemName(f)
	_ = f.Close() // read-only; a close error cannot lose data
	if err != nil {
		return err
	}
	g, err := cases.Load(name)
	if err != nil {
		return err
	}
	f, err = os.Open(dataPath)
	if err != nil {
		return err
	}
	defer f.Close()
	full, err := dataset.ReadJSON(f, g)
	if err != nil {
		return err
	}

	// Train/test split per scenario window.
	train := &dataset.Data{G: g, Outages: map[grid.Line]*dataset.Set{}}
	test := &dataset.Data{G: g, Outages: map[grid.Line]*dataset.Set{}}
	train.Normal, test.Normal = full.Normal.Split(trainFrac, seed)
	for _, e := range full.ValidLines {
		tr, te := full.Outages[e].Split(trainFrac, seed+int64(e))
		if tr.T() == 0 || te.T() == 0 {
			continue
		}
		train.Outages[e] = tr
		test.Outages[e] = te
		train.ValidLines = append(train.ValidLines, e)
		test.ValidLines = append(test.ValidLines, e)
	}
	if len(train.ValidLines) == 0 {
		return fmt.Errorf("no outage cases survive the split; increase -steps in outagegen")
	}

	if clusters <= 0 {
		clusters = g.N() / 10
		if clusters < 3 {
			clusters = 3
		}
	}
	var det *detect.Detector
	if loadModel != "" {
		if det, err = readDetector(loadModel); err != nil {
			return err
		}
		if det.Grid().N() != g.N() {
			return fmt.Errorf("model %s has %d buses, dataset %s has %d", loadModel, det.Grid().N(), g.Name, g.N())
		}
	} else {
		nw, err := pmunet.Build(g, clusters)
		if err != nil {
			return err
		}
		if det, err = detect.TrainContext(context.TODO(), train, nw, detect.Config{}); err != nil {
			return err
		}
		if saveModel != "" {
			if err := writeDetector(det, saveModel); err != nil {
				return err
			}
			fmt.Printf("model    saved to %s\n", saveModel)
		}
	}
	nw := det.Network()

	rng := rand.New(rand.NewSource(seed + 13))
	maskFor := func(e grid.Line) pmunet.Mask {
		switch pattern {
		case "none":
			return nil
		case "outage":
			return nw.OutageLocationMask(e)
		case "random":
			a, b := g.Endpoints(e)
			return nw.RandomMask(k, []int{a, b}, rng)
		case "cluster":
			a, _ := g.Endpoints(e)
			return nw.ClusterMask(nw.ClusterOf(a))
		default:
			return nil
		}
	}
	if pattern != "none" && pattern != "outage" && pattern != "random" && pattern != "cluster" {
		return fmt.Errorf("unknown pattern %q", pattern)
	}

	var total metrics.Accumulator
	for _, e := range test.ValidLines {
		var acc metrics.Accumulator
		truth := []grid.Line{e}
		for _, s := range test.Outages[e].Samples {
			if m := maskFor(e); m != nil {
				s = s.WithMask(m)
			}
			r, err := det.Detect(s)
			if err != nil {
				return err
			}
			acc.Add(truth, r.Lines)
			total.Add(truth, r.Lines)
		}
		if verbose {
			a, b := g.Endpoints(e)
			fmt.Printf("line %3d (%3d-%-3d): %s\n", e, g.Buses[a].ID, g.Buses[b].ID, acc.String())
		}
	}
	// Normal samples: false-alarm behaviour.
	var normal metrics.Accumulator
	for _, s := range test.Normal.Samples {
		r, err := det.Detect(s)
		if err != nil {
			return err
		}
		normal.Add(nil, r.Lines)
	}

	fmt.Printf("system   %s  (pattern=%s, %d test cases)\n", g.Name, pattern, len(test.ValidLines))
	fmt.Printf("outages  %s\n", total.String())
	fmt.Printf("normal   %s\n", normal.String())
	return nil
}

// writeDetector snapshots the trained detector into the versioned,
// fingerprinted artifact format.
func writeDetector(det *detect.Detector, path string) error {
	m, err := det.Snapshot()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Encode(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// readDetector rebuilds a detector from a saved artifact, verifying
// version, fingerprint, and structure.
func readDetector(path string) (*detect.Detector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := detect.DecodeModel(f)
	if err != nil {
		return nil, err
	}
	return detect.FromModel(m)
}
