package main

import (
	"context"
	"fmt"
	"math/rand"

	"pmuoutage"
	"pmuoutage/internal/cases"
	"pmuoutage/internal/grid"
)

// reliability is the system-wide PMU reliability (Eqs. 13-15) every
// workload draws its missing-data masks at.
const reliability = 0.9

// options are the training options of a workload's system. Training
// does not depend on the benchmark seed: every run serves the same
// model, and the seed varies only the inputs.
func options(caseName string) pmuoutage.Options {
	return pmuoutage.Options{Case: caseName, UseDC: true, Workers: 2}
}

// replayDraws is how many samples of each outage the replay set picks
// its samples from.
const replayDraws = 8

// labelled is one generated input with its ground truth: Line is the
// outaged line index, or -1 for normal operation.
type labelled struct {
	Sample pmuoutage.Sample `json:"sample"`
	Line   int              `json:"line"`
}

func (l labelled) normal() bool { return l.Line < 0 }

// inputGen draws a workload's inputs from a trained system. Masks come
// from System.DrawMissing, each with its own seed derived from the
// workload seed and a running counter.
type inputGen struct {
	sys   *pmuoutage.System
	seed  int64
	masks int64
	rng   *rand.Rand
}

func newInputGen(sys *pmuoutage.System, seed int64) *inputGen {
	return &inputGen{sys: sys, seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// masked returns sample with a reliability-model mask drawn for it.
func (g *inputGen) masked(s pmuoutage.Sample) (pmuoutage.Sample, error) {
	g.masks++
	miss, err := g.sys.DrawMissing(reliability, g.seed*1_000_003+g.masks)
	if err != nil {
		return pmuoutage.Sample{}, err
	}
	return s.WithMissing(miss...), nil
}

// simulate returns n masked samples of the given outage (line < 0 for
// normal operation).
func (g *inputGen) simulate(ctx context.Context, line, n int) ([]labelled, error) {
	var lines []int
	if line >= 0 {
		lines = []int{line}
	}
	raw, err := g.sys.SimulateOutageContext(ctx, lines, n)
	if err != nil {
		return nil, fmt.Errorf("simulating line %d: %w", line, err)
	}
	out := make([]labelled, len(raw))
	for i, s := range raw {
		m, err := g.masked(s)
		if err != nil {
			return nil, err
		}
		out[i] = labelled{Sample: m, Line: line}
	}
	return out, nil
}

// outageSet returns perLine masked outage samples of every valid line.
func (g *inputGen) outageSet(ctx context.Context, perLine int) ([]labelled, error) {
	var out []labelled
	for _, l := range g.sys.ValidLines() {
		s, err := g.simulate(ctx, l, perLine)
		if err != nil {
			return nil, err
		}
		out = append(out, s...)
	}
	return out, nil
}

// pick returns n of the samples, chosen by the generator's seed.
func (g *inputGen) pick(in []labelled, n int) []labelled {
	out := make([]labelled, n)
	for i, k := range g.rng.Perm(len(in))[:n] {
		out[i] = in[k]
	}
	return out
}

// replaySet is the replay workload's fixed labelled set: perLine outage
// samples of every valid line plus as many normal samples, each drawn
// by the seed from replayDraws simulated ones, in a seed-shuffled order.
func replaySet(ctx context.Context, sys *pmuoutage.System, seed int64, perLine int) ([]labelled, error) {
	g := newInputGen(sys, seed)
	var out []labelled
	for _, l := range sys.ValidLines() {
		s, err := g.simulate(ctx, l, replayDraws)
		if err != nil {
			return nil, err
		}
		out = append(out, g.pick(s, perLine)...)
	}
	normal, err := g.simulate(ctx, -1, replayDraws*len(out))
	if err != nil {
		return nil, err
	}
	out = append(out, g.pick(normal, len(out))...)
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// replayBatches splits a replay set into batches of set indices, each
// with k outage samples followed by k normal ones, taken in set order.
// Samples left over when either kind runs out are not batched.
func replayBatches(set []labelled, k int) [][]int {
	var outage, normal []int
	for i, l := range set {
		if l.normal() {
			normal = append(normal, i)
		} else {
			outage = append(outage, i)
		}
	}
	var out [][]int
	for b := 0; (b+1)*k <= min(len(outage), len(normal)); b++ {
		batch := append([]int(nil), outage[b*k:(b+1)*k]...)
		out = append(out, append(batch, normal[b*k:(b+1)*k]...))
	}
	return out
}

// servePool is the serve workload's traffic: a pool of normal and
// outage samples, and the pool index each request sends, drawn so that
// outageShare of the requests carry an outage sample.
type servePool struct {
	Samples  []labelled `json:"samples"`
	Requests []int      `json:"requests"`
}

func newServePool(ctx context.Context, sys *pmuoutage.System, seed int64, normals, requests int, outageShare float64) (*servePool, error) {
	g := newInputGen(sys, seed)
	outage, err := g.outageSet(ctx, 1)
	if err != nil {
		return nil, err
	}
	normal, err := g.simulate(ctx, -1, normals)
	if err != nil {
		return nil, err
	}
	p := &servePool{Samples: append(normal, outage...), Requests: make([]int, requests)}
	for i := range p.Requests {
		if g.rng.Float64() < outageShare {
			p.Requests[i] = normals + g.rng.Intn(len(outage))
		} else {
			p.Requests[i] = g.rng.Intn(normals)
		}
	}
	return p, nil
}

// episode is one scripted outage in the ingest stream.
type episode struct {
	Onset  int  `json:"onset"` // script index of the first outage frame
	Length int  `json:"length"`
	Line   int  `json:"line"`
	Blind  bool `json:"blind"` // an endpoint bus of the line is also missing (Fig. 7)
}

// ingestScript is the ingest workload's frame stream: normal stretches
// with scripted outage episodes of known onset, line and length.
type ingestScript struct {
	Frames   []labelled `json:"frames"`
	Episodes []episode  `json:"episodes"`
}

// newIngestScript builds episodes outage episodes, each preceded by gap
// normal frames and lasting length frames; a trailing gap closes the
// script so that a monitor's state is clean when the stream loops. The
// episodes cycle through every valid line, in a seed-shuffled order per
// cycle, and every second one also drops one endpoint bus of the
// outaged line.
func newIngestScript(ctx context.Context, sys *pmuoutage.System, caseName string, seed int64, episodes, gap, length int) (*ingestScript, error) {
	grd, err := cases.Load(caseName)
	if err != nil {
		return nil, err
	}
	g := newInputGen(sys, seed)
	normal, err := g.simulate(ctx, -1, gap*(episodes+1))
	if err != nil {
		return nil, err
	}
	valid := sys.ValidLines()
	var order []int
	sc := &ingestScript{}
	for e := 0; e < episodes; e++ {
		if e%len(valid) == 0 {
			order = g.rng.Perm(len(valid))
		}
		sc.Frames = append(sc.Frames, normal[e*gap:(e+1)*gap]...)
		ep := episode{Onset: len(sc.Frames), Length: length, Line: valid[order[e%len(valid)]], Blind: e%2 == 1}
		out, err := g.simulate(ctx, ep.Line, length)
		if err != nil {
			return nil, err
		}
		if ep.Blind {
			a, b := grd.Endpoints(grid.Line(ep.Line))
			bus := a
			if g.rng.Intn(2) == 1 {
				bus = b
			}
			for i := range out {
				out[i].Sample = out[i].Sample.WithMissing(bus)
			}
		}
		sc.Frames = append(sc.Frames, out...)
		sc.Episodes = append(sc.Episodes, ep)
	}
	sc.Frames = append(sc.Frames, normal[episodes*gap:]...)
	return sc, nil
}
