// Command pmustream runs the whole online story end to end on one
// machine: a simulated PMU fleet streams phasor frames over real TCP
// connections to per-cluster PDCs, the PDCs relay aggregates to the
// control-center collector, and a stream monitor watches the assembled
// samples for outages. Midway through the run a line outage occurs and
// (optionally) kills the PMUs at its endpoints; the monitor should
// still confirm and localise the event.
//
// Usage:
//
//	pmustream [-case ieee14] [-line N] [-steps 30] [-outage-at 10] [-kill-pmus] [-loss 0.02]
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"pmuoutage/internal/cases"
	"pmuoutage/internal/comm"
	"pmuoutage/internal/dataset"
	"pmuoutage/internal/detect"
	"pmuoutage/internal/grid"
	"pmuoutage/internal/obs"
	"pmuoutage/internal/pmunet"
	"pmuoutage/internal/stream"
)

func main() {
	caseName := flag.String("case", "ieee14", "test system")
	lineIdx := flag.Int("line", -1, "line to outage (-1 = first valid line)")
	steps := flag.Int("steps", 30, "total stream length in samples")
	outageAt := flag.Int("outage-at", 10, "sample index at which the outage occurs")
	killPMUs := flag.Bool("kill-pmus", true, "outage also takes down the endpoint PMUs")
	loss := flag.Float64("loss", 0.02, "per-frame PMU link loss probability")
	seed := flag.Int64("seed", 1, "random seed")
	logLevel := flag.String("log-level", "warn", "network-event log verbosity (debug logs every incomplete assembly)")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmustream:", err)
		os.Exit(1)
	}
	if err := run(*caseName, *lineIdx, *steps, *outageAt, *killPMUs, *loss, *seed, level); err != nil {
		fmt.Fprintln(os.Stderr, "pmustream:", err)
		os.Exit(1)
	}
}

func run(caseName string, lineIdx, steps, outageAt int, killPMUs bool, loss float64, seed int64, level slog.Level) error {
	g, err := cases.Load(caseName)
	if err != nil {
		return err
	}
	if lineIdx >= g.E() {
		return fmt.Errorf("-line %d out of range: %s has %d lines", lineIdx, g.Name, g.E())
	}
	nclusters := g.N() / 10
	if nclusters < 3 {
		nclusters = 3
	}
	nw, err := pmunet.Build(g, nclusters)
	if err != nil {
		return err
	}

	fmt.Printf("training detector on %s...\n", g.Name)
	train, err := dataset.Generate(g, dataset.GenConfig{Steps: 40, Seed: seed})
	if err != nil {
		return err
	}
	det, err := detect.Train(train, nw, detect.Config{})
	if err != nil {
		return err
	}
	if lineIdx < 0 {
		lineIdx = int(det.ValidLines()[0])
	}
	target := grid.Line(lineIdx)
	a, b := g.Endpoints(target)

	// Pre-generate the truth streams (normal, then post-outage).
	normal, err := dataset.GenerateScenario(g, nil, dataset.GenConfig{Steps: steps, Seed: seed + 5})
	if err != nil {
		return err
	}
	outage, err := dataset.GenerateScenario(g, dataset.Scenario{target}, dataset.GenConfig{Steps: steps, Seed: seed + 6})
	if err != nil {
		return err
	}

	// Stand up the measurement network on loopback.
	col, err := comm.NewCollector(g.N(), "127.0.0.1:0", 60*time.Millisecond)
	if err != nil {
		return err
	}
	defer col.Close()
	col.SetLogger(obs.NewTextLogger(os.Stderr, level))
	pmus := make([]*comm.PMU, g.N())
	var pdcs []*comm.PDC
	for ci, members := range nw.Clusters {
		pdc, err := comm.NewPDC(ci, "127.0.0.1:0", col.Addr(), 15*time.Millisecond)
		if err != nil {
			return err
		}
		pdcs = append(pdcs, pdc)
		for _, bus := range members {
			pmu, err := comm.NewPMU(bus, pdc.Addr(), loss, seed+int64(bus))
			if err != nil {
				return err
			}
			pmus[bus] = pmu
		}
	}
	defer func() {
		// Best-effort teardown: the demo is over, sockets may already be
		// closed by the publisher goroutine (Close is idempotent).
		for _, p := range pmus {
			_ = p.Close()
		}
		for _, p := range pdcs {
			_ = p.Close()
		}
	}()
	fmt.Printf("network up: %d PMUs, %d PDCs, collector at %s\n", g.N(), len(pdcs), col.Addr())
	fmt.Printf("outage of line %d (bus %d - bus %d) at sample %d, kill-pmus=%v\n\n",
		lineIdx, g.Buses[a].ID, g.Buses[b].ID, outageAt, killPMUs)

	mon, err := stream.NewMonitor(det, stream.Config{Confirm: 3, Cooldown: 20})
	if err != nil {
		return err
	}

	// Publisher: send each time step through the TCP fabric.
	go func() {
		for t := 0; t < steps; t++ {
			src := normal.Samples[t]
			if t >= outageAt {
				src = outage.Samples[t]
			}
			if t == outageAt && killPMUs {
				pmus[a].SetDown(true)
				pmus[b].SetDown(true)
			}
			for bus, pmu := range pmus {
				// Dead PMUs drop internally; errors mean torn sockets.
				_ = pmu.Send(t, src.Vm[bus], src.Va[bus])
			}
			time.Sleep(25 * time.Millisecond)
		}
		// Give the fabric a moment to drain, then flush.
		time.Sleep(150 * time.Millisecond)
		for _, p := range pdcs {
			_ = p.Close() // flushes; write errors just mean the demo is done
		}
		col.Flush()
		_ = col.Close() // closes the Samples channel, ending the consumer loop
	}()

	// Consumer: feed assembled samples to the monitor.
	got := 0
	for asm := range col.Samples() {
		got++
		ev, err := mon.Ingest(asm.Sample)
		if err != nil {
			return err
		}
		status := "normal"
		if asm.Sample.Mask != nil && asm.Sample.Mask.AnyMissing() {
			status = fmt.Sprintf("missing %d PMUs", asm.Sample.Mask.MissingCount())
		}
		if ev != nil {
			fmt.Printf("sample %3d [%s]: *** OUTAGE CONFIRMED (latency %d samples) lines=%v\n",
				asm.Seq, status, ev.Latency(), describe(g, ev.Lines))
		} else if asm.Seq%5 == 0 {
			fmt.Printf("sample %3d [%s]: ok\n", asm.Seq, status)
		}
	}
	st := col.Stats()
	fmt.Printf("\nstream finished: %d samples assembled and scored\n", got)
	fmt.Printf("collector: emitted=%d incomplete=%d dropped=%d evicted=%d\n",
		st.Emitted, st.Incomplete, st.DroppedFull, st.Evicted)
	return nil
}

func describe(g *grid.Grid, lines []grid.Line) []string {
	out := make([]string, len(lines))
	for i, e := range lines {
		a, b := g.Endpoints(e)
		out[i] = fmt.Sprintf("%d(%d-%d)", e, g.Buses[a].ID, g.Buses[b].ID)
	}
	return out
}
