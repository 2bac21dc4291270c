package pmuoutage

// Benchmarks mirror the paper's evaluation: one benchmark per figure of
// §V (see DESIGN.md for the index), plus ablation and substrate
// micro-benchmarks. Each figure benchmark runs the corresponding
// experiment harness and reports the measured identification accuracy
// and false-alarm rate as custom metrics (IA, FA), so
//
//	go test -bench=. -benchmem
//
// regenerates both the timings and the paper-shape numbers. The bench
// configuration uses the DC power-flow substrate and the two smaller
// systems to stay fast; cmd/experiments runs the full AC configuration
// over all four systems.

import (
	"context"
	"testing"

	"pmuoutage/internal/cases"
	"pmuoutage/internal/dataset"
	"pmuoutage/internal/detect"
	"pmuoutage/internal/experiments"
	"pmuoutage/internal/mat"
	"pmuoutage/internal/mlr"
	"pmuoutage/internal/pmunet"
	"pmuoutage/internal/powerflow"
)

func benchCfg(systems ...string) experiments.Config {
	if len(systems) == 0 {
		systems = []string{"ieee14", "ieee30"}
	}
	return experiments.Config{
		Systems:    systems,
		TrainSteps: 30,
		TestSteps:  8,
		Seed:       1,
		UseDC:      true,
	}
}

// reportRows attaches the aggregate IA/FA of the subspace method (and
// the MLR baseline when present) to the benchmark output.
func reportRows(b *testing.B, rows []experiments.Row) {
	b.Helper()
	var subIA, subFA, mlrIA, mlrFA float64
	var nSub, nMLR int
	for _, r := range rows {
		switch r.Method {
		case "mlr":
			mlrIA += r.IA
			mlrFA += r.FA
			nMLR++
		default:
			subIA += r.IA
			subFA += r.FA
			nSub++
		}
	}
	if nSub > 0 {
		b.ReportMetric(subIA/float64(nSub), "IA")
		b.ReportMetric(subFA/float64(nSub), "FA")
	}
	if nMLR > 0 {
		b.ReportMetric(mlrIA/float64(nMLR), "IA-mlr")
		b.ReportMetric(mlrFA/float64(nMLR), "FA-mlr")
	}
}

// BenchmarkFig4DetectionGroups regenerates Figure 4: IA/FA as the
// detection groups move from the naive PCA-orthogonal choice to the
// proposed capability-based formation.
func BenchmarkFig4DetectionGroups(b *testing.B) {
	var rows []experiments.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig4(context.Background(), benchCfg("ieee14"))
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, rows)
}

// BenchmarkFig5CompleteData regenerates Figure 5: the complete-data
// case, subspace vs MLR.
func BenchmarkFig5CompleteData(b *testing.B) {
	var rows []experiments.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig5(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, rows)
}

// BenchmarkFig7MissingOutageData regenerates Figure 7: data missing at
// the outage location.
func BenchmarkFig7MissingOutageData(b *testing.B) {
	var rows []experiments.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig7(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, rows)
}

// BenchmarkFig8RandomMissingNormal regenerates Figure 8: normal samples
// with random missing points — distinguishing data problems from
// physical failures.
func BenchmarkFig8RandomMissingNormal(b *testing.B) {
	var rows []experiments.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig8(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, rows)
}

// BenchmarkFig9RandomMissingOutage regenerates Figure 9: outage samples
// with missing data uncorrelated with the outage location.
func BenchmarkFig9RandomMissingOutage(b *testing.B) {
	var rows []experiments.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig9(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, rows)
}

// BenchmarkFig10Reliability regenerates Figure 10: effective FA under
// the Eq. (13)-(15) PMU-network reliability model.
func BenchmarkFig10Reliability(b *testing.B) {
	var rows []experiments.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig10(context.Background(), benchCfg("ieee14"))
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, rows)
}

// BenchmarkAblationProximity compares the projection-residual proximity
// against the literal Eq. (9) regressor, Eq. (11) scaling on/off, and
// the measurement channels (the DESIGN.md ablations).
func BenchmarkAblationProximity(b *testing.B) {
	var rows []experiments.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Ablation(context.Background(), benchCfg("ieee14"))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.Logf("%s", r.String())
	}
	reportRows(b, rows)
}

// --- parallel-pipeline benchmarks ---
//
// These two run the worker-pooled stages with Workers = 0 (GOMAXPROCS),
// so `go test -bench=Pipeline -cpu 1,4` measures the sequential baseline
// and the 4-way speedup of the same byte-identical computation.
// cmd/benchpipeline runs the identical workloads standalone and writes
// BENCH_pipeline.json for `make bench`.

// BenchmarkPipelineTrainIEEE30 measures the parallel training path —
// per-line SVDs, per-node subspaces, Eq. 5–7 capability tables — at the
// current GOMAXPROCS.
func BenchmarkPipelineTrainIEEE30(b *testing.B) {
	g := cases.IEEE30()
	d, err := dataset.GenerateContext(context.Background(), g, dataset.GenConfig{Steps: 20, Seed: 1, UseDC: true})
	if err != nil {
		b.Fatal(err)
	}
	nw, err := pmunet.Build(g, 3)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := detect.TrainContext(ctx, d, nw, detect.Config{Workers: 0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineFig10MonteCarlo measures the sharded Fig. 10 Monte
// Carlo reliability estimator at the current GOMAXPROCS.
func BenchmarkPipelineFig10MonteCarlo(b *testing.B) {
	g := cases.IEEE30()
	nw, err := pmunet.Build(g, 3)
	if err != nil {
		b.Fatal(err)
	}
	rel := pmunet.Reliability{RPMU: 0.97, RLink: 0.99}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nw.ReliabilityMonteCarlo(ctx, rel, 100000, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkTrainDetectorIEEE30 measures end-to-end training (data
// generation excluded) on the 30-bus system.
func BenchmarkTrainDetectorIEEE30(b *testing.B) {
	g := cases.IEEE30()
	d, err := dataset.GenerateContext(context.Background(), g, dataset.GenConfig{Steps: 20, Seed: 1, UseDC: true})
	if err != nil {
		b.Fatal(err)
	}
	nw, err := pmunet.Build(g, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := detect.TrainContext(context.Background(), d, nw, detect.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectSingleSample measures one online detection — the
// latency that matters for the paper's "timely detection" claim — per
// grid, on an outage sample (scored by Eq. 9–11 and decoded), on the
// same sample with the outaged line's from-bus dark (the Fig. 7 case:
// every detection group holding that bus takes that bus's plan slot), on
// a normal one (answered at the energy gate), and on that normal sample
// with each bus dark in turn (the gate takes each bus's slot of S⁰
// restricted to the others). Each grid trains once per process, with
// the facade's PDC cluster count, so -count repeats only the timed loop.
func BenchmarkDetectSingleSample(b *testing.B) {
	for _, name := range []string{"ieee14", "ieee30", "ieee118"} {
		f := loadDetectFixture(b, name)
		for _, tc := range []struct {
			name    string
			samples []dataset.Sample
		}{
			{"outage", []dataset.Sample{f.outage}},
			{"masked", []dataset.Sample{f.masked}},
			{"normal", []dataset.Sample{f.normal}},
			{"masked-normal", f.maskedNormal},
		} {
			b.Run(name+"/"+tc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := f.det.Detect(tc.samples[i%len(tc.samples)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// detectFixture is a trained detector with one sample that trips its
// energy gate, that sample with its outaged line's from-bus dark, one
// sample that does not trip the gate, and that sample once with each
// bus dark.
type detectFixture struct {
	det                    *detect.Detector
	outage, masked, normal dataset.Sample
	maskedNormal           []dataset.Sample
}

// detectFixtures caches BenchmarkDetectSingleSample's fixtures by grid.
var detectFixtures = map[string]detectFixture{}

// loadDetectFixture trains a detector on the named grid (DC, 20 steps,
// seed 1, max(3, N/10) clusters) and picks the first valid line's first
// outage sample that trips the energy gate, that sample with the line's
// from-bus dark, and the first normal sample that does not trip it, with
// and without each bus dark.
func loadDetectFixture(b *testing.B, name string) detectFixture {
	b.Helper()
	if f, ok := detectFixtures[name]; ok {
		return f
	}
	g, err := cases.Load(name)
	if err != nil {
		b.Fatal(err)
	}
	d, err := dataset.GenerateContext(context.Background(), g, dataset.GenConfig{Steps: 20, Seed: 1, UseDC: true})
	if err != nil {
		b.Fatal(err)
	}
	nw, err := pmunet.Build(g, max(3, g.N()/10))
	if err != nil {
		b.Fatal(err)
	}
	det, err := detect.TrainContext(context.Background(), d, nw, detect.Config{})
	if err != nil {
		b.Fatal(err)
	}
	gated := func(s dataset.Sample) bool {
		r, err := det.Detect(s)
		if err != nil {
			b.Fatal(err)
		}
		return r.Outage
	}
	f, found := detectFixture{det: det}, 0
	for _, e := range d.ValidLines {
		if s := d.Outages[e].Samples[0]; gated(s) {
			from, _ := g.Endpoints(e)
			dark := pmunet.NoneMissing(g.N())
			dark[from] = true
			f.outage, f.masked, found = s, s.WithMask(dark), found+1
			break
		}
	}
	for _, s := range d.Normal.Samples {
		if !gated(s) {
			f.normal, found = s, found+1
			break
		}
	}
	if found != 2 {
		b.Fatalf("%s: no gate-tripping outage sample or no quiet normal sample", name)
	}
	for bus := 0; bus < g.N(); bus++ {
		dark := pmunet.NoneMissing(g.N())
		dark[bus] = true
		f.maskedNormal = append(f.maskedNormal, f.normal.WithMask(dark))
	}
	detectFixtures[name] = f
	return f
}

// BenchmarkMLRTrainIEEE14 measures baseline training.
func BenchmarkMLRTrainIEEE14(b *testing.B) {
	g := cases.IEEE14()
	d, err := dataset.GenerateContext(context.Background(), g, dataset.GenConfig{Steps: 20, Seed: 1, UseDC: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mlr.Train(d, mlr.Config{Epochs: 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkACPowerFlowIEEE118 measures one cold Newton-Raphson solve of
// the largest system — the inner loop of data generation.
func BenchmarkACPowerFlowIEEE118(b *testing.B) {
	g := cases.IEEE118()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := powerflow.SolveAC(g, powerflow.Options{FlatStart: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatasetGenerateIEEE14AC measures the full AC data-generation
// pipeline for the smallest system.
func BenchmarkDatasetGenerateIEEE14AC(b *testing.B) {
	g := cases.IEEE14()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.GenerateContext(context.Background(), g, dataset.GenConfig{Steps: 10, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVDPhasorMatrix measures the SVD at the shape used by
// subspace learning on the largest system (118 features x 40 samples).
func BenchmarkSVDPhasorMatrix(b *testing.B) {
	x := mat.NewDense(118, 40)
	for i := 0; i < 118; i++ {
		for j := 0; j < 40; j++ {
			x.Set(i, j, float64((i*37+j*11)%100)/100)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.FactorSVD(x)
	}
}

// BenchmarkExtensionRecovery runs the recover-then-classify extension
// study: plain MLR vs MLR with [8]-style subspace imputation vs the
// recovery-free subspace method on the Fig. 7 scenario.
func BenchmarkExtensionRecovery(b *testing.B) {
	var rows []experiments.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Recovery(context.Background(), benchCfg("ieee14"))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.Logf("%s", r.String())
	}
	reportRows(b, rows)
}

// BenchmarkExtensionMultiOutage runs the severe-event extension: two
// lines of one node out simultaneously, with and without that node's
// PMU.
func BenchmarkExtensionMultiOutage(b *testing.B) {
	var rows []experiments.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.MultiOutage(context.Background(), benchCfg("ieee14"))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.Logf("%s", r.String())
	}
	reportRows(b, rows)
}
