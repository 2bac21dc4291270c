//go:build gate

package pmuoutage_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"syscall"
	"testing"
	"time"

	"pmuoutage"
	"pmuoutage/api"
	"pmuoutage/internal/httpserve"
	"pmuoutage/internal/mat"
	"pmuoutage/internal/obs"
	"pmuoutage/internal/service"
	"pmuoutage/internal/subspace"
	"pmuoutage/internal/wire"
)

// gatePairs is the number of interleaved pairs timed per row.
const gatePairs = 31

// gateRow is one row of the ratio gate: path a against path b, each
// timed over reps runs.
type gateRow struct {
	name  string
	bound float64
	reps  int
	a, b  func()
	// cpu times both paths in process CPU time, not wall time, for a
	// row whose cost can land on another core.
	cpu bool
}

// TestGate is the ratio gate (make gate): in one process it times
// gatePairs interleaved pairs of each row, a then b, and fails when
// the median per-pair ratio of their times passes the row's bound. A
// ratio of two paths timed side by side holds across machines where
// nanoseconds do not. Each bound is about 1.5× the ratio measured when
// its row landed (CHANGES.md), or a bound an earlier gate held; a
// bound is never raised. The rows:
//
//   - the lane kernels against their one-problem paths (internal/mat);
//   - the scoring lanes against one scalar norm chain per member
//     (internal/subspace);
//   - binary wire frames against JSON bodies, decoding the same ieee30
//     samples;
//   - binary /v1/ingest of those samples with a tracer that keeps
//     every trace against the same without a tracer;
//   - ieee118 Detect with a bus dark against the same sample complete,
//     on an outage sample and on a normal one;
//   - an ieee118 DetectBatchContext of one replay-sized batch against
//     the same samples scored one call at a time, in CPU time.
func TestGate(t *testing.T) {
	rows := laneRows(t)
	rows = append(rows, scoringRows(t)...)
	rows = append(rows, servingRows(t)...)
	sys, err := pmuoutage.NewSystem(pmuoutage.Options{Case: "ieee118", TrainSteps: 20, Seed: 1, UseDC: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows = append(rows, darkBusRows(t, sys)...)
	rows = append(rows, batchRows(t, sys)...)
	for _, r := range rows {
		r.a()
		r.b()
		clock := wallTime
		if r.cpu {
			clock = cpuTime
		}
		ratios := make([]float64, gatePairs)
		as, bs := make([]time.Duration, gatePairs), make([]time.Duration, gatePairs)
		for i := range ratios {
			as[i] = timeReps(r.a, r.reps, clock)
			bs[i] = timeReps(r.b, r.reps, clock)
			ratios[i] = as[i].Seconds() / bs[i].Seconds()
		}
		slices.Sort(ratios)
		slices.Sort(as)
		slices.Sort(bs)
		med := ratios[gatePairs/2]
		t.Logf("%s: median ratio %.3f (quartiles %.3f–%.3f over %d pairs; median times %v and %v for %d runs), bound %g",
			r.name, med, ratios[gatePairs/4], ratios[3*gatePairs/4], gatePairs, as[gatePairs/2], bs[gatePairs/2], r.reps, r.bound)
		if med > r.bound {
			t.Errorf("%s: median ratio %.3f passes its bound %g", r.name, med, r.bound)
		}
	}
}

// timeReps returns the time clock reads across reps runs of fn.
func timeReps(fn func(), reps int, clock func() time.Duration) time.Duration {
	start := clock()
	for i := 0; i < reps; i++ {
		fn()
	}
	return clock() - start
}

// gateStart anchors wallTime's monotonic readings.
var gateStart = time.Now()

// wallTime is the wall time since gateStart.
func wallTime() time.Duration { return time.Since(gateStart) }

// cpuTime is the CPU time the process has used so far, user and system,
// on every thread.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// laneRows are the lane kernels against their one-problem paths: the
// four-lane SVD on four 118×40 matrices (one ieee118 line matrix's
// shape) and the eight-lane solve of one training's 40 steps on B′ of
// a 118-bus grid.
func laneRows(t *testing.T) []gateRow {
	rng := rand.New(rand.NewSource(1))
	var quad [4]*mat.Dense
	for l := range quad {
		quad[l] = gaussDense(rng, 118, 40)
	}
	const n, steps = 117, 40
	f, err := mat.FactorLU(gaussDense(rng, n, n))
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, steps*n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	dst := make([]float64, len(rhs))
	return []gateRow{
		{
			name: "LeadingQuad / four FactorSVD calls, 118×40", bound: 0.42, reps: 1,
			a: func() { mat.LeadingQuad(quad, 1) },
			b: func() {
				for _, x := range quad {
					mat.FactorSVD(x).Leading(1)
				}
			},
		},
		{
			name: "LU.SolveMany / 40 LU.Solve calls, order 117", bound: 0.45, reps: 8,
			a: func() {
				if err := f.SolveMany(dst, rhs); err != nil {
					t.Fatal(err)
				}
			},
			b: func() {
				for j := 0; j < steps; j++ {
					if _, err := f.Solve(rhs[j*n : (j+1)*n]); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
	}
}

// scoringRows are the scoring lanes against a path that stays scalar:
// one Packed.EnergiesTo over a pack sized like an ieee118 cluster plan
// (52 rank-one members and the zero subspace on 28 of 118 rows)
// against one mat.Norm2 over the same 28 rows per rank-one member, the
// norm steps each member's energy takes, without forming a residual.
func scoringRows(t *testing.T) []gateRow {
	const d, rows, ones = 118, 28, 52
	rng := rand.New(rand.NewSource(2))
	subs := make([]*subspace.Subspace, ones, ones+1)
	for k := range subs {
		subs[k] = subspace.FromBasis(mat.Orthonormalize(gaussDense(rng, d, 1)))
	}
	subs = append(subs, subspace.Zero(d))
	p, err := subspace.Pack(rng.Perm(d)[:rows], subs...)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, rows)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	n := mat.Norm2(x)
	dst, scratch := make([]float64, p.Len()), make([]float64, p.ScratchLen())
	return []gateRow{{
		name: "Packed.EnergiesTo / 52 mat.Norm2 calls, 28 rows", bound: 0.70, reps: 64,
		a: func() {
			if err := p.EnergiesTo(dst, scratch, x, n*n); err != nil {
				t.Fatal(err)
			}
		},
		b: func() {
			for k := range ones {
				dst[k] = mat.Norm2(x)
			}
		},
	}}
}

// gaussDense is an r×c matrix of standard normal draws.
func gaussDense(rng *rand.Rand, r, c int) *mat.Dense {
	m := mat.NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

// servingRows are the ingest transports and the tracer's cost, on
// ieee30 (serve-30's grid, DC, 20 steps, seed 1): 8 normal samples and
// one sample of each of 8 single-line outages. The mix must hold both
// samples the detector flags and samples it passes, so that the traced
// row times both the energy gate and the full scoring path.
func servingRows(t *testing.T) []gateRow {
	const shard = "gate"
	m, err := pmuoutage.TrainModel(pmuoutage.Options{Case: "ieee30", TrainSteps: 20, Seed: 1, UseDC: true})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := pmuoutage.NewSystemFromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := sys.SimulateOutage(nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	valid := sys.ValidLines()
	for i := 0; i < 8; i++ {
		s, err := sys.SimulateOutage([]int{valid[i*len(valid)/8]}, 1)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, s[0])
	}
	flagged := 0
	for _, s := range samples {
		r, err := sys.Detect(s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Outage {
			flagged++
		}
	}
	if flagged == 0 || flagged == len(samples) {
		t.Fatalf("ieee30 mix: %d of %d samples flagged, want both flagged and quiet samples", flagged, len(samples))
	}
	t.Logf("ieee30 mix: %d of %d samples flagged", flagged, len(samples))

	frames := make([][]byte, len(samples))
	bodies := make([][]byte, len(samples))
	frame := new(wire.Frame)
	for i, s := range samples {
		if err := frame.Pack(uint32(i), s.Vm, s.Va, nil); err != nil {
			t.Fatal(err)
		}
		if frames[i], err = wire.AppendFrame(nil, frame); err != nil {
			t.Fatal(err)
		}
		if bodies[i], err = json.Marshal(api.IngestRequest{Shard: shard, Sample: s}); err != nil {
			t.Fatal(err)
		}
	}

	tracer := obs.NewTracer(obs.TracerConfig{Capacity: 256, SampleEvery: 1})
	t.Cleanup(func() {
		if kept := tracer.KeptCounter().Load(); kept == 0 {
			t.Error("traced ingest: the tracer kept no trace")
		} else {
			t.Logf("traced ingest: the tracer kept %d traces", kept)
		}
	})
	traced, untraced := ingestHandler(t, shard, m, tracer), ingestHandler(t, shard, m, nil)
	ingest := func(h http.Handler) {
		for _, enc := range frames {
			req := httptest.NewRequest(http.MethodPost, "/v1/ingest?shard="+shard, bytes.NewReader(enc))
			req.Header.Set("Content-Type", api.FrameContentType)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("binary ingest: status %d: %s", rec.Code, rec.Body.String())
			}
		}
	}
	return []gateRow{
		{
			name: "binary frame / JSON body decode, ieee30 mix", bound: 0.03, reps: 16,
			a: func() {
				for _, enc := range frames {
					if _, err := wire.DecodeFrame(enc, frame); err != nil {
						t.Fatal(err)
					}
				}
			},
			b: func() {
				for _, body := range bodies {
					var req api.IngestRequest
					if err := json.Unmarshal(body, &req); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
		{
			name: "traced / untraced binary /v1/ingest, ieee30 mix", bound: 1.5, reps: 16,
			a: func() { ingest(traced) },
			b: func() { ingest(untraced) },
		},
	}
}

// ingestHandler serves m as one shard of a live service, traced by tr
// when it is not nil, behind the daemon's routes.
func ingestHandler(t *testing.T, shard string, m *pmuoutage.Model, tr *obs.Tracer) http.Handler {
	svc, err := service.New(context.Background(), service.Config{
		Shards:         []service.ShardSpec{{Name: shard, Model: m}},
		RestartBackoff: time.Millisecond,
		Tracer:         tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	for deadline := time.Now().Add(time.Minute); !svc.Ready(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("shard never became ready")
		}
	}
	return httpserve.New(svc, 30*time.Second, nil).Routes()
}

// darkBusRows are the detector with one bus dark against the same
// sample complete, on sys (ieee118, DC, 20 steps, seed 1) through the
// facade, with BenchmarkDetectSingleSample's picks: the first valid
// line's outage sample that the energy gate flags, dark at the line's
// from-bus (the Fig. 7 case), and the first normal sample it passes,
// dark at each bus in turn. Each dark pattern's cluster plans and gate
// restriction are built once and reused, so a repeated pattern costs
// about what a complete sample does.
func darkBusRows(t *testing.T, sys *pmuoutage.System) []gateRow {
	flagged := func(s pmuoutage.Sample) bool {
		r, err := sys.Detect(s)
		if err != nil {
			t.Fatal(err)
		}
		return r.Outage
	}
	var outage, masked, normal pmuoutage.Sample
	lines := sys.Lines()
	for _, e := range sys.ValidLines() {
		s, err := sys.SimulateOutage([]int{e}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if flagged(s[0]) {
			outage, masked = s[0], s[0].WithMissing(lines[e].FromBus-1)
			break
		}
	}
	normals, err := sys.SimulateOutage(nil, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range normals {
		if !flagged(s) {
			normal = s
			break
		}
	}
	if outage.Vm == nil || normal.Vm == nil {
		t.Fatal("ieee118: no flagged outage sample or no quiet normal sample")
	}
	maskedNormal := make([]pmuoutage.Sample, sys.Buses())
	for bus := range maskedNormal {
		maskedNormal[bus] = normal.WithMissing(bus)
	}
	detect := func(s pmuoutage.Sample) {
		if _, err := sys.Detect(s); err != nil {
			t.Fatal(err)
		}
	}
	return []gateRow{
		{
			name: "masked / complete ieee118 outage Detect", bound: 1.5, reps: 32,
			a: func() { detect(masked) },
			b: func() { detect(outage) },
		},
		{
			name: "masked-normal / normal ieee118 Detect, each bus dark", bound: 2.2, reps: 1,
			a: func() {
				for _, s := range maskedNormal {
					detect(s)
				}
			},
			b: func() {
				for range maskedNormal {
					detect(normal)
				}
			},
		},
	}
}

// batchRows are one replay-118-sized batch on sys (ieee118, Workers 2)
// through DetectBatchContext against the same samples scored by one
// DetectContext call each: 4 samples of the first valid line's outage
// and the first 4 normal samples the detector passes, so that, as in
// most replay-118 batches, the normal samples stop at the energy gate.
// Both paths are timed in process CPU time. Such a call ends before
// internal/par starts a helper, so it costs what the loop does; a pool
// that hands its items to other goroutines spends the handoffs and
// wake-ups on the other core, where wall time does not see them.
func batchRows(t *testing.T, sys *pmuoutage.System) []gateRow {
	ctx := context.Background()
	batch, err := sys.SimulateOutage(sys.ValidLines()[:1], 4)
	if err != nil {
		t.Fatal(err)
	}
	normals, err := sys.SimulateOutage(nil, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range normals {
		r, err := sys.DetectContext(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Outage && len(batch) < 8 {
			batch = append(batch, s)
		}
	}
	reports, err := sys.DetectBatchContext(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	flagged := 0
	for _, r := range reports {
		if r.Outage {
			flagged++
		}
	}
	if len(batch) != 8 || flagged == 0 {
		t.Fatalf("ieee118 batch: %d of %d samples flagged, want 8 samples, some flagged", flagged, len(batch))
	}
	t.Logf("ieee118 batch: %d of %d samples flagged", flagged, len(batch))
	return []gateRow{{
		name: "DetectBatchContext / 8 DetectContext calls, ieee118, CPU time", bound: 1.25, reps: 128, cpu: true,
		a: func() {
			if _, err := sys.DetectBatchContext(ctx, batch); err != nil {
				t.Fatal(err)
			}
		},
		b: func() {
			for _, s := range batch {
				if _, err := sys.DetectContext(ctx, s); err != nil {
					t.Fatal(err)
				}
			}
		},
	}}
}
