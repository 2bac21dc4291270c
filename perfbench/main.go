// Command perfbench is the repository's benchmark. It runs one named
// workload against the real detector, service, HTTP and router code in
// this process, checks every output for correctness, and prints its
// metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run also times every layer from outside and reports the per-layer
// ones. See README.md for the metric table and the workloads.
//
//	go run . --workload serve-30 --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// e2eMetrics are reported by every workload with --trace 0.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
	{"throughput_per_cpu_s", "1/s"},
	{"p50_ms", "ms"},
	{"accuracy", "ratio"},
	{"alarm_precision", "ratio"},
	{"delay_samples", "samples"},
}

// layerMetrics are reported by every workload with --trace 1.
var layerMetrics = []metricDef{
	{"pmuoutage.train_s", "s"},
	{"pmuoutage.boot_ms", "ms"},
	{"dataset.generate_s", "s"},
	{"powerflow.dc_ms", "ms"},
	{"powerflow.ac_ms", "ms"},
	{"detect.train_s", "s"},
	{"detect.gate_us", "us"},
	{"detect.score_us", "us"},
	{"detect.outage_share", "ratio"},
	{"par.speedup", "ratio"},
	{"stream.ingest_us", "us"},
	{"wire.decode_ns", "ns"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_allocs", "allocs"},
	{"wire.encode_allocs", "allocs"},
	{"service.queue_ms", "ms"},
	{"service.coalesce_ms", "ms"},
	{"service.detect_ms", "ms"},
	{"service.encode_ms", "ms"},
	{"service.batch_samples", "count"},
	{"service.shed", "count"},
	{"httpserve.handler_ms", "ms"},
	{"httpserve.self_ms", "ms"},
	{"router.handler_ms", "ms"},
	{"router.self_ms", "ms"},
	{"router.reload_ms", "ms"},
	{"router.failovers", "count"},
	{"client.rtt_ms", "ms"},
	{"client.self_ms", "ms"},
	{"trace.overhead", "ratio"},
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	out     io.Writer // human-readable report lines
	tmp     string    // scratch directory inside the checkout
}

func (c config) duration(frac float64) time.Duration {
	return time.Duration(c.seconds * frac * float64(time.Second))
}

// say prints one human-readable report line.
func (c config) say(format string, args ...any) {
	fmt.Fprintf(c.out, format+"\n", args...)
}

// outcome is what a workload run produces.
type outcome struct {
	attempted, failed int64
	problems          []string
	e2e               map[string]float64
	layers            map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// problem records a correctness or realism-guard failure; any problem
// makes the run incorrect and the exit code non-zero.
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its run function.
var workloads = map[string]func(context.Context, config) (*outcome, error){
	"replay-118": runReplay,
	"serve-30":   runServe,
	"ingest-30":  runIngest,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 times every layer from outside and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn := workloads[*name]
	if fn == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(2)
	tmp, err := os.MkdirTemp(".", ".perfbench-tmp-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer func() { _ = os.RemoveAll(tmp) }()

	w := bufio.NewWriter(stdout)
	defer func() { _ = w.Flush() }()
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, out: w, tmp: tmp}
	cfg.say("perfbench: workload %s, seed %d, %gs, trace %d, GOMAXPROCS %d", *name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	o, err := fn(ctx, cfg)
	if err != nil {
		_ = w.Flush()
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	return emit(cfg, o, stderr)
}

// emit prints the metrics and the final JSON line, and returns the exit
// code: 0 only for a correct run with every metric present.
func emit(cfg config, o *outcome, stderr io.Writer) int {
	defs, vals := e2eMetrics, o.e2e
	if cfg.trace {
		defs, vals = layerMetrics, o.layers
	}
	res := struct {
		Correct   bool                     `json:"correct"`
		Attempted int64                    `json:"attempted"`
		Failed    int64                    `json:"failed"`
		Metrics   map[string]reportedValue `json:"metrics"`
	}{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]reportedValue{}}
	cfg.say("attempted %d, failed %d", o.attempted, o.failed)
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			o.problem("metric %s was not measured", d.name)
			continue
		}
		res.Metrics[d.name] = reportedValue{Value: v, Unit: d.unit}
		cfg.say("  %-22s %14.6g %s", d.name, v, d.unit)
	}
	for i, p := range o.problems {
		if i == maxProblems {
			p = fmt.Sprintf("... and %d more", len(o.problems)-maxProblems)
		}
		cfg.say("FAIL: %s", p)
		fmt.Fprintf(stderr, "perfbench: %s\n", p)
		if i == maxProblems {
			break
		}
	}
	res.Correct = len(o.problems) == 0 && o.failed == 0
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	cfg.say("%s", b)
	if !res.Correct {
		return 1
	}
	return 0
}

// maxProblems caps the problems printed; a systematic mismatch would
// otherwise print one line per request.
const maxProblems = 20

// reportedValue is one metric in the final JSON line.
type reportedValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// rssSampler tracks the peak resident set size of the process while a
// workload's measured phase runs, sampling it every 10 ms.
type rssSampler struct {
	stop chan struct{}
	peak chan float64
}

// startRSS collects garbage left by set-up, returns freed memory to the
// OS and starts sampling.
func startRSS() *rssSampler {
	runtime.GC()
	debug.FreeOSMemory()
	r := &rssSampler{stop: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		peak := rssMB()
		for {
			select {
			case <-r.stop:
				r.peak <- max(peak, rssMB())
				return
			case <-t.C:
				peak = max(peak, rssMB())
			}
		}
	}()
	return r
}

// end stops sampling and returns the peak in MiB.
func (r *rssSampler) end() float64 {
	close(r.stop)
	return <-r.peak
}

// rssMB reads the current resident set size in MiB; where /proc is
// unavailable it falls back to the memory the Go runtime holds.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if f := strings.Fields(string(b)); err == nil && len(f) > 1 {
		if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
			return pages * float64(os.Getpagesize()) / (1 << 20)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// timeSetups runs setup n times and returns the median process CPU time
// of one set-up in seconds, with the last environment; every earlier one
// is closed. CPU time rather than wall time keeps the figure steady on a
// machine whose other tenants steal cycles; the median wall time is
// printed beside it.
func timeSetups[T any](cfg config, n int, setup func() (T, error), closeFn func(T)) (float64, T, error) {
	var cpu, wall []float64
	var env T
	for i := 0; i < n; i++ {
		if i > 0 {
			closeFn(env)
		}
		start, c0 := time.Now(), cpuTime()
		e, err := setup()
		if err != nil {
			var zero T
			return 0, zero, err
		}
		cpu = append(cpu, (cpuTime() - c0).Seconds())
		wall = append(wall, time.Since(start).Seconds())
		env = e
	}
	cfg.say("  setup               median of %d: %.4f CPU-s, %.4f s wall", n, median(cpu), median(wall))
	return median(cpu), env, nil
}
