// Command outaged serves power-line outage detection over HTTP.
//
// It fronts internal/service: a sharded pool of trained detection
// systems (one per grid case / region) with request coalescing, bounded
// queues with load-shedding, per-request deadlines, and per-shard
// supervisors that rebuild failed shards with exponential backoff.
//
// Endpoints:
//
//	POST /v1/detect  {"shard":"east","samples":[{"vm":[...],"va":[...]}]}
//	POST /v1/ingest  {"shard":"east","sample":{"vm":[...],"va":[...]}}
//	GET  /v1/shards  per-shard state (training/ready/failed), restarts
//	GET  /v1/stats   per-shard counters: requests, batches, shed, latency
//	GET  /healthz    200 once at least one shard serves, else 503
//
// Detect and ingest also take a binary body, Content-Type
// application/x-pmu-frame with the shard in ?shard=: one internal/wire
// frame per sample (detect) or one frame (ingest). Every answer is JSON.
//
// Typed service errors map onto HTTP statuses (unknown shard 404, bad
// sample 400, overloaded 429, unavailable 503, deadline 504); retryable
// conditions carry a Retry-After header. Example:
//
//	outaged -addr :8080 -shards east=ieee14,west=ieee30 -dc
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pmuoutage"
	"pmuoutage/internal/httpserve"
	"pmuoutage/internal/obs"
	"pmuoutage/internal/registry"
	"pmuoutage/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		debugAddr  = flag.String("debug-addr", "", "optional listen address for pprof and expvar (e.g. localhost:6060); empty disables")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
		shards     = flag.String("shards", "main=ieee14", "comma-separated name=case shard list")
		models     = flag.String("models", "", "comma-separated name=ref list of model artifacts to boot shards from (skips training); a ref is a file path or, with -registry, a hex SHA-256 fingerprint")
		regURL     = flag.String("registry", "", "model registry base URL (e.g. http://localhost:8090); enables boot and hot reload by fingerprint")
		trainSteps = flag.Int("train-steps", 0, "training window length per scenario (0 = library default)")
		seed       = flag.Int64("seed", 1, "base seed; shard i trains with seed+i")
		dc         = flag.Bool("dc", false, "use the linear DC power-flow substrate (faster training)")
		workers    = flag.Int("workers", 0, "worker pool size per shard (0 = GOMAXPROCS)")
		maxBatch   = flag.Int("max-batch", 0, "max samples per coalesced detector batch (0 = default)")
		queue      = flag.Int("queue", 0, "pending-sample bound per shard before load-shedding (0 = default)")
		timeout    = flag.Duration("timeout", 30*time.Second, "per-request deadline")
		confirm    = flag.Int("confirm", 0, "streaming confirmation streak (0 = default)")
		traceCap   = flag.Int("trace-capacity", 256, "retained-trace ring size for GET /debug/traces (0 disables tracing)")
		traceSlow  = flag.Duration("trace-slow", 100*time.Millisecond, "tail sampling keeps traces at least this slow (negative disables the latency rule)")
		traceEvery = flag.Int("trace-sample", 0, "tail sampling also keeps every Nth trace regardless of latency (0 disables)")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatal(err)
	}
	logger := obs.NewTextLogger(os.Stderr, level)

	cfg, err := buildConfig(*shards, *trainSteps, *seed, *dc, *workers, *maxBatch, *queue, *confirm)
	if err != nil {
		log.Fatal(err)
	}
	var reg *registry.Client
	if *regURL != "" {
		if reg, err = registry.NewClient(*regURL, nil); err != nil {
			log.Fatal(err)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := applyModels(ctx, &cfg, *models, reg); err != nil {
		log.Fatal(err)
	}
	cfg.Logger = logger
	if *traceCap > 0 {
		cfg.Tracer = obs.NewTracer(obs.TracerConfig{
			Capacity:      *traceCap,
			SlowThreshold: *traceSlow,
			SampleEvery:   *traceEvery,
		})
	}
	if err := run(ctx, *addr, *debugAddr, cfg, *timeout, logger, reg); err != nil {
		log.Fatal(err)
	}
}

// buildConfig parses the -shards flag ("east=ieee14,west=ieee30"; a bare
// name defaults its case) into a service configuration.
func buildConfig(shardFlag string, trainSteps int, seed int64, dc bool, workers, maxBatch, queue, confirm int) (service.Config, error) {
	cfg := service.Config{MaxBatch: maxBatch, QueueDepth: queue, Confirm: confirm}
	for i, spec := range strings.Split(shardFlag, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		name, caseName, _ := strings.Cut(spec, "=")
		cfg.Shards = append(cfg.Shards, service.ShardSpec{
			Name: name,
			Opts: pmuoutage.Options{
				Case:       caseName,
				TrainSteps: trainSteps,
				Seed:       seed + int64(i),
				UseDC:      dc,
				Workers:    workers,
			},
		})
	}
	if len(cfg.Shards) == 0 {
		return cfg, fmt.Errorf("%w: -shards is empty", service.ErrConfig)
	}
	return cfg, nil
}

// applyModels parses the -models flag ("east=/path/a.json,...") and
// pins each named shard to the decoded artifact, so the daemon boots
// serving without retraining. A value that is a hex SHA-256
// fingerprint is pulled from the registry (verified on receipt)
// instead of the filesystem.
func applyModels(ctx context.Context, cfg *service.Config, modelFlag string, reg *registry.Client) error {
	for _, spec := range strings.Split(modelFlag, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		name, ref, ok := strings.Cut(spec, "=")
		if !ok || ref == "" {
			return fmt.Errorf("%w: -models entry %q is not name=ref", service.ErrConfig, spec)
		}
		var m *pmuoutage.Model
		var err error
		if isFingerprint(ref) {
			if reg == nil {
				return fmt.Errorf("%w: -models entry %q names a fingerprint but no -registry is set", service.ErrConfig, spec)
			}
			m, err = reg.Model(ctx, ref)
		} else {
			m, err = httpserve.LoadModel(ref)
		}
		if err != nil {
			return fmt.Errorf("loading model for shard %q: %w", name, err)
		}
		found := false
		for i := range cfg.Shards {
			if cfg.Shards[i].Name == name {
				cfg.Shards[i].Model = m
				found = true
			}
		}
		if !found {
			return fmt.Errorf("%w: -models names unknown shard %q", service.ErrConfig, name)
		}
	}
	return nil
}

// isFingerprint reports whether ref looks like a hex SHA-256 content
// fingerprint (64 hex chars) rather than a file path.
func isFingerprint(ref string) bool {
	return len(ref) == 64 && strings.Trim(ref, "0123456789abcdef") == ""
}

// run starts the service, serves HTTP (plus the optional pprof/expvar
// debug listener) until ctx cancels, then shuts everything down
// gracefully.
func run(ctx context.Context, addr, debugAddr string, cfg service.Config, timeout time.Duration, logger *slog.Logger, reg *registry.Client) error {
	svc, err := service.New(ctx, cfg)
	if err != nil {
		return err
	}
	defer svc.Close()

	srv := httpserve.New(svc, timeout, logger)
	if reg != nil {
		srv.SetModelSource(reg)
	}
	httpSrv := &http.Server{Addr: addr, Handler: srv.Routes()}
	servers := []*http.Server{httpSrv}
	errc := make(chan error, 2)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("outaged listening", "addr", addr, "shards", len(cfg.Shards))
	if debugAddr != "" {
		dbgSrv := &http.Server{Addr: debugAddr, Handler: httpserve.DebugMux()}
		servers = append(servers, dbgSrv)
		go func() { errc <- dbgSrv.ListenAndServe() }()
		logger.Info("debug endpoints listening", "addr", debugAddr)
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	sdCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range servers {
		if err := s.Shutdown(sdCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
	}
	return nil
}
