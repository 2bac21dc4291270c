// Package service is the sharded multi-system detection layer: it owns
// N independently trained pmuoutage.Systems (one per grid case /
// region), routes batch-detect and streaming-ingest requests to the
// right shard, coalesces small concurrent requests into one detector
// batch per shard, and enforces per-request deadlines with bounded
// queues and load-shedding — reject-with-retry rather than unbounded
// buffering.
//
// Degradation is graceful and per shard: a shard whose detector is
// still training, has failed training, or was killed answers with
// ErrUnavailable (retryable) while every other shard keeps serving, and
// a per-shard supervisor rebuilds failed shards with exponential
// backoff. Coalescing never changes results: a batch is the
// concatenation of its requests' samples, System.DetectBatch assigns
// report i to sample i over the deterministic internal/par pool, and
// each request gets back exactly its slice — byte-identical to calling
// DetectBatch directly on the same samples.
//
// Errors are typed: ErrUnknownShard, ErrUnavailable, ErrOverloaded,
// ErrClosed, and ErrConfig here plus the facade's ErrBadSample pass
// through errors.Is; httpserve maps each onto its wire code, which
// decides whether the answer carries Retry-After. cmd/outaged is the
// JSON-over-HTTP front end.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"pmuoutage"
	"pmuoutage/api"
	"pmuoutage/internal/obs"
)

// Typed errors of the service layer. Everything the service itself
// mints wraps one of these; facade errors (pmuoutage.ErrBadSample, ...)
// pass through untouched.
var (
	// ErrConfig reports an invalid Config passed to New.
	ErrConfig = errors.New("service: invalid config")
	// ErrUnknownShard reports a request routed to a shard name the
	// service does not own.
	ErrUnknownShard = errors.New("service: unknown shard")
	// ErrUnavailable reports a shard that exists but cannot answer right
	// now — still training, failed, or killed. Retryable: the supervisor
	// is rebuilding it.
	ErrUnavailable = errors.New("service: shard unavailable")
	// ErrOverloaded reports load-shedding: the shard's pending-sample
	// queue is at its bound. Retryable after backoff.
	ErrOverloaded = errors.New("service: overloaded")
	// ErrClosed reports a request against a closed service.
	ErrClosed = errors.New("service: closed")
)

// ShardSpec names one shard and the system it serves — typically one
// grid case or region per shard.
type ShardSpec struct {
	Name string
	// Opts configures training when no Model is pinned (and remains the
	// retrain recipe for Reload with a nil model).
	Opts pmuoutage.Options
	// Model, when non-nil, is a pre-trained artifact the shard boots
	// from instead of training — the serve-from-artifact path. Rebuilds
	// after Kill reuse it.
	Model *pmuoutage.Model
}

// Config configures New.
type Config struct {
	// Shards lists the systems the service owns. Names must be unique
	// and non-empty.
	Shards []ShardSpec
	// MaxBatch caps how many samples one coalesced detector call may
	// contain (default 64).
	MaxBatch int
	// QueueDepth bounds the samples a shard may hold admitted-but-
	// unanswered before it sheds load with ErrOverloaded (default 256).
	QueueDepth int
	// Confirm configures the per-shard streaming monitors (the stream
	// default when 0); their cooldown is always the stream default.
	Confirm int
	// RestartBackoff is the supervisor's initial delay before rebuilding
	// a failed or killed shard; it doubles per consecutive failure up to
	// MaxRestartBackoff. Defaults 100ms and 10s.
	RestartBackoff    time.Duration
	MaxRestartBackoff time.Duration

	// Tracer, when non-nil, records queue/coalesce/detect stage spans
	// for requests whose context carries a trace ID; the HTTP layer
	// starts the root span and serves retained traces at /debug/traces.
	// Like Logger, it is observational only: nil disables tracing with
	// zero allocations on the hot path, and detector outputs are byte-
	// identical either way.
	Tracer *obs.Tracer

	// Logger, when non-nil, receives structured lifecycle logs (shard
	// state changes and model swaps at info). Logging is observational
	// only: a nil Logger disables it entirely, and detector outputs are
	// byte-identical either way. Metrics are always recorded; they are
	// lock-free atomics with no logger dependency.
	Logger *slog.Logger

	// batchHook, when set, observes every coalesced batch right before
	// it runs (test seam for deterministic queue-pressure tests).
	batchHook func(shard string, samples int)
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.RestartBackoff <= 0 {
		c.RestartBackoff = 100 * time.Millisecond
	}
	if c.MaxRestartBackoff <= 0 {
		c.MaxRestartBackoff = 10 * time.Second
	}
	return c
}

// Service routes detection traffic across its shards. All methods are
// safe for concurrent use.
type Service struct {
	cfg    Config
	ctx    context.Context // service lifetime; done => closed
	cancel context.CancelFunc
	wg     sync.WaitGroup
	stats  *Stats

	mu     sync.Mutex
	closed bool
	shards map[string]*shard
	order  []string // spec order, for stable listings
}

// New validates cfg and starts the service: every shard immediately
// begins training in the background under its supervisor, and requests
// to a shard that is not ready yet fail fast with ErrUnavailable. ctx
// bounds the whole service — cancelling it is equivalent to Close.
func New(ctx context.Context, cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("%w: no shards", ErrConfig)
	}
	names := map[string]bool{}
	for _, spec := range cfg.Shards {
		if spec.Name == "" {
			return nil, fmt.Errorf("%w: shard with empty name", ErrConfig)
		}
		if names[spec.Name] {
			return nil, fmt.Errorf("%w: duplicate shard %q", ErrConfig, spec.Name)
		}
		names[spec.Name] = true
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &Service{
		cfg:    cfg,
		ctx:    sctx,
		cancel: cancel,
		stats:  newStats(obs.NewRegistry()),
		shards: map[string]*shard{},
	}
	for _, spec := range cfg.Shards {
		sh := newShard(s, spec)
		s.shards[spec.Name] = sh
		s.order = append(s.order, spec.Name)
		s.wg.Add(1)
		go sh.supervise(sctx)
	}
	return s, nil
}

// shard resolves a shard name, failing with ErrUnknownShard or
// ErrClosed.
func (s *Service) shard(name string) (*shard, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	sh := s.shards[name]
	if sh == nil {
		return nil, fmt.Errorf("%w: %q (shards: %v)", ErrUnknownShard, name, s.order)
	}
	return sh, nil
}

// DetectBatch routes samples to the named shard and returns one report
// per sample in input order. Small concurrent requests coalesce into
// one detector batch, but the response for each request is exactly what
// the shard's System.DetectBatch returns for its samples alone. The
// request is dropped (and answered with the context's error) if ctx
// expires while it is queued; once the batch is running it completes.
func (s *Service) DetectBatch(ctx context.Context, shardName string, samples []pmuoutage.Sample) ([]*pmuoutage.Report, error) {
	sh, err := s.shard(shardName)
	if err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, nil
	}
	return sh.detect(ctx, samples)
}

// Ingest feeds one sample to the named shard's streaming monitor and
// returns a non-nil Event exactly when the sample confirms a new
// outage. Ingest is serialised per shard (the monitor is stateful); the
// monitor's streak state resets when the shard restarts.
func (s *Service) Ingest(ctx context.Context, shardName string, sample pmuoutage.Sample) (*pmuoutage.Event, error) {
	sh, err := s.shard(shardName)
	if err != nil {
		return nil, err
	}
	return sh.ingest(ctx, sample)
}

// System returns the named shard's trained system for direct library
// use — the service and library callers share one API surface. It fails
// with ErrUnavailable while the shard is not ready.
func (s *Service) System(name string) (*pmuoutage.System, error) {
	sh, err := s.shard(name)
	if err != nil {
		return nil, err
	}
	return sh.serving()
}

// Reload hot-swaps the named shard onto a new model. With a non-nil
// model it must match the serving grid (bus count); with nil the shard
// retrains from its spec's Options in the calling goroutine — in both
// cases the shard keeps serving the old model until the instant of the
// swap, queued requests are never dropped, and every batch is scored by
// exactly one model (old or new, never mixed). The swapped-in model is
// pinned for future supervisor rebuilds. Reloading a shard that is not
// ready fails with its availability error; the caller retries once the
// supervisor has it serving again.
func (s *Service) Reload(ctx context.Context, shardName string, m *pmuoutage.Model) error {
	sh, err := s.shard(shardName)
	if err != nil {
		return err
	}
	if m == nil {
		m, err = pmuoutage.TrainModelContext(ctx, sh.spec.Opts)
		if err != nil {
			return err
		}
	}
	if err := sh.reload(m); err != nil {
		return err
	}
	if lg := sh.logger; lg != nil {
		lg.LogAttrs(ctx, slog.LevelInfo, "model reloaded",
			slog.String(obs.AttrTraceID, obs.TraceID(ctx)),
			slog.Uint64(obs.AttrGeneration, sh.gen.Load()),
			slog.String("model", m.Fingerprint()))
	}
	return nil
}

// ApplyPatch hot-swaps the named shard onto the patched version of the
// model it is serving right now. The patch is fingerprint-pinned: a
// shard serving any model but the patch's base fails with
// pmuoutage.ErrPatchBase and keeps its current model. The splice
// itself is pure in-memory state surgery — no simulation, no SVD —
// so the swap completes in milliseconds regardless of grid size, and
// the same old-or-new-never-mixed reload guarantee applies. The
// patched model is pinned for future supervisor rebuilds, exactly as
// if it had been reloaded whole.
func (s *Service) ApplyPatch(ctx context.Context, shardName string, p *pmuoutage.Patch) error {
	sh, err := s.shard(shardName)
	if err != nil {
		return err
	}
	sys, err := sh.serving()
	if err != nil {
		return err
	}
	m, err := p.Apply(sys.Model())
	if err != nil {
		return err
	}
	if err := sh.reload(m); err != nil {
		return err
	}
	if lg := sh.logger; lg != nil {
		lg.LogAttrs(ctx, slog.LevelInfo, "model patched",
			slog.String(obs.AttrTraceID, obs.TraceID(ctx)),
			slog.Uint64(obs.AttrGeneration, sh.gen.Load()),
			slog.String("patch", p.Fingerprint()),
			slog.String("model", m.Fingerprint()))
	}
	return nil
}

// Kill marks a ready shard failed: its queue drains with ErrUnavailable
// and the supervisor rebuilds it after the restart backoff. Requests to
// every other shard are unaffected. Killing a shard that is not ready
// is a no-op. It is the fault probe of TestKillAndRestart,
// TestKillDrainsQueue and cmd/outaged's TestErrorMapping.
func (s *Service) Kill(name string) error {
	sh, err := s.shard(name)
	if err != nil {
		return err
	}
	sh.kill(fmt.Errorf("%w: killed by operator", ErrUnavailable))
	return nil
}

// Ready reports whether at least one shard is serving.
func (s *Service) Ready() bool {
	for _, st := range s.Shards() {
		if st.State == StateReady.String() {
			return true
		}
	}
	return false
}

// Shards snapshots every shard's status in configuration order: the
// GET /v1/shards wire value.
func (s *Service) Shards() []api.ShardStatus {
	shards := s.allShards()
	out := make([]api.ShardStatus, len(shards))
	for i, sh := range shards {
		out[i] = sh.status()
	}
	return out
}

// allShards copies the shard list in configuration order.
func (s *Service) allShards() []*shard {
	s.mu.Lock()
	defer s.mu.Unlock()
	shards := make([]*shard, 0, len(s.order))
	for _, name := range s.order {
		shards = append(shards, s.shards[name])
	}
	return shards
}

// peek resolves a shard without the closed check (nil if unknown).
func (s *Service) peek(name string) *shard {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards[name]
}

// Metrics returns the service's metrics registry — the same cells
// Stats snapshots, exposable as Prometheus text via the registry's
// ServeHTTP (cmd/outaged mounts it at /metrics).
func (s *Service) Metrics() *obs.Registry {
	return s.stats.reg
}

// Tracer returns the service's span tracer (nil when tracing is
// disabled) — the HTTP layer roots request spans on it and serves its
// retained traces.
func (s *Service) Tracer() *obs.Tracer {
	return s.cfg.Tracer
}

// Counters returns the named shard's live counter cells (created on
// first use), letting transports record into shard-scoped metrics —
// the HTTP layer uses this for the encode-stage histogram.
func (s *Service) Counters(name string) *ShardCounters {
	return s.stats.shard(name)
}

// Stats snapshots the per-shard counters (requests, batch sizes, queue
// depth, shed count, latency).
func (s *Service) Stats() map[string]api.ShardSnapshot {
	out := s.stats.snapshot()
	for name, snap := range out {
		if sh := s.peek(name); sh != nil {
			snap.QueueDepth = int(sh.depth.Load())
			out[name] = snap
		}
	}
	return out
}

// Close stops every shard supervisor (each runs its shard's batch
// loop), answers queued requests with ErrClosed, and waits for all
// service goroutines to exit. It is idempotent.
func (s *Service) Close() {
	s.markClosed()
	s.cancel()
	s.wg.Wait()
}

func (s *Service) markClosed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
}
