package service

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"pmuoutage"
	"pmuoutage/api"
	"pmuoutage/internal/obs"
)

// State is a shard's lifecycle position.
type State int

const (
	// StateTraining: the supervisor is building the shard's system.
	StateTraining State = iota
	// StateReady: the shard is serving.
	StateReady
	// StateFailed: training failed or the shard was killed; the
	// supervisor will rebuild it after its backoff.
	StateFailed
	// StateStopped: the service is closed.
	StateStopped
)

// String renders the state for status listings and JSON.
func (s State) String() string {
	switch s {
	case StateTraining:
		return "training"
	case StateReady:
		return "ready"
	case StateFailed:
		return "failed"
	default:
		return "stopped"
	}
}

// queueCap is the hard capacity of every shard's request queue. The
// soft, sample-counted shed bound is Config.QueueDepth; this constant
// only backstops it so the channel's make site stays auditable.
const queueCap = 256

// request is one queued detect call.
type request struct {
	ctx      context.Context
	samples  []pmuoutage.Sample
	done     chan response // buffered(1): the batcher never blocks on delivery
	enqueued time.Time     // admission instant; queue-wait = batch pop - enqueued
}

type response struct {
	reports []*pmuoutage.Report
	err     error
}

// shard is one trained system plus its request queue, supervisor
// state, and hot-reload machinery.
type shard struct {
	svc    *Service
	spec   ShardSpec
	st     *ShardCounters
	logger *slog.Logger // nil when Config.Logger is unset; lifecycle logs off

	reqs  chan *request
	depth atomic.Int64 // samples admitted but not yet answered

	// cur is the serving system, swapped atomically by activate, reload,
	// and kill. The batch loop loads it exactly once per batch: every
	// sample of a batch is scored by one coherent model even while a
	// reload swaps the pointer mid-flight, and queued requests survive
	// swaps — they simply run on whichever model is current when their
	// batch executes.
	cur atomic.Pointer[pmuoutage.System]
	gen atomic.Uint64 // incarnation counter: bumped per activate and reload

	mu    sync.Mutex
	state State
	err   error // last failure while StateFailed
	sys   *pmuoutage.System
	mon   *pmuoutage.Monitor
	boot  *pmuoutage.Model // artifact to serve on (re)build; nil = retrain
	killc chan struct{}    // closed by kill to stop the current batch loop
}

func newShard(svc *Service, spec ShardSpec) *shard {
	sh := &shard{
		svc:  svc,
		spec: spec,
		st:   svc.stats.shard(spec.Name),
		boot: spec.Model,
		reqs: make(chan *request, queueCap),
	}
	if lg := svc.cfg.Logger; lg != nil {
		sh.logger = lg.With(slog.String(obs.AttrComponent, "service"), slog.String(obs.AttrShard, spec.Name))
	}
	svc.stats.reg.GaugeFunc(metricQueueDepth, "samples admitted and not yet answered", func() float64 { return float64(sh.depth.Load()) }, labelShard, spec.Name)
	return sh
}

// supervise is the shard's lifecycle loop: train, serve until killed,
// back off, rebuild. Training failures retry with exponential backoff
// (reset after every healthy start); ctx cancellation stops everything.
func (sh *shard) supervise(ctx context.Context) {
	defer sh.svc.wg.Done()
	defer sh.stop()
	backoff := sh.svc.cfg.RestartBackoff
	for ctx.Err() == nil {
		sh.setTraining()
		sh.logState(ctx, slog.LevelInfo, "training", nil)
		sys, err := sh.buildSystem(ctx)
		if err == nil {
			var mon *pmuoutage.Monitor
			mon, err = sys.NewMonitor(sh.svc.cfg.Confirm, 0)
			if err == nil {
				killc := make(chan struct{})
				sh.activate(sys, mon, killc)
				sh.logState(ctx, slog.LevelInfo, "ready", nil)
				backoff = sh.svc.cfg.RestartBackoff
				sh.serve(ctx, killc)
				if ctx.Err() != nil {
					return
				}
				// Killed: fall through to the backoff-and-rebuild path.
			}
		}
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			sh.fail(fmt.Errorf("%w: %q training failed: %v", ErrUnavailable, sh.spec.Name, err))
		}
		sh.st.Restarts.Add(1)
		sh.logState(ctx, slog.LevelWarn, "restarting", sh.availErr())
		if !sleep(ctx, backoff) {
			return
		}
		backoff = nextBackoff(backoff, sh.svc.cfg.MaxRestartBackoff)
	}
}

// logState emits one shard lifecycle line; a nil logger disables it.
// Called outside sh.mu — never log under the shard lock.
func (sh *shard) logState(ctx context.Context, level slog.Level, state string, cause error) {
	lg := sh.logger
	if lg == nil || !lg.Enabled(ctx, level) {
		return
	}
	msg := "shard " + state
	gen := slog.Uint64(obs.AttrGeneration, sh.gen.Load())
	if cause != nil {
		lg.LogAttrs(ctx, level, msg, gen, slog.String("cause", cause.Error()))
		return
	}
	lg.LogAttrs(ctx, level, msg, gen)
}

// buildSystem produces the shard's serving system: rewrap the boot
// artifact when one is pinned (ShardSpec.Model or a past reload),
// otherwise run the full training pipeline.
func (sh *shard) buildSystem(ctx context.Context) (*pmuoutage.System, error) {
	if m := sh.bootModel(); m != nil {
		return pmuoutage.NewSystemFromModel(m)
	}
	return pmuoutage.NewSystemContext(ctx, sh.spec.Opts)
}

// bootModel returns the artifact the next (re)build should serve.
func (sh *shard) bootModel() *pmuoutage.Model {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.boot
}

// serve is the batch loop of one shard incarnation, run by the
// supervisor itself: pop the next request, coalesce whatever else is
// already queued behind it up to MaxBatch samples, run one detector
// batch, and deliver each request its slice. It returns when the
// service closes, or when the incarnation is killed — after answering
// everything still queued with the kill's retryable error.
func (sh *shard) serve(ctx context.Context, killc chan struct{}) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-killc:
			sh.drainQueue(sh.availErr())
			return
		case req := <-sh.reqs:
			t0 := time.Now()
			batch := sh.coalesce(req)
			popped := time.Now()
			// The coalesce span is per batch; it hangs off the first
			// request's trace (the one that opened the batch window).
			sh.svc.cfg.Tracer.RecordSpan(req.ctx, stageNameCoalesce, sh.st.stage[StageCoalesce], t0, popped)
			sh.runBatch(ctx, batch, popped)
		}
	}
}

// coalesce greedily drains already-queued requests behind first until
// the batch reaches MaxBatch samples. It never waits: latency of the
// first request is never spent fishing for company.
func (sh *shard) coalesce(first *request) []*request {
	batch := []*request{first}
	total := len(first.samples)
	for total < sh.svc.cfg.MaxBatch {
		select {
		case req := <-sh.reqs:
			batch = append(batch, req)
			total += len(req.samples)
		default:
			return batch
		}
	}
	return batch
}

// runBatch executes one coalesced batch. Requests whose deadline
// already expired are answered with their context error without
// spending detector time. The serving system is loaded exactly once —
// a concurrent reload cannot tear a batch across two models. If the
// combined batch fails (one request's malformed sample must not fail
// its neighbours), it falls back to one detector call per request so
// each gets exactly its own outcome. popped is the instant the batch
// left the queue — the end of every member's queue-wait span.
func (sh *shard) runBatch(ctx context.Context, batch []*request, popped time.Time) {
	var live []*request
	var samples []pmuoutage.Sample
	for _, req := range batch {
		if err := req.ctx.Err(); err != nil {
			sh.respond(req, response{err: err})
			continue
		}
		live = append(live, req)
		samples = append(samples, req.samples...)
	}
	if len(live) == 0 {
		return
	}
	sys := sh.cur.Load()
	if sys == nil { // killed between pop and run
		for _, req := range live {
			sh.respond(req, response{err: sh.availErr()})
		}
		return
	}
	if hook := sh.svc.cfg.batchHook; hook != nil {
		hook(sh.spec.Name, len(samples))
	}
	start := time.Now()
	reports, err := sys.DetectBatchContext(ctx, samples)
	sh.observeBatch(live, len(samples), popped, start, time.Now())
	if err != nil {
		for _, req := range live {
			r, rerr := sys.DetectBatchContext(req.ctx, req.samples)
			sh.respond(req, response{reports: r, err: rerr})
		}
		return
	}
	off := 0
	for _, req := range live {
		n := len(req.samples)
		sh.respond(req, response{reports: reports[off : off+n : off+n]})
		off += n
	}
}

// observeBatch records one detector call: the batch counters and the
// detect histogram once per batch, then each member's queue wait
// (histogram and span) and a detect span per member — a batch's
// detector call appears in every member's trace. Purely observational;
// with tracing off it allocates nothing (pinned by
// TestInstrumentationAllocs).
//
//gridlint:zeroalloc
func (sh *shard) observeBatch(live []*request, samples int, popped, start, end time.Time) {
	c := sh.st
	c.Batches.Inc()
	c.Samples.Add(uint64(samples))
	c.stage[StageDetect].Observe(end.Sub(start))
	for {
		cur := c.maxBatch.Load()
		if int64(samples) <= cur || c.maxBatch.CompareAndSwap(cur, int64(samples)) {
			break
		}
	}
	tr := sh.svc.cfg.Tracer
	for _, req := range live {
		tr.RecordSpan(req.ctx, stageNameQueue, c.stage[StageQueue], req.enqueued, popped)
		tr.RecordSpan(req.ctx, stageNameDetect, nil, start, end)
	}
}

// detect admits one request: shed if over the queue bound, enqueue it,
// then wait for the batcher's response or the caller's deadline.
func (sh *shard) detect(ctx context.Context, samples []pmuoutage.Sample) ([]*pmuoutage.Report, error) {
	sh.st.Requests.Add(1)
	if err := sh.availErr(); err != nil {
		sh.st.Unavailable.Add(1)
		return nil, err
	}
	n := int64(len(samples))
	if d := sh.depth.Add(n); d > int64(sh.svc.cfg.QueueDepth) {
		sh.depth.Add(-n)
		sh.st.Shed.Add(1)
		return nil, fmt.Errorf("%w: shard %q has %d samples pending (bound %d); retry later",
			ErrOverloaded, sh.spec.Name, d-n, sh.svc.cfg.QueueDepth)
	}
	req := &request{ctx: ctx, samples: samples, done: make(chan response, 1), enqueued: time.Now()}
	select {
	case sh.reqs <- req:
	default:
		sh.depth.Add(-n)
		sh.st.Shed.Add(1)
		return nil, fmt.Errorf("%w: shard %q request queue is full; retry later", ErrOverloaded, sh.spec.Name)
	}
	select {
	case resp := <-req.done:
		return resp.reports, resp.err
	case <-ctx.Done():
		// The batcher still answers the buffered channel and settles the
		// depth accounting; only this caller stops waiting.
		return nil, ctx.Err()
	case <-sh.svc.ctx.Done():
		return nil, ErrClosed
	}
}

// ingest scores one sample on the shard's streaming monitor; the mutex
// serialises the monitor's streak state.
func (sh *shard) ingest(ctx context.Context, sample pmuoutage.Sample) (*pmuoutage.Event, error) {
	sh.st.Ingests.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.state != StateReady {
		sh.st.Unavailable.Add(1)
		return nil, sh.availErrLocked()
	}
	return sh.mon.Ingest(sample)
}

// respond settles the request's depth accounting, then delivers its
// response: by the time a caller holds its answer, its samples no
// longer count against the queue bound.
func (sh *shard) respond(req *request, resp response) {
	sh.depth.Add(-int64(len(req.samples)))
	req.done <- resp
}

// drainQueue answers everything currently queued with err.
func (sh *shard) drainQueue(err error) {
	for {
		select {
		case req := <-sh.reqs:
			sh.respond(req, response{err: err})
		default:
			return
		}
	}
}

// kill fails the current incarnation: the batch loop answers queued
// requests with a retryable error and exits, and the supervisor
// rebuilds the shard after its backoff. No-op unless the shard is
// ready.
func (sh *shard) kill(cause error) {
	if killc := sh.takeKill(cause); killc != nil {
		close(killc)
	}
}

func (sh *shard) takeKill(cause error) chan struct{} {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.state != StateReady {
		return nil
	}
	sh.state = StateFailed
	sh.err = cause
	sh.sys, sh.mon = nil, nil
	sh.cur.Store(nil)
	killc := sh.killc
	sh.killc = nil
	return killc
}

// reload swaps the shard onto a new model without dropping queued
// requests: the batch loop keeps running, and the atomic store below is
// the entire cutover — batches popped before it score on the old model,
// batches popped after it on the new one, never a mixture. The
// streaming monitor is rebuilt on the new system (its streak state does
// not transfer across models). The new model is pinned as the boot
// artifact so a later supervisor rebuild serves it rather than
// retraining. Reloading a shard that is not currently serving fails
// with its availability error.
func (sh *shard) reload(m *pmuoutage.Model) error {
	sys, err := pmuoutage.NewSystemFromModel(m)
	if err != nil {
		return err
	}
	mon, err := sys.NewMonitor(sh.svc.cfg.Confirm, 0)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.state != StateReady {
		return sh.availErrLocked()
	}
	if cur := sh.sys; cur != nil && cur.Buses() != sys.Buses() {
		return fmt.Errorf("%w: shard %q serves %d buses, model %q has %d",
			ErrConfig, sh.spec.Name, cur.Buses(), m.Case(), sys.Buses())
	}
	sh.sys, sh.mon, sh.boot = sys, mon, m
	sh.cur.Store(sys)
	sh.gen.Add(1)
	sh.st.Reloads.Add(1)
	return nil
}

func (sh *shard) setTraining() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.state = StateTraining
	sh.err = nil
}

func (sh *shard) activate(sys *pmuoutage.System, mon *pmuoutage.Monitor, killc chan struct{}) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.state = StateReady
	sh.err = nil
	sh.sys, sh.mon, sh.killc = sys, mon, killc
	sh.cur.Store(sys)
	sh.gen.Add(1)
}

func (sh *shard) fail(err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.state = StateFailed
	sh.err = err
	sh.sys, sh.mon = nil, nil
	sh.cur.Store(nil)
}

// stop marks the shard stopped and fails everything still queued; runs
// once, when the supervisor exits.
func (sh *shard) stop() {
	sh.setStopped()
	sh.drainQueue(ErrClosed)
}

func (sh *shard) setStopped() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.state = StateStopped
	sh.sys, sh.mon, sh.killc = nil, nil, nil
	sh.cur.Store(nil)
}

// serving returns the serving system, or the typed reason there is
// none. Both come from one critical section: read apart, a shard that
// became ready between the two reads yielded no system and no error.
func (sh *shard) serving() (*pmuoutage.System, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.sys != nil {
		return sh.sys, nil
	}
	return nil, sh.availErrLocked()
}

// availErr returns nil when the shard is serving, otherwise the typed
// reason it cannot answer.
func (sh *shard) availErr() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.state == StateReady {
		return nil
	}
	return sh.availErrLocked()
}

func (sh *shard) availErrLocked() error {
	switch sh.state {
	case StateReady:
		return nil
	case StateTraining:
		return fmt.Errorf("%w: shard %q is training; retry later", ErrUnavailable, sh.spec.Name)
	case StateFailed:
		if sh.err != nil {
			return sh.err
		}
		return fmt.Errorf("%w: shard %q failed; restarting", ErrUnavailable, sh.spec.Name)
	default:
		return ErrClosed
	}
}

// status snapshots the shard for listings.
func (sh *shard) status() api.ShardStatus {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := api.ShardStatus{
		Name:       sh.spec.Name,
		Case:       sh.spec.Opts.Case,
		State:      sh.state.String(),
		Restarts:   sh.st.Restarts.Load(),
		QueueDepth: int(sh.depth.Load()),
		Generation: sh.gen.Load(),
	}
	if st.Case == "" {
		st.Case = "ieee14" // the facade default
	}
	if sh.err != nil {
		st.Err = sh.err.Error()
	}
	if sh.sys != nil {
		st.Buses = sh.sys.Buses()
		st.Lines = len(sh.sys.Lines())
		if m := sh.sys.Model(); m != nil {
			st.Case = m.Case()
			st.Model = m.Fingerprint()
		}
	}
	return st
}

// sleep waits d or until ctx cancels, reporting whether the full wait
// elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// nextBackoff doubles a delay up to the bound.
func nextBackoff(d, bound time.Duration) time.Duration {
	d *= 2
	if d > bound {
		d = bound
	}
	return d
}
