// Package router is the fleet front-end for outaged: it spreads
// detect and ingest traffic across N backend processes with
// health-aware least-loaded balancing, fails requests over when a
// backend dies mid-stream, and runs canary/shadow evaluation of a
// candidate model with a structured diff report gating promotion.
//
// The data plane is byte-transparent: request bodies are forwarded
// verbatim and the chosen backend's response — status, Content-Type,
// Retry-After, trace ID, body — is relayed byte-identically, so a
// caller cannot distinguish the router from the backend it picked.
// Wire types are the shared api package; the proxy primitive is
// client.PostRaw (transport retries only, every HTTP response returned
// whole).
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"pmuoutage/api"
	"pmuoutage/client"
	"pmuoutage/internal/obs"
)

// Typed errors of the router.
var (
	// ErrConfig reports an invalid Config.
	ErrConfig = errors.New("router: invalid config")
	// ErrBadRequest reports a request the router itself rejects before
	// proxying (conflicting reload sources, unreadable body).
	ErrBadRequest = errors.New("router: bad request")
	// ErrBodyTooLarge reports a request body over the router's 64 MiB
	// bound — rejected with 413 Payload Too Large, never truncated.
	ErrBodyTooLarge = errors.New("router: request body too large")
	// ErrNoBackends reports that no healthy backend could take the
	// request — every pool member is ejected or at its in-flight bound.
	ErrNoBackends = errors.New("router: no backend available")
	// ErrPromotionBlocked reports a promotion whose canary report gates
	// failed.
	ErrPromotionBlocked = errors.New("router: promotion blocked")
)

// Metric names of the router's registry.
const (
	metricProxied        = "router_requests_total"
	metricFailovers      = "router_failovers_total"
	metricNoBackend      = "router_no_backend_total"
	metricShadow         = "router_shadow_total"
	metricDivergence     = "router_score_divergence"
	metricProxySecs      = "router_proxy_seconds"
	metricTracesKept     = "router_traces_kept_total"
	metricTracesDropped  = "router_traces_dropped_total"
	labelRoute           = "route"
	labelRouterPool      = "pool"
	routeDetect          = "detect"
	routeIngest          = "ingest"
	poolNamePrimary      = "primary"
	poolNameCanary       = "canary"
	defaultProbeEvery    = 250 * time.Millisecond
	defaultShadowTimeout = 30 * time.Second
	defaultFleetWindow   = time.Minute

	// Ejection/readmission accounting and the fleet-health aggregates
	// scraped from backend /v1/stats pages.
	metricEjections     = "pmu_router_ejections_total"
	metricReadmissions  = "pmu_router_readmissions_total"
	metricDesperate     = "pmu_router_desperate_total"
	metricFleetUp       = "pmu_fleet_up"
	metricFleetRequests = "pmu_fleet_requests_total"
	metricFleetSamples  = "pmu_fleet_samples_total"
	metricFleetShed     = "pmu_fleet_shed_total"
	metricFleetP99      = "pmu_fleet_detect_p99_seconds"
	metricFleetAvail    = "pmu_fleet_availability"
	metricFleetSloP99   = "pmu_fleet_slo_detect_p99_seconds"
	metricFleetShedRate = "pmu_fleet_shed_rate"
	metricFleetHealthy  = "pmu_fleet_healthy_backends"
	labelBackend        = "backend"
	labelReason         = "reason"
	reasonProxy         = "proxy"
	reasonProbe         = "probe"

	// Span stage labels owned by the router: the root span covering the
	// whole routed exchange, and one proxy child per backend attempt.
	// stageDetect names the backend-side detect stage the fleet SLOs
	// read out of scraped histograms.
	stageRoute  = "route"
	stageProxy  = "proxy"
	stageDetect = "detect"
)

// Config configures New.
type Config struct {
	// Backends are the primary pool's base URLs (at least one).
	Backends []string
	// CanaryBackends are the candidate pool's base URLs (empty disables
	// canary evaluation).
	CanaryBackends []string
	// Candidate is the fingerprint under evaluation; it labels the
	// canary report and is the default artifact POST /v1/canary/promote
	// reloads onto.
	Candidate string
	// CanaryPercent is the percentage (0–100) of detect traffic mirrored
	// to the canary pool. Shadow mode is CanaryPercent = 100.
	CanaryPercent int
	// MinPairs is the promotion gate's minimum shadow-pair count
	// (default 1).
	MinPairs int
	// Tolerance bounds acceptable per-scenario quality regression:
	// promotion needs ΔIA ≥ −Tolerance and ΔFA ≤ Tolerance (default 0 —
	// byte-identical models always pass; quality must not regress at
	// all).
	Tolerance float64
	// MaxInFlight bounds concurrent proxied requests per backend
	// (default 256).
	MaxInFlight int
	// ProbeEvery is the health-probe period (default 250ms).
	ProbeEvery time.Duration
	// ShadowTimeout bounds each mirrored shadow copy (default 30s), so a
	// canary backend that accepts a connection and never answers cannot
	// wedge report/promote draining or Close.
	ShadowTimeout time.Duration
	// HTTPClient overrides the transport to the backends.
	HTTPClient *http.Client
	// Logger receives structured ejection/readmission/promotion logs;
	// nil disables logging.
	Logger *slog.Logger
	// Tracer, when non-nil, records route/proxy spans with tail
	// sampling and serves retained traces at GET /debug/traces. Span
	// context propagates to the backends in the Traceparent header, so
	// a router trace and the backend traces it caused share one ID.
	Tracer *obs.Tracer
	// FleetWindow is the rolling window the fleet-health SLOs cover
	// (default 1 minute).
	FleetWindow time.Duration
}

// Router is the fleet front-end. Create with New, serve Routes, stop
// with Close.
type Router struct {
	cfg     Config
	primary *Pool
	canary  *Pool
	differ  *Differ
	reg     *obs.Registry
	log     *slog.Logger
	tracer  *obs.Tracer
	fleet   *fleetAggregator

	proxied   map[string]*obs.Counter
	failovers *obs.Counter
	noBackend *obs.Counter
	shadowed  *obs.Counter
	desperate *obs.Counter
	proxyLat  map[string]*obs.Histogram

	stop   context.CancelFunc
	probes sync.WaitGroup
}

// New validates cfg, builds the pools, and starts the health prober.
// The prober stops when ctx ends or Close is called, whichever first.
func New(ctx context.Context, cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("%w: no backends", ErrConfig)
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = defaultProbeEvery
	}
	if cfg.ShadowTimeout <= 0 {
		cfg.ShadowTimeout = defaultShadowTimeout
	}
	primary, err := NewPool(poolNamePrimary, cfg.Backends, cfg.MaxInFlight, cfg.HTTPClient)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	var canary *Pool
	if len(cfg.CanaryBackends) > 0 {
		if canary, err = NewPool(poolNameCanary, cfg.CanaryBackends, cfg.MaxInFlight, cfg.HTTPClient); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrConfig, err)
		}
	}
	reg := obs.NewRegistry()
	r := &Router{
		cfg:       cfg,
		primary:   primary,
		canary:    canary,
		reg:       reg,
		log:       cfg.Logger,
		proxied:   map[string]*obs.Counter{},
		proxyLat:  map[string]*obs.Histogram{},
		failovers: reg.Counter(metricFailovers, "proxied requests retried on another backend"),
		noBackend: reg.Counter(metricNoBackend, "requests refused with no backend available"),
		shadowed:  reg.Counter(metricShadow, "detect requests mirrored to the canary pool"),
	}
	for _, route := range []string{routeDetect, routeIngest} {
		r.proxied[route] = reg.Counter(metricProxied, "requests proxied per route", labelRoute, route)
		r.proxyLat[route] = reg.Histogram(metricProxySecs, "proxy latency per route", labelRoute, route)
	}
	r.desperate = reg.Counter(metricDesperate, "desperate-pass acquisitions: every healthy backend exhausted, ejected ones tried")
	r.differ = newDiffer(cfg.Candidate, cfg.CanaryPercent, cfg.MinPairs, cfg.Tolerance, reg)
	if cfg.Tracer != nil {
		r.tracer = cfg.Tracer
		reg.AttachCounter(metricTracesKept, "traces retained by tail sampling", r.tracer.KeptCounter())
		reg.AttachCounter(metricTracesDropped, "traces dropped by tail sampling", r.tracer.DroppedCounter())
	}
	r.fleet = newFleetAggregator(cfg.FleetWindow, []*Pool{primary, canary})
	r.wireFleetMetrics()

	pctx, stop := context.WithCancel(ctx)
	r.stop = stop
	r.probes.Add(1)
	go r.probeLoop(pctx)
	return r, nil
}

// wireFleetMetrics registers the ejection/readmission counters and the
// pmu_fleet_* gauges. Per-backend series carry pool+backend labels; the
// SLO gauges summarize the primary pool over the rolling window. Each
// metric name has exactly one registration site (labels fan the series
// out), which keeps the /metrics page's help strings single-sourced.
func (r *Router) wireFleetMetrics() {
	reg := r.reg
	for _, p := range []*Pool{r.primary, r.canary} {
		if p == nil {
			continue
		}
		pool := p.name
		for _, b := range p.backends {
			for _, reason := range []string{reasonProxy, reasonProbe} {
				c := reg.Counter(metricEjections, "backend ejections per reason (proxy fault vs failed probe)",
					labelRouterPool, pool, labelBackend, b.url, labelReason, reason)
				if reason == reasonProxy {
					b.ejectProxy = c
				} else {
					b.ejectProbe = c
				}
			}
			b.readmits = reg.Counter(metricReadmissions, "backends readmitted to the healthy set",
				labelRouterPool, pool, labelBackend, b.url)
			bb, v := b, r.fleet.view(b)
			reg.GaugeFunc(metricFleetUp, "1 when the prober holds the backend healthy", func() float64 {
				if bb.healthy.Load() {
					return 1
				}
				return 0
			}, labelRouterPool, pool, labelBackend, b.url)
			reg.GaugeFunc(metricFleetRequests, "cumulative requests per backend, scraped from /v1/stats", func() float64 {
				return float64(v.lastPoint().requests)
			}, labelRouterPool, pool, labelBackend, b.url)
			reg.GaugeFunc(metricFleetSamples, "cumulative ingested samples per backend, scraped from /v1/stats", func() float64 {
				return float64(v.lastPoint().samples)
			}, labelRouterPool, pool, labelBackend, b.url)
			reg.GaugeFunc(metricFleetShed, "cumulative shed requests per backend, scraped from /v1/stats", func() float64 {
				return float64(v.lastPoint().shed)
			}, labelRouterPool, pool, labelBackend, b.url)
			reg.GaugeFunc(metricFleetP99, "detect p99 seconds per backend, cumulative histogram", func() float64 {
				return v.lastPoint().stages[stageDetect].Quantile(0.99)
			}, labelRouterPool, pool, labelBackend, b.url)
		}
	}
	reg.GaugeFunc(metricFleetAvail, "healthy fraction of primary probe points over the SLO window", r.fleet.sloAvailability)
	reg.GaugeFunc(metricFleetSloP99, "windowed primary-pool detect p99 seconds", r.fleet.sloP99Seconds)
	reg.GaugeFunc(metricFleetShedRate, "windowed primary-pool shed/requests ratio", r.fleet.sloShedRate)
	reg.GaugeFunc(metricFleetHealthy, "primary backends currently healthy", func() float64 {
		n := 0
		for _, b := range r.primary.backends {
			if b.healthy.Load() {
				n++
			}
		}
		return float64(n)
	})
}

// Close stops the prober and waits for outstanding shadow copies.
func (r *Router) Close() {
	r.stop()
	r.probes.Wait()
	r.differ.DrainShadow()
}

// Differ exposes the canary evaluation (tests and the promote path
// drain and read it).
func (r *Router) Differ() *Differ { return r.differ }

// Registry exposes the router's metrics registry (/metrics).
func (r *Router) Registry() *obs.Registry { return r.reg }

// probeLoop refreshes every backend's health each period.
func (r *Router) probeLoop(ctx context.Context) {
	defer r.probes.Done()
	t := time.NewTicker(r.cfg.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			r.probeAll(ctx, now)
		}
	}
}

func (r *Router) probeAll(ctx context.Context, now time.Time) {
	// Probes get at least a second regardless of the probe period: a
	// busy backend answering slowly must not read as a dead one.
	pctx, cancel := context.WithTimeout(ctx, max(4*r.cfg.ProbeEvery, time.Second))
	defer cancel()
	for _, p := range []*Pool{r.primary, r.canary} {
		if p == nil {
			continue
		}
		for _, b := range p.backends {
			was := b.healthy.Load()
			p.probe(pctx, b, now, r.cfg.ProbeEvery)
			if is := b.healthy.Load(); is != was && r.log != nil {
				verb := "backend readmitted"
				if !is {
					verb = "backend ejected"
				}
				r.log.LogAttrs(ctx, slog.LevelWarn, verb,
					slog.String(obs.AttrComponent, "router"),
					slog.String(labelRouterPool, p.name),
					slog.String("backend", b.url),
					slog.Uint64("ejections", b.ejections.Load()))
			}
		}
	}
	// Ride the probe pass with a stats scrape: the fleet aggregator's
	// rolling window advances at probe cadence.
	r.fleet.scrape(pctx, now)
}

// Routes builds the router's handler.
func (r *Router) Routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/detect", r.handleDetect)
	mux.HandleFunc("POST /v1/ingest", r.handleIngest)
	mux.HandleFunc("POST /v1/reload", r.handleReload)
	mux.HandleFunc("GET /v1/backends", r.handleBackends)
	mux.HandleFunc("GET /v1/fleet", r.handleFleet)
	mux.HandleFunc("GET /v1/canary/report", r.handleCanaryReport)
	mux.HandleFunc("POST /v1/canary/promote", r.handlePromote)
	mux.HandleFunc("GET /debug/traces", r.handleTraces)
	mux.HandleFunc("GET /healthz", r.handleHealth)
	mux.Handle("GET /metrics", r.reg)
	return r.traceMiddleware(mux)
}

// statusWriter observes the relayed status so the root span can record
// server-class failures.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// traceMiddleware resolves each request's trace context (a caller's
// Traceparent or X-Trace-Id is kept so traces span caller, router, and
// backend; an ID is minted otherwise), opens the root route span, and
// echoes trace and span IDs on the response. With no Tracer configured
// the span calls are nil receivers — zero allocation, ID echo only.
func (r *Router) traceMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, remoteParent, ok := obs.ParseTraceParent(req.Header.Get(obs.TraceParentHeader))
		if !ok {
			id = req.Header.Get(obs.TraceHeader)
		}
		if id == "" {
			id = obs.NewTraceID()
		}
		w.Header().Set(obs.TraceHeader, id)
		ctx := obs.WithTraceID(req.Context(), id)
		ctx = obs.WithRemoteParent(ctx, remoteParent)
		ctx, span := r.tracer.StartSpan(ctx, stageRoute)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		if span != nil {
			span.SetAttr("path", req.URL.Path)
			w.Header().Set(obs.SpanHeader, span.ID())
		}
		next.ServeHTTP(sw, req.WithContext(ctx))
		if sw.status >= http.StatusInternalServerError {
			span.SetErrorString(http.StatusText(sw.status))
		}
		span.End()
	})
}

// forward sends the body to the pool's least-loaded backend, failing
// over to the next-best member on transport errors and retryable-coded
// responses. Healthy backends are tried first; once they are exhausted
// a desperate pass tries ejected ones too, so a transient mass
// ejection cannot black-hole traffic. The final response — success or
// a terminal error from the backend — is returned whole for
// byte-identical relay. A fully exhausted pool returns the last
// retryable response if any backend produced one, else ErrNoBackends.
func (r *Router) forward(ctx context.Context, pool *Pool, pathAndQuery, contentType string, body []byte) (*client.RawResponse, *Backend, error) {
	tried := map[*Backend]bool{}
	var lastShed *client.RawResponse
	var lastShedBackend *Backend
	first := true
	for _, desperate := range []bool{false, true} {
		for {
			b, release, ok := pool.acquire(tried, desperate)
			if !ok {
				break
			}
			if desperate {
				r.desperate.Inc()
			}
			if !first {
				r.failovers.Inc()
			}
			first = false
			tried[b] = true
			// One proxy child span per attempt: a failover leaves a failed
			// proxy span beside the successful one, so the retained trace
			// shows which backend was tried first and why it lost.
			spanCtx, span := r.tracer.StartSpan(ctx, stageProxy)
			if span != nil {
				span.SetAttr(labelBackend, b.url)
				span.SetAttr(labelRouterPool, pool.name)
			}
			raw, err := b.cli.PostRaw(spanCtx, pathAndQuery, contentType, body)
			release()
			if err != nil {
				span.SetError(err)
				span.End()
				if ctx.Err() != nil {
					return nil, nil, ctx.Err()
				}
				b.markFault(err)
				continue
			}
			if raw.Status >= http.StatusInternalServerError {
				span.SetErrorString(http.StatusText(raw.Status))
			}
			span.End()
			if raw.Retryable() {
				// The backend answered but is shedding or not ready;
				// remember its answer (it carries Retry-After) and try a
				// peer.
				lastShed, lastShedBackend = raw, b
				continue
			}
			return raw, b, nil
		}
	}
	if lastShed != nil {
		return lastShed, lastShedBackend, nil
	}
	r.noBackend.Inc()
	return nil, nil, fmt.Errorf("%w: pool %s has no admissible backend", ErrNoBackends, pool.name)
}

func (r *Router) handleDetect(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	body, err := readBody(req)
	if err != nil {
		r.writeError(w, req, bodyCode(err), err)
		return
	}
	r.proxied[routeDetect].Inc()
	r.differ.noteRequest()
	raw, _, err := r.forward(req.Context(), r.primary, "/v1/detect", contentTypeOf(req), body)
	if err != nil {
		r.writeError(w, req, api.CodeUnavailable, err)
		return
	}
	if r.canary != nil && raw.Status == http.StatusOK && r.differ.selects() {
		r.shadowed.Inc()
		r.differ.shadow(req.Context(), r, "/v1/detect", contentTypeOf(req), body,
			req.Header.Get(api.EvalScenarioHeader), req.Header.Get(api.EvalTruthHeader), raw)
	}
	relay(w, raw)
	r.proxyLat[routeDetect].Observe(time.Since(start))
}

// handleIngest proxies both JSON and binary-frame ingest bodies
// verbatim, preserving the query string (binary frames carry the shard
// in ?shard=).
func (r *Router) handleIngest(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	body, err := readBody(req)
	if err != nil {
		r.writeError(w, req, bodyCode(err), err)
		return
	}
	r.proxied[routeIngest].Inc()
	path := "/v1/ingest"
	if q := req.URL.RawQuery; q != "" {
		path += "?" + q
	}
	raw, _, err := r.forward(req.Context(), r.primary, path, contentTypeOf(req), body)
	if err != nil {
		r.writeError(w, req, api.CodeUnavailable, err)
		return
	}
	relay(w, raw)
	r.proxyLat[routeIngest].Observe(time.Since(start))
}

// handleReload broadcasts one reload to every primary backend. The
// model source is exactly one of fingerprint or path (or neither:
// retrain) — the same contract the backend enforces, checked here so
// an ambiguous request is rejected once instead of fanning out.
func (r *Router) handleReload(w http.ResponseWriter, req *http.Request) {
	var rr api.ReloadRequest
	if err := json.NewDecoder(req.Body).Decode(&rr); err != nil {
		r.writeError(w, req, api.CodeBadRequest, err)
		return
	}
	sources := 0
	for _, src := range []string{rr.Path, rr.Fingerprint, rr.PatchPath} {
		if src != "" {
			sources++
		}
	}
	if sources > 1 {
		r.writeError(w, req, api.CodeBadRequest,
			fmt.Errorf("%w: reload names more than one of path, fingerprint, patch_path; pick one", ErrBadRequest))
		return
	}
	out := api.FleetReload{}
	for _, b := range r.primary.backends {
		var res *client.ReloadResult
		var err error
		switch {
		case rr.Fingerprint != "":
			res, err = b.cli.ReloadModel(req.Context(), rr.Shard, rr.Fingerprint)
		case rr.PatchPath != "":
			res, err = b.cli.ReloadPatch(req.Context(), rr.Shard, rr.PatchPath)
		default:
			res, err = b.cli.Reload(req.Context(), rr.Shard, rr.Path)
		}
		br := api.BackendReload{Backend: b.url}
		if err != nil {
			br.Error = err.Error()
			out.Failed = true
		} else {
			br.Results = []api.ReloadResult{*res}
		}
		out.Results = append(out.Results, br)
	}
	if out.Failed && r.log != nil {
		r.log.LogAttrs(req.Context(), slog.LevelWarn, "fleet reload incomplete",
			slog.String(obs.AttrComponent, "router"),
			slog.String("shard", rr.Shard),
			slog.Int("backends", len(out.Results)))
	}
	writeJSON(w, http.StatusOK, out)
}

func (r *Router) handleBackends(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, api.FleetStatus{
		Primary: r.primary.Statuses(),
		Canary:  r.canary.Statuses(),
	})
}

func (r *Router) handleCanaryReport(w http.ResponseWriter, req *http.Request) {
	r.differ.DrainShadow()
	writeJSON(w, http.StatusOK, r.differ.Report())
}

// handlePromote reloads every primary backend onto the candidate
// artifact, gated on the canary report unless forced. The canary
// evidence must exist and pass; a blocked promotion answers 409 with
// the failed gates.
func (r *Router) handlePromote(w http.ResponseWriter, req *http.Request) {
	var pr api.PromoteRequest
	if err := json.NewDecoder(req.Body).Decode(&pr); err != nil {
		r.writeError(w, req, api.CodeBadRequest, err)
		return
	}
	fp := pr.Fingerprint
	if fp == "" {
		fp = r.cfg.Candidate
	}
	if fp == "" {
		r.writeError(w, req, api.CodeBadRequest, fmt.Errorf("%w: no candidate fingerprint", ErrConfig))
		return
	}
	r.differ.DrainShadow()
	report := r.differ.Report()
	if !report.Promotable && !pr.Force {
		r.writeError(w, req, api.CodePromotionBlocked,
			fmt.Errorf("%w: %v", ErrPromotionBlocked, report.Reasons))
		return
	}
	resp := api.PromoteResponse{Report: report}
	okBackends := 0
	for _, b := range r.primary.backends {
		br := api.BackendReload{Backend: b.url}
		shards := pr.Shards
		if len(shards) == 0 {
			shards = readyShards(b)
		}
		// Every shard is attempted even after one fails: stopping early
		// would widen the split, not contain it.
		var errs []string
		if len(shards) == 0 {
			// No shard set was given or probed: nothing can be promoted
			// onto the backend, healthy or ejected (a backend counts as
			// healthy before its first probe), and counting the no-op as
			// success would hide a fleet split behind a 200.
			errs = append(errs, "shard set unknown: none requested and no probe has listed one")
		}
		for _, shard := range shards {
			res, err := b.cli.ReloadModel(req.Context(), shard, fp)
			if err != nil {
				errs = append(errs, fmt.Sprintf("shard %s: %v", shard, err))
				continue
			}
			br.Results = append(br.Results, *res)
		}
		if len(errs) > 0 {
			br.Error = strings.Join(errs, "; ")
			resp.Failed = true
		} else {
			okBackends++
		}
		resp.Results = append(resp.Results, br)
	}
	if r.log != nil {
		level, verb := slog.LevelInfo, "candidate promoted"
		if resp.Failed {
			// A partial promotion leaves the fleet split across models —
			// operators must notice.
			level, verb = slog.LevelWarn, "promotion incomplete, fleet split across models"
		}
		r.log.LogAttrs(req.Context(), level, verb,
			slog.String(obs.AttrComponent, "router"),
			slog.String("fingerprint", fp),
			slog.Bool("forced", pr.Force),
			slog.Bool("failed", resp.Failed),
			slog.Int("backends", len(resp.Results)))
	}
	status := http.StatusOK
	if resp.Failed && okBackends == 0 {
		status = http.StatusBadGateway
	}
	writeJSON(w, status, resp)
}

// readyShards lists the shards the backend's last probe saw serving.
func readyShards(b *Backend) []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for _, st := range b.shards {
		if st.State == "ready" || st.Model != "" {
			out = append(out, st.Name)
		}
	}
	return out
}

func (r *Router) handleHealth(w http.ResponseWriter, req *http.Request) {
	for _, b := range r.primary.backends {
		if b.healthy.Load() {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
			return
		}
	}
	r.writeError(w, req, api.CodeUnavailable, fmt.Errorf("%w: every primary backend is ejected", ErrNoBackends))
}

// relay writes the backend's response byte-identically.
func relay(w http.ResponseWriter, raw *client.RawResponse) {
	if raw.ContentType != "" {
		w.Header().Set("Content-Type", raw.ContentType)
	}
	if raw.RetryAfter != "" {
		w.Header().Set("Retry-After", raw.RetryAfter)
	}
	if raw.TraceID != "" {
		w.Header().Set(obs.TraceHeader, raw.TraceID)
	}
	w.WriteHeader(raw.Status)
	_, _ = w.Write(raw.Body)
}

func (r *Router) writeError(w http.ResponseWriter, req *http.Request, code api.Code, err error) {
	env := api.ErrorEnvelope{
		Code:      code,
		Error:     err.Error(),
		Retryable: code.Retryable(),
		TraceID:   obs.TraceID(req.Context()),
	}
	if code == api.CodeUnavailable || code == api.CodeOverloaded {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code.HTTPStatus(), env)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// readBody reads a proxied request body, rejecting — never silently
// truncating — anything over the 64 MiB bound: one byte past the limit
// proves the body is oversized, and forwarding a truncated payload
// would surface as a confusing decode error on the backend (or worse,
// silently dropped trailing data).
func readBody(req *http.Request) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(req.Body, api.MaxBodyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("%w: reading body: %v", ErrBadRequest, err)
	}
	if len(data) > api.MaxBodyBytes {
		return nil, fmt.Errorf("%w: body exceeds %d bytes", ErrBodyTooLarge, api.MaxBodyBytes)
	}
	return data, nil
}

// bodyCode maps a readBody failure onto its wire code.
func bodyCode(err error) api.Code {
	if errors.Is(err, ErrBodyTooLarge) {
		return api.CodeTooLarge
	}
	return api.CodeBadRequest
}

func contentTypeOf(req *http.Request) string {
	if ct := req.Header.Get("Content-Type"); ct != "" {
		return ct
	}
	return "application/json"
}
