// Package httpserve adapts the service layer to HTTP. Control-plane
// calls (reload, shards, stats, health) speak JSON; the data plane,
// detect and ingest, speaks either JSON or the compact binary frame
// codec from internal/wire — a POST with Content-Type
// api.FrameContentType and ?shard= carries encoded frames (one per
// sample on /v1/detect, one on /v1/ingest) and skips the JSON decode
// entirely. Both transports land on the same service.DetectBatch and
// service.Ingest calls and answer the same JSON responses, so reports
// and events are byte-identical across them (pinned by
// TestBinaryDetectMatchesJSON and TestBinaryIngestMatchesJSON).
//
// The package exists so cmd/outaged, the smoke harness, perfbench, the
// ratio gate and tests share one handler implementation instead of
// re-wiring routes per binary.
package httpserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"pmuoutage"
	"pmuoutage/api"
	"pmuoutage/internal/obs"
	"pmuoutage/internal/registry"
	"pmuoutage/internal/service"
	"pmuoutage/internal/wire"
)

// FrameContentType is api.FrameContentType, kept under this package's
// name for callers that still use it.
const FrameContentType = api.FrameContentType

// HTTP-layer metric names, registered on the service's registry so one
// /metrics page carries both views. Package-level snake_case consts
// with one registration site each (gridlint metricname).
const (
	metricHTTPRequests  = "pmu_http_requests_total"
	metricHTTPErrors    = "pmu_http_errors_total"
	metricHTTPSeconds   = "pmu_http_seconds"
	metricFrameDecode   = "pmu_frame_decode_seconds"
	metricTracesKept    = "pmu_traces_kept_total"
	metricTracesDropped = "pmu_traces_dropped_total"

	labelPath = "path"

	// Span stage labels owned by the HTTP layer: the root span covering
	// the whole exchange, and the response-encode child the detect
	// handler records (the shard pipeline owns queue/coalesce/detect).
	stageHTTP   = "http"
	stageEncode = "encode"
)

// routePaths are the daemon's endpoints; per-route HTTP series are
// pre-registered for exactly these, and requests to anything else
// record nothing (nil cells are no-ops).
var routePaths = []string{
	"/v1/detect", "/v1/ingest", "/v1/reload",
	"/v1/shards", "/v1/stats", "/healthz", "/metrics",
	"/debug/traces",
}

// ModelFetcher resolves a model artifact by content fingerprint — the
// seam the registry client plugs into so POST /v1/reload can name
// artifacts by fingerprint instead of daemon-local file paths.
// Implementations must verify the decoded model's fingerprint matches
// the requested one.
type ModelFetcher interface {
	Model(ctx context.Context, fingerprint string) (*pmuoutage.Model, error)
}

// Server adapts the service layer to HTTP.
type Server struct {
	svc     *service.Service
	timeout time.Duration // per-request deadline applied to detect/ingest
	logger  *slog.Logger  // nil disables access logs
	models  ModelFetcher  // nil: reload-by-fingerprint is rejected

	httpReqs    map[string]*obs.Counter
	httpErrs    map[string]*obs.Counter
	httpLat     map[string]*obs.Histogram
	frameDecode *obs.Histogram
}

// New builds a server over svc. timeout bounds each detect/ingest call;
// a nil logger disables access logs.
func New(svc *service.Service, timeout time.Duration, logger *slog.Logger) *Server {
	s := &Server{
		svc:      svc,
		timeout:  timeout,
		httpReqs: map[string]*obs.Counter{},
		httpErrs: map[string]*obs.Counter{},
		httpLat:  map[string]*obs.Histogram{},
	}
	if logger != nil {
		s.logger = logger.With(slog.String(obs.AttrComponent, "http"))
	}
	reg := svc.Metrics()
	for _, p := range routePaths {
		s.httpReqs[p] = reg.Counter(metricHTTPRequests, "HTTP requests served", labelPath, p)
		s.httpErrs[p] = reg.Counter(metricHTTPErrors, "HTTP requests answered with status >= 400", labelPath, p)
		s.httpLat[p] = reg.Histogram(metricHTTPSeconds, "request latency, ingress to last byte", labelPath, p)
	}
	s.frameDecode = reg.Histogram(metricFrameDecode, "binary detect and ingest frame decode latency, per frame")
	if tr := svc.Tracer(); tr != nil {
		reg.AttachCounter(metricTracesKept, "traces retained by tail sampling", tr.KeptCounter())
		reg.AttachCounter(metricTracesDropped, "traces dropped by tail sampling", tr.DroppedCounter())
	}
	return s
}

// Routes builds the daemon's mux, wrapped in the telemetry middleware.
func (s *Server) Routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/detect", s.handleDetect)
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("POST /v1/reload", s.handleReload)
	mux.HandleFunc("GET /v1/shards", s.handleShards)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.svc.Metrics())
	mux.Handle("GET /debug/traces", s.svc.Tracer())
	return s.instrument(mux)
}

// instrument is the telemetry middleware: the shared trace ingress
// (obs.Ingress and obs.ServeRoot under the http root span), then the
// per-route counter, error counter, latency histogram, and one
// structured access line.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx, span := s.svc.Tracer().StartSpan(obs.Ingress(w, r), stageHTTP)
		r = r.WithContext(ctx)
		status := obs.ServeRoot(span, next, w, r)
		elapsed := time.Since(start)
		path := r.URL.Path
		s.httpReqs[path].Inc()
		s.httpLat[path].Observe(elapsed)
		if status >= 400 {
			s.httpErrs[path].Inc()
		}
		if lg := s.logger; lg != nil && lg.Enabled(ctx, slog.LevelInfo) {
			lg.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String(obs.AttrTraceID, obs.TraceID(ctx)),
				slog.String("method", r.Method),
				slog.String("path", path),
				slog.Int("status", status),
				slog.Duration("elapsed", elapsed))
		}
	})
}

// DebugMux serves the opt-in -debug-addr endpoints: pprof profiles and
// expvar counters on an explicit mux (never the default one, so the
// serving port exposes nothing extra).
func DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	var req api.DetectRequest
	var err error
	if isFrameBody(r) {
		req.Shard = r.URL.Query().Get("shard")
		req.Samples, err = s.frameSamples(w, r)
	} else {
		err = api.DecodeJSON(w, r, &req)
	}
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	reports, err := s.svc.DetectBatch(ctx, req.Shard, req.Samples)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	encStart := time.Now()
	api.WriteJSON(w, http.StatusOK, api.DetectResponse{Shard: req.Shard, Reports: reports})
	s.svc.Tracer().RecordSpan(r.Context(), stageEncode, s.svc.Counters(req.Shard).StageSeconds(service.StageEncode), encStart, time.Now())
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if isFrameBody(r) {
		s.handleIngestFrame(w, r)
		return
	}
	var req api.IngestRequest
	if err := api.DecodeJSON(w, r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	ev, err := s.svc.Ingest(ctx, req.Shard, req.Sample)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.svc.Counters(req.Shard).Frames(service.IngestJSON).Inc()
	api.WriteJSON(w, http.StatusOK, api.IngestResponse{Shard: req.Shard, Event: ev})
}

// handleIngestFrame is the binary ingest mode: the body's first wire
// frame is the sample (bytes after it are ignored), the shard comes
// from ?shard=. The sample aliases the pooled frame and is scored
// synchronously on the same monitor path as JSON ingest.
func (s *Server) handleIngestFrame(w http.ResponseWriter, r *http.Request) {
	shard := r.URL.Query().Get("shard")
	fr, err := s.readFrames(w, r)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	defer fr.release()
	f, err := fr.decode()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	ev, err := s.svc.Ingest(ctx, shard, frameSample(f))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.svc.Counters(shard).Frames(service.IngestBinary).Inc()
	api.WriteJSON(w, http.StatusOK, api.IngestResponse{Shard: shard, Event: ev})
}

// frameSamples decodes a binary detect body into one sample per frame.
func (s *Server) frameSamples(w http.ResponseWriter, r *http.Request) ([]pmuoutage.Sample, error) {
	fr, err := s.readFrames(w, r)
	if err != nil {
		return nil, err
	}
	defer fr.release()
	return fr.samples()
}

// frameSample converts a decoded frame into a facade sample whose
// phasors alias the frame's — safe for Ingest, which is synchronous,
// and the detector copies the channels it keeps.
func frameSample(f *wire.Frame) pmuoutage.Sample {
	return pmuoutage.Sample{Vm: f.Vm, Va: f.Va, Missing: appendMissing(nil, f)}
}

// ownedSample is frameSample with storage of its own: one allocation
// for the phasors and, when the frame marks buses missing, one for
// their indices.
func ownedSample(f *wire.Frame) pmuoutage.Sample {
	n := f.N()
	v := make([]float64, 2*n)
	copy(v, f.Vm)
	copy(v[n:], f.Va)
	s := pmuoutage.Sample{Vm: v[:n:n], Va: v[n:]}
	if f.Flags&wire.FlagMissing != 0 {
		k := 0
		for i := 0; i < n; i++ {
			if f.IsMissing(i) {
				k++
			}
		}
		s.Missing = appendMissing(make([]int, 0, k), f)
	}
	return s
}

// appendMissing appends the indices of the buses f marks missing.
func appendMissing(dst []int, f *wire.Frame) []int {
	if f.Flags&wire.FlagMissing != 0 {
		for i := 0; i < f.N(); i++ {
			if f.IsMissing(i) {
				dst = append(dst, i)
			}
		}
	}
	return dst
}

// isFrameBody reports whether r carries binary wire frames.
func isFrameBody(r *http.Request) bool {
	return strings.HasPrefix(r.Header.Get("Content-Type"), api.FrameContentType)
}

// frameReader walks a binary request body, wire frames back to back,
// read whole into a pooled buffer and decoded one at a time into one
// pooled frame. It is the one frame decoder of binary detect and
// binary ingest.
type frameReader struct {
	buf    *wire.Buffer
	f      *wire.Frame
	off    int            // start of the next frame in buf.B
	timing *obs.Histogram // per-frame decode latency
}

// readFrames reads r's body into a pooled buffer with api.ReadBody, the
// bound the JSON path decodes under. The caller releases the reader.
func (s *Server) readFrames(w http.ResponseWriter, r *http.Request) (frameReader, error) {
	buf := wire.GetBuffer()
	var err error
	if buf.B, err = api.ReadBody(w, r, buf.B); err != nil {
		wire.PutBuffer(buf)
		return frameReader{}, err
	}
	return frameReader{buf: buf, f: wire.GetFrame(), timing: s.frameDecode}, nil
}

// count is the number of frames the size fields chain through from the
// read position to the end of the body, stopping at the first it cannot
// read; decode checks every frame.
func (fr *frameReader) count() int {
	k := 0
	for off := fr.off; off < len(fr.buf.B); k++ {
		size, err := wire.FrameSize(fr.buf.B[off:])
		if err != nil {
			break
		}
		off += size
	}
	return k
}

// samples decodes every frame from the read position to the end of the
// body into one sample each. Each sample owns its storage: a request
// whose deadline passes returns while the shard may still read its
// samples, so they cannot alias the pooled frame. An empty body gives
// no samples, as an empty JSON batch does.
func (fr *frameReader) samples() ([]pmuoutage.Sample, error) {
	out := make([]pmuoutage.Sample, 0, fr.count())
	for fr.off < len(fr.buf.B) {
		f, err := fr.decode()
		if err != nil {
			return nil, err
		}
		out = append(out, ownedSample(f))
	}
	return out, nil
}

// decode decodes the frame at the read position into the reader's
// pooled frame, valid until the next decode or release, and times it
// on the frame-decode histogram. A malformed or truncated frame is
// api.ErrBadRequest.
func (fr *frameReader) decode() (*wire.Frame, error) {
	start := time.Now()
	n, err := wire.DecodeFrame(fr.buf.B[fr.off:], fr.f)
	fr.timing.Observe(time.Since(start))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", api.ErrBadRequest, err)
	}
	fr.off += n
	return fr.f, nil
}

// release returns the buffer and frame to their pools.
func (fr *frameReader) release() {
	wire.PutFrame(fr.f)
	wire.PutBuffer(fr.buf)
}

// SetModelSource wires a registry-backed artifact resolver into the
// reload path. Call before Routes; a nil fetcher (the default) makes
// reload-by-fingerprint answer a config error.
func (s *Server) SetModelSource(f ModelFetcher) { s.models = f }

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req api.ReloadRequest
	if err := api.DecodeJSON(w, r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	if req.PatchPath != "" {
		if req.Path != "" || req.Fingerprint != "" {
			s.writeError(w, r, fmt.Errorf("%w: reload names a patch alongside a model source; pick one", api.ErrBadRequest))
			return
		}
		p, err := LoadPatch(req.PatchPath)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		if err := s.svc.ApplyPatch(ctx, req.Shard, p); err != nil {
			s.writeError(w, r, err)
			return
		}
	} else {
		m, err := s.resolveModel(ctx, req)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		if err := s.svc.Reload(ctx, req.Shard, m); err != nil {
			s.writeError(w, r, err)
			return
		}
	}
	for _, st := range s.svc.Shards() {
		if st.Name == req.Shard {
			api.WriteJSON(w, http.StatusOK, api.ReloadResult{Shard: st.Name, Generation: st.Generation, Model: st.Model})
			return
		}
	}
	s.writeError(w, r, fmt.Errorf("%w: %q vanished after reload", service.ErrUnknownShard, req.Shard))
}

// resolveModel turns a reload request into the model to swap in: nil
// (retrain from the shard's options), a file artifact, or a registry
// artifact pulled by fingerprint.
func (s *Server) resolveModel(ctx context.Context, req api.ReloadRequest) (*pmuoutage.Model, error) {
	switch {
	case req.Path != "" && req.Fingerprint != "":
		return nil, fmt.Errorf("%w: reload names both path and fingerprint; pick one", api.ErrBadRequest)
	case req.Path != "":
		return LoadModel(req.Path)
	case req.Fingerprint != "":
		if s.models == nil {
			return nil, fmt.Errorf("%w: reload by fingerprint needs a registry (-registry)", service.ErrConfig)
		}
		return s.models.Model(ctx, req.Fingerprint)
	default:
		return nil, nil
	}
}

// LoadModel reads one model artifact from disk.
func LoadModel(path string) (*pmuoutage.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", api.ErrBadRequest, err)
	}
	defer func() { _ = f.Close() }()
	return pmuoutage.DecodeModel(f)
}

// LoadPatch reads one model patch artifact from disk.
func LoadPatch(path string) (*pmuoutage.Patch, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", api.ErrBadRequest, err)
	}
	defer func() { _ = f.Close() }()
	return pmuoutage.DecodePatch(f)
}

func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, s.svc.Shards())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, s.svc.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.svc.Ready() {
		api.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		return
	}
	api.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no shard ready"})
}

// requestCtx applies the server's per-request deadline on top of the
// connection context.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.timeout)
}

// CodeOf maps the typed error taxonomy onto the stable wire codes the
// error envelope carries — the single classification both the HTTP
// status (via Code.HTTPStatus) and the clients' branch decisions derive
// from.
func CodeOf(err error) api.Code {
	switch {
	case errors.Is(err, service.ErrUnknownShard):
		return api.CodeUnknownShard
	case errors.Is(err, pmuoutage.ErrBadSample):
		return api.CodeBadSample
	case errors.Is(err, pmuoutage.ErrBadLine):
		return api.CodeBadLine
	case errors.Is(err, pmuoutage.ErrUnknownCase):
		return api.CodeUnknownCase
	case errors.Is(err, pmuoutage.ErrModelVersion):
		return api.CodeModelVersion
	case errors.Is(err, pmuoutage.ErrPatchBase):
		return api.CodePatchBase
	case errors.Is(err, pmuoutage.ErrBadPatch), errors.Is(err, pmuoutage.ErrPatchVersion):
		return api.CodeBadPatch
	case errors.Is(err, pmuoutage.ErrBadModel):
		return api.CodeBadModel
	case errors.Is(err, registry.ErrUnknownModel):
		return api.CodeUnknownModel
	case errors.Is(err, registry.ErrBadArtifact), errors.Is(err, registry.ErrMismatch):
		return api.CodeBadModel
	case errors.Is(err, registry.ErrFetch):
		return api.CodeUnavailable
	case errors.Is(err, service.ErrConfig):
		return api.CodeConfig
	case errors.Is(err, service.ErrOverloaded):
		return api.CodeOverloaded
	case errors.Is(err, service.ErrUnavailable):
		return api.CodeUnavailable
	case errors.Is(err, service.ErrClosed):
		return api.CodeClosed
	case errors.Is(err, context.DeadlineExceeded):
		return api.CodeDeadline
	default:
		// The request edge's own refusals (a body past the bound, an
		// unparseable one), else internal.
		return api.RequestCode(err)
	}
}

// writeError logs a failed request and answers it with the error
// envelope of CodeOf(err).
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	code := CodeOf(err)
	if lg := s.logger; lg != nil {
		lg.LogAttrs(r.Context(), slog.LevelWarn, "request failed",
			slog.String(obs.AttrTraceID, obs.TraceID(r.Context())),
			slog.String("path", r.URL.Path),
			slog.Bool("retryable", code.Retryable()),
			slog.String("cause", err.Error()))
	}
	api.WriteError(w, code, err.Error(), obs.TraceID(r.Context()))
}

// CompareReports asserts the served reports are identical to the
// library's, through the same JSON encoding the wire uses.
func CompareReports(got, want []*pmuoutage.Report) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("served reports differ from direct DetectBatch:\n got %s\nwant %s", g, w)
	}
	return nil
}
