// Package client is the Go client for the outaged detection daemon
// (cmd/outaged) and the outagerouter front-end: HTTP with bounded,
// deterministic retries. Detect posts its samples as binary wire
// frames (api.FrameContentType, the internal/wire codec) when every
// sample has a frame form, and as JSON otherwise; every other body the
// client builds, and every response it decodes, is JSON.
//
// Transient conditions — transport errors and responses whose error
// envelope carries a retryable code (overloaded, unavailable; for
// servers that predate the code field, HTTP 429/503) — are retried up
// to Config.MaxRetries times with exponential backoff, honouring the
// server's Retry-After header when present. Terminal responses (bad
// request, unknown shard, ...) fail immediately with ErrRequest.
// Every wait is context-aware: a cancelled context stops the retry
// loop mid-backoff.
//
// All request and response bodies are the shared wire types of the api
// package — the same structs the server encodes, so the two sides
// cannot drift.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"pmuoutage"
	"pmuoutage/api"
	"pmuoutage/internal/obs"
	"pmuoutage/internal/wire"
)

// Typed errors of the client. Everything the client itself mints wraps
// one of these, so callers branch with errors.Is.
var (
	// ErrConfig reports an invalid Config passed to New.
	ErrConfig = errors.New("client: invalid config")
	// ErrRequest reports a terminal server response — a non-retryable
	// error code (or HTTP status, for code-less servers). The wrapped
	// detail carries the code, status, and the server's error body.
	ErrRequest = errors.New("client: request failed")
	// ErrExhausted reports that every attempt hit a retryable condition
	// (transport error, overloaded, unavailable). The wrapped detail
	// carries the last failure.
	ErrExhausted = errors.New("client: retries exhausted")
)

// Config configures New.
type Config struct {
	// BaseURL is the daemon's root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient overrides the transport (default http.DefaultClient).
	HTTPClient *http.Client
	// MaxRetries is how many times a retryable failure is retried after
	// the first attempt (default 3; negative disables retries).
	MaxRetries int
	// BaseBackoff is the delay before the first retry; it doubles per
	// attempt up to MaxBackoff. A Retry-After header on a retryable
	// response overrides the computed delay for that attempt. Defaults
	// 100ms and 2s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Logger, when non-nil, receives a structured line per retry (warn)
	// carrying the request's trace ID, attempt number, and backoff. Nil
	// disables logging; requests behave identically either way.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	return c
}

// Client talks to one outaged daemon (or router). It is safe for
// concurrent use.
type Client struct {
	cfg Config
}

// New validates cfg and returns a client.
func New(cfg Config) (*Client, error) {
	if strings.TrimSpace(cfg.BaseURL) == "" {
		return nil, fmt.Errorf("%w: empty BaseURL", ErrConfig)
	}
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	return &Client{cfg: cfg.withDefaults()}, nil
}

// BaseURL returns the normalised server root the client talks to.
func (c *Client) BaseURL() string { return c.cfg.BaseURL }

// ReloadResult is the daemon's reply to a reload: the shard's new
// incarnation counter and the fingerprint of the model now serving.
type ReloadResult = api.ReloadResult

// Detect classifies samples on the named shard and returns one report
// per sample, in order — exactly what the shard's System.DetectBatch
// returns. Overload and not-ready conditions are retried.
//
// The samples go as one wire frame each when every one fits a frame:
// 1 to wire.MaxBuses buses, as many angles as magnitudes, and every
// missing index in range. Otherwise, and for an empty batch, they go as
// the JSON body, so the server names a malformed sample's defect as it
// always has. Non-finite values, which JSON cannot carry, reach the
// server in frames and come back as bad_sample.
func (c *Client) Detect(ctx context.Context, shard string, samples []pmuoutage.Sample) ([]*pmuoutage.Report, error) {
	var out api.DetectResponse
	var err error
	if body, ok := encodeFrames(samples); ok {
		err = c.post(ctx, "/v1/detect?shard="+url.QueryEscape(shard), api.FrameContentType, body, &out)
	} else {
		err = c.postJSON(ctx, "/v1/detect", api.DetectRequest{Shard: shard, Samples: samples}, &out)
	}
	if err != nil {
		return nil, err
	}
	return out.Reports, nil
}

// encodeFrames encodes samples as concatenated wire frames, sequence
// numbers counting from 0, or reports false when the batch is empty or
// some sample has no frame form.
func encodeFrames(samples []pmuoutage.Sample) ([]byte, bool) {
	if len(samples) == 0 {
		return nil, false
	}
	size := 0
	for _, s := range samples {
		n := len(s.Vm)
		if n == 0 || n > wire.MaxBuses || len(s.Va) != n {
			return nil, false
		}
		for _, i := range s.Missing {
			if i < 0 || i >= n {
				return nil, false
			}
		}
		size += wire.EncodedSize(n, len(s.Missing) > 0)
	}
	f := wire.GetFrame()
	defer wire.PutFrame(f)
	body := make([]byte, 0, size)
	for k, s := range samples {
		f.Reset(len(s.Vm))
		f.Seq = uint32(k)
		copy(f.Vm, s.Vm)
		copy(f.Va, s.Va)
		for _, i := range s.Missing {
			f.MarkMissing(i)
		}
		var err error
		if body, err = wire.AppendFrame(body, f); err != nil {
			return nil, false
		}
	}
	return body, true
}

// Reload hot-swaps the named shard's model: onto the artifact at path
// (a file on the daemon's filesystem) or, with an empty path, onto a
// freshly retrained model. The shard keeps serving throughout.
func (c *Client) Reload(ctx context.Context, shard, path string) (*ReloadResult, error) {
	return c.reload(ctx, api.ReloadRequest{Shard: shard, Path: path})
}

// ReloadModel hot-swaps the named shard onto the registry artifact with
// the given content fingerprint — the daemon pulls it from its
// configured registry and verifies the fingerprint on receipt.
func (c *Client) ReloadModel(ctx context.Context, shard, fingerprint string) (*ReloadResult, error) {
	return c.reload(ctx, api.ReloadRequest{Shard: shard, Fingerprint: fingerprint})
}

// ReloadPatch applies the incremental patch artifact at patchPath (a
// file on the daemon's filesystem) to the model the shard is serving
// right now. The patch is fingerprint-pinned to one base model: a
// shard on any other model rejects the request (code patch_base) and
// keeps serving unchanged.
func (c *Client) ReloadPatch(ctx context.Context, shard, patchPath string) (*ReloadResult, error) {
	return c.reload(ctx, api.ReloadRequest{Shard: shard, PatchPath: patchPath})
}

func (c *Client) reload(ctx context.Context, req api.ReloadRequest) (*ReloadResult, error) {
	var out ReloadResult
	if err := c.postJSON(ctx, "/v1/reload", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Shards lists the daemon's shards with their serving state, model
// fingerprint, and generation — GET /v1/shards, typed.
func (c *Client) Shards(ctx context.Context) ([]api.ShardStatus, error) {
	var out []api.ShardStatus
	if err := c.getJSON(ctx, "/v1/shards", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Stats snapshots the daemon's per-shard counters — GET /v1/stats,
// typed. The router's health prober reads queue depths from this.
func (c *Client) Stats(ctx context.Context) (map[string]api.ShardSnapshot, error) {
	var out map[string]api.ShardSnapshot
	if err := c.getJSON(ctx, "/v1/stats", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Health probes GET /healthz: nil when the daemon reports at least one
// shard serving, the typed server error otherwise. Health never
// retries — a prober wants the current truth, not eventual success.
func (c *Client) Health(ctx context.Context) error {
	raw, err := c.roundTrip(ctx, http.MethodGet, "/healthz", "", nil)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrExhausted, err)
	}
	if raw.Status != http.StatusOK {
		return raw.serverError()
	}
	return nil
}

// postJSON marshals the body once and posts it.
func (c *Client) postJSON(ctx context.Context, path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("%w: encoding body: %v", ErrConfig, err)
	}
	return c.post(ctx, path, "application/json", payload, out)
}

// post runs the retry loop over one POST of payload and decodes the
// JSON response into out.
func (c *Client) post(ctx context.Context, pathAndQuery, contentType string, payload []byte, out any) error {
	raw, err := c.do(ctx, http.MethodPost, pathAndQuery, contentType, payload)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw.Body, out); err != nil {
		return fmt.Errorf("%w: decoding %s response: %v", ErrRequest, pathAndQuery, err)
	}
	return nil
}

// getJSON runs the retry loop over a bodyless GET.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	raw, err := c.do(ctx, http.MethodGet, path, "", nil)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw.Body, out); err != nil {
		return fmt.Errorf("%w: decoding %s response: %v", ErrRequest, path, err)
	}
	return nil
}

// RawResponse is one complete HTTP response as PostRaw captured it —
// everything a proxy needs to relay the answer byte-identically.
type RawResponse struct {
	// Status is the HTTP status code.
	Status int
	// ContentType is the response Content-Type header ("" if none).
	ContentType string
	// RetryAfter is the response Retry-After header ("" if none).
	RetryAfter string
	// TraceID is the X-Trace-Id the server echoed ("" if none).
	TraceID string
	// SpanID is the X-Span-Id of the span that served the request
	// ("" when the server traces nothing) — the handle that finds this
	// exact exchange inside the server's retained trace.
	SpanID string
	// Body is the full response body.
	Body []byte
}

// Retryable classifies the response by its error envelope's code
// (falling back to HTTP status for code-less servers): true for
// transient conditions another attempt — or another backend — might
// clear.
func (r *RawResponse) Retryable() bool {
	if r.Status == http.StatusOK {
		return false
	}
	return api.RetryableResponse(r.Status, r.Body)
}

// serverError builds the typed failure for a non-OK raw response.
func (r *RawResponse) serverError() *ServerError {
	env, _ := api.DecodeError(r.Body)
	body := r.Body
	if len(body) > maxErrBody {
		body = body[:maxErrBody]
	}
	return &ServerError{
		Status:    r.Status,
		Code:      env.Code,
		Body:      strings.TrimSpace(string(body)),
		TraceID:   r.TraceID,
		retryable: r.Retryable(),
	}
}

// PostRaw posts body to pathAndQuery and returns the server's complete
// response, whatever its status — the proxy primitive the router's
// data plane is built on. Only transport errors (no HTTP response at
// all) enter the retry loop; HTTP-level failures come back as a
// RawResponse so the caller can fail over to another backend or relay
// the bytes verbatim. A transport failure after every retry wraps
// ErrExhausted.
func (c *Client) PostRaw(ctx context.Context, pathAndQuery, contentType string, body []byte) (*RawResponse, error) {
	return c.raw(ctx, http.MethodPost, pathAndQuery, contentType, body)
}

// GetRaw is PostRaw for bodyless GETs.
func (c *Client) GetRaw(ctx context.Context, pathAndQuery string) (*RawResponse, error) {
	return c.raw(ctx, http.MethodGet, pathAndQuery, "", nil)
}

func (c *Client) raw(ctx context.Context, method, pathAndQuery, contentType string, body []byte) (*RawResponse, error) {
	ctx, traceID := c.ensureTrace(ctx)
	backoff := c.cfg.BaseBackoff
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, backoff); err != nil {
				return nil, err
			}
			backoff = nextBackoff(backoff, c.cfg.MaxBackoff)
		}
		raw, err := c.roundTrip(ctx, method, pathAndQuery, contentType, body)
		if err == nil {
			return raw, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		lastErr = err
		c.logRetry(ctx, traceID, pathAndQuery, attempt, backoff, err)
	}
	return nil, fmt.Errorf("%w after %d attempts: %w", ErrExhausted, c.cfg.MaxRetries+1, lastErr)
}

// do runs the full JSON retry loop: attempt, classify, wait
// (server-directed or exponential), repeat. One trace ID spans every
// attempt of a request: the caller's, when the context carries one,
// otherwise minted here — so the daemon's logs show all retries of one
// call under one ID. It returns the 200 response; every other outcome
// is an error.
func (c *Client) do(ctx context.Context, method, path, contentType string, payload []byte) (*RawResponse, error) {
	ctx, traceID := c.ensureTrace(ctx)
	backoff := c.cfg.BaseBackoff
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, backoff); err != nil {
				return nil, err
			}
			backoff = nextBackoff(backoff, c.cfg.MaxBackoff)
		}
		raw, err := c.roundTrip(ctx, method, path, contentType, payload)
		if err == nil {
			if raw.Status == http.StatusOK {
				return raw, nil
			}
			serr := raw.serverError()
			if !serr.retryable {
				return nil, serr
			}
			err = serr
			if d := parseRetryAfter(raw.RetryAfter); d > 0 {
				backoff = d
			}
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		lastErr = err
		c.logRetry(ctx, traceID, path, attempt, backoff, err)
	}
	return nil, fmt.Errorf("%w after %d attempts: %w", ErrExhausted, c.cfg.MaxRetries+1, lastErr)
}

// ensureTrace resolves the request's trace ID: the caller's, when the
// context carries one, otherwise minted here.
func (c *Client) ensureTrace(ctx context.Context) (context.Context, string) {
	traceID := obs.TraceID(ctx)
	if traceID == "" {
		traceID = obs.NewTraceID()
		ctx = obs.WithTraceID(ctx, traceID)
	}
	return ctx, traceID
}

func (c *Client) logRetry(ctx context.Context, traceID, path string, attempt int, backoff time.Duration, cause error) {
	lg := c.cfg.Logger
	if lg == nil || attempt >= c.cfg.MaxRetries {
		return
	}
	lg.LogAttrs(ctx, slog.LevelWarn, "retrying request",
		slog.String(obs.AttrComponent, "client"),
		slog.String(obs.AttrTraceID, traceID),
		slog.String("path", path),
		slog.Int("attempt", attempt+1),
		slog.Duration("backoff", backoff),
		slog.String("cause", cause.Error()))
}

func nextBackoff(cur, max time.Duration) time.Duration {
	cur *= 2
	if cur > max {
		cur = max
	}
	return cur
}

// maxErrBody bounds the error text a ServerError carries (full bodies
// still flow through RawResponse for proxying).
const maxErrBody = 4096

// ServerError is the typed detail behind every non-OK daemon response:
// the machine-readable error code, the HTTP status, the server's error
// body, and the trace ID the daemon echoed — the handle that finds
// this exact failed request in the server's structured logs. It
// unwraps to ErrRequest (terminal) or to the internal retryable
// marker, so errors.Is keeps working; reach it with errors.As.
type ServerError struct {
	// Status is the HTTP status code the daemon answered with.
	Status int
	// Code is the stable classification from the error envelope ("" when
	// the server sent none). Branch on this, not on Body's prose.
	Code api.Code
	// Body is the server's error text (truncated to 4 KiB).
	Body string
	// TraceID is the X-Trace-Id the server echoed ("" if none).
	TraceID string

	retryable bool
}

// Error renders the status, code, body, and trace ID.
func (e *ServerError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "HTTP %d", e.Status)
	if e.Code != "" {
		fmt.Fprintf(&b, " [%s]", e.Code)
	}
	if e.TraceID != "" {
		fmt.Fprintf(&b, " (trace %s)", e.TraceID)
	}
	b.WriteString(": ")
	b.WriteString(e.Body)
	return b.String()
}

// Unwrap ties the error into the package's sentinel taxonomy.
func (e *ServerError) Unwrap() error {
	if e.retryable {
		return errRetryable
	}
	return ErrRequest
}

// errRetryable marks transient attempt failures internally; callers of
// the package only ever see it wrapped inside ErrExhausted.
var errRetryable = errors.New("retryable")

// roundTrip performs one HTTP exchange and captures the complete
// response. The context's trace ID rides the X-Trace-Id request
// header; the error return is non-nil only for transport failures
// (wrapping the internal retryable marker) or an unbuildable request
// (ErrConfig).
func (c *Client) roundTrip(ctx context.Context, method, pathAndQuery, contentType string, body []byte) (*RawResponse, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.cfg.BaseURL+pathAndQuery, rd)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if id := obs.TraceID(ctx); id != "" {
		req.Header.Set(obs.TraceHeader, id)
		// Traceparent adds the parent span ID (the caller's active
		// span, or one relayed from its own ingress) so the server's
		// root span links into the distributed trace. A caller ID that
		// is not 16 hex chars gets no Traceparent.
		if tp := obs.FormatTraceParent(id, obs.ParentSpanID(ctx)); tp != "" {
			req.Header.Set(obs.TraceParentHeader, tp)
		}
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errRetryable, err)
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%w: reading response: %v", errRetryable, err)
	}
	return &RawResponse{
		Status:      resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		RetryAfter:  resp.Header.Get("Retry-After"),
		TraceID:     resp.Header.Get(obs.TraceHeader),
		SpanID:      resp.Header.Get(obs.SpanHeader),
		Body:        data,
	}, nil
}

// parseRetryAfter reads the delay-seconds form of Retry-After (the only
// form the daemon emits); anything else yields 0 (use own backoff).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// sleepCtx waits d unless ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
