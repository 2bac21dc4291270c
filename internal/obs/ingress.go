package obs

import (
	"context"
	"net/http"
)

// The HTTP ingress of every traced server (cmd/outaged and
// cmd/outagerouter): Ingress resolves the request's trace context, the
// server opens its root span on it under its own stage constant, and
// ServeRoot serves the request under that span:
//
//	ctx, span := tracer.StartSpan(obs.Ingress(w, r), stageHTTP)
//	status := obs.ServeRoot(span, next, w, r.WithContext(ctx))

// attrPath is the root span's attribute naming the request path.
const attrPath = "path"

// Ingress resolves r's trace context: the trace ID and parent span of a
// well-formed Traceparent, else the caller's X-Trace-Id verbatim, else
// a minted ID. It echoes the ID in X-Trace-Id and returns r's context
// carrying the ID and the remote parent span.
func Ingress(w http.ResponseWriter, r *http.Request) context.Context {
	id, parent, ok := ParseTraceParent(r.Header.Get(TraceParentHeader))
	if !ok {
		id = r.Header.Get(TraceHeader)
	}
	if id == "" {
		id = NewTraceID()
	}
	w.Header().Set(TraceHeader, id)
	return WithRemoteParent(WithTraceID(r.Context(), id), parent)
}

// ServeRoot serves r through next under root, the span the server
// opened on Ingress's context (nil with tracing off). It tags root with
// r's path, echoes its ID in X-Span-Id, marks it erroneous when the
// answer is a 5xx, ends it, and returns the answer's status.
func ServeRoot(root *Span, next http.Handler, w http.ResponseWriter, r *http.Request) int {
	if root != nil {
		root.SetAttr(attrPath, r.URL.Path)
		w.Header().Set(SpanHeader, root.ID())
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	next.ServeHTTP(sw, r)
	if sw.status >= http.StatusInternalServerError {
		root.SetErrorString(http.StatusText(sw.status))
	}
	root.End()
	return sw.status
}

// statusWriter captures the status a handler answers with.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}
