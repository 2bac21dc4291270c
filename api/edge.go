package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// The request edge of the serving tier: one body bound, one strict JSON
// request decoder and one JSON response writer. internal/httpserve
// (cmd/outaged), internal/router (cmd/outagerouter) and
// internal/registry (cmd/outageregistry) read and answer every request
// through these, so the tiers cannot disagree on what they accept.

// MaxBodyBytes bounds every request body the serving tier reads:
// outaged's POST /v1/detect, /v1/ingest (JSON or frames) and
// /v1/reload; the router's proxied POST /v1/detect and /v1/ingest and
// its own POST /v1/reload and /v1/canary/promote; and the registry's
// POST /v1/models. A larger body is refused whole with CodeTooLarge,
// so a backend accepts anything the router forwards.
const MaxBodyBytes = 64 << 20

// ErrBadRequest marks a request the server cannot parse: an unreadable
// body, malformed JSON, an unknown field, a corrupt frame, or fields
// that conflict. RequestCode maps it to CodeBadRequest.
var ErrBadRequest = errors.New("bad request")

// limitBody is the one body bound. A Content-Length that declares more
// than MaxBodyBytes fails before a byte is read, and a body of unknown
// length fails on the first byte past the bound; both failures are
// *http.MaxBytesError. A declared length within the bound needs no
// wrapper, because net/http delivers no byte past it.
func limitBody(w http.ResponseWriter, r *http.Request) (io.Reader, error) {
	switch {
	case r.ContentLength > MaxBodyBytes:
		return nil, &http.MaxBytesError{Limit: MaxBodyBytes}
	case r.ContentLength >= 0:
		return r.Body, nil
	}
	return http.MaxBytesReader(w, r.Body, MaxBodyBytes), nil
}

// ReadBody appends r's body, at most MaxBodyBytes, to dst and returns
// the extended slice; a nil dst starts at 512 bytes, as io.ReadAll does.
// A body past the bound fails with *http.MaxBytesError, and any other
// read failure wraps ErrBadRequest.
func ReadBody(w http.ResponseWriter, r *http.Request, dst []byte) ([]byte, error) {
	body, err := limitBody(w, r)
	if err != nil {
		return dst, err
	}
	if cap(dst) == 0 {
		dst = make([]byte, 0, 512)
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := body.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, bodyError(err)
		}
	}
}

// DecodeJSON decodes one JSON value from r's body, bounded as ReadBody
// bounds it, into v. The decode is strict: a field v does not declare
// fails it. A body past the bound fails with *http.MaxBytesError, and
// any other failure wraps ErrBadRequest.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := limitBody(w, r)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return bodyError(err)
	}
	return nil
}

// bodyError passes the bound's *http.MaxBytesError through and wraps any
// other failure to read or decode a body in ErrBadRequest.
func bodyError(err error) error {
	if errors.As(err, new(*http.MaxBytesError)) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrBadRequest, err)
}

// RequestCode is the wire code of a request the edge refuses:
// CodeTooLarge for a body past MaxBodyBytes (*http.MaxBytesError),
// CodeBadRequest for ErrBadRequest, and CodeInternal for anything else.
func RequestCode(err error) Code {
	switch {
	case errors.As(err, new(*http.MaxBytesError)):
		return CodeTooLarge
	case errors.Is(err, ErrBadRequest):
		return CodeBadRequest
	default:
		return CodeInternal
	}
}

// WriteJSON answers with status and v's JSON encoding. It is the one
// response writer of the serving tier; WriteError writes through it.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The status is already committed; an encode error here only means
	// the client went away.
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers a failed request with code's error envelope,
// carrying msg and traceID. The status is code.HTTPStatus(), and a
// Retryable code sets both the envelope's retryable flag and a
// Retry-After: 1 header, so the status, the flag, the header and the
// client's retry branch cannot disagree.
func WriteError(w http.ResponseWriter, code Code, msg, traceID string) {
	env := ErrorEnvelope{Code: code, Error: msg, Retryable: code.Retryable(), TraceID: traceID}
	if env.Retryable {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, code.HTTPStatus(), env)
}
