package api

import "encoding/json"

// Code is the stable machine-readable classification of a serving-tier
// error. Codes are part of the wire contract: clients and the router
// branch on them (never on status text or error prose), so a code, once
// shipped, keeps its meaning. Each code has one canonical HTTP status,
// and a code is either retryable (transient — back off and resend) or
// terminal.
type Code string

const (
	// CodeBadRequest: the request body could not be parsed (malformed
	// JSON, corrupt wire frame, conflicting fields).
	CodeBadRequest Code = "bad_request"
	// CodeTooLarge: the request body exceeds the server's size bound;
	// the request was rejected whole, never truncated.
	CodeTooLarge Code = "too_large"
	// CodeBadSample: a sample failed facade validation
	// (pmuoutage.ErrBadSample).
	CodeBadSample Code = "bad_sample"
	// CodeBadLine: a line index out of range (pmuoutage.ErrBadLine).
	CodeBadLine Code = "bad_line"
	// CodeUnknownCase: Options.Case names no built-in test system
	// (pmuoutage.ErrUnknownCase).
	CodeUnknownCase Code = "unknown_case"
	// CodeBadModel: a model artifact failed decoding, fingerprint
	// verification, or structural checks (pmuoutage.ErrBadModel).
	CodeBadModel Code = "bad_model"
	// CodeModelVersion: an artifact written under a different format
	// version (pmuoutage.ErrModelVersion).
	CodeModelVersion Code = "model_version"
	// CodeBadPatch: a model patch failed decoding, fingerprint
	// verification, or carried a foreign format version
	// (pmuoutage.ErrBadPatch, pmuoutage.ErrPatchVersion).
	CodeBadPatch Code = "bad_patch"
	// CodePatchBase: a patch was applied to a shard serving a model
	// other than the patch's pinned base (pmuoutage.ErrPatchBase).
	// Terminal for this request; reload the base first, then re-apply.
	CodePatchBase Code = "patch_base"
	// CodeConfig: an invalid service or client configuration reached a
	// handler (service.ErrConfig).
	CodeConfig Code = "config"
	// CodeUnknownShard: the request routed to a shard name the daemon
	// does not own (service.ErrUnknownShard).
	CodeUnknownShard Code = "unknown_shard"
	// CodeUnknownModel: the registry holds no artifact under the
	// requested fingerprint.
	CodeUnknownModel Code = "unknown_model"
	// CodeNotFound: a debug lookup (e.g. a trace ID at /debug/traces)
	// matched nothing. Terminal; tail sampling may simply have dropped
	// the trace.
	CodeNotFound Code = "not_found"
	// CodeOverloaded: load-shedding — a bounded queue is full
	// (service.ErrOverloaded). Retryable after backoff.
	CodeOverloaded Code = "overloaded"
	// CodeUnavailable: the shard or backend exists but cannot answer
	// right now (training, restarting, ejected). Retryable.
	CodeUnavailable Code = "unavailable"
	// CodeClosed: the process is shutting down (service.ErrClosed).
	// Terminal against this process; a router fails the request over.
	CodeClosed Code = "closed"
	// CodeDeadline: the per-request deadline expired server-side.
	CodeDeadline Code = "deadline"
	// CodePromotionBlocked: a canary promotion was requested while the
	// report's gates fail.
	CodePromotionBlocked Code = "promotion_blocked"
	// CodeInternal: an unclassified server-side failure.
	CodeInternal Code = "internal"
)

// Retryable reports whether the code names a transient condition worth
// retrying against the same server after a short backoff. This is the
// branch the client takes when an error envelope carries a code;
// HTTP-status classification is only the fallback for responses from
// non-envelope-speaking servers.
func (c Code) Retryable() bool {
	return c == CodeOverloaded || c == CodeUnavailable
}

// HTTPStatus returns the code's canonical HTTP status. The mapping is
// total: unknown or empty codes answer 500.
func (c Code) HTTPStatus() int {
	switch c {
	case CodeBadRequest, CodeBadSample, CodeBadLine, CodeUnknownCase,
		CodeBadModel, CodeModelVersion, CodeBadPatch, CodeConfig:
		return 400
	case CodeUnknownShard, CodeUnknownModel, CodeNotFound:
		return 404
	case CodePromotionBlocked, CodePatchBase:
		return 409
	case CodeTooLarge:
		return 413
	case CodeOverloaded:
		return 429
	case CodeUnavailable, CodeClosed:
		return 503
	case CodeDeadline:
		return 504
	default:
		return 500
	}
}

// DecodeError parses an error envelope from a non-2xx response body.
// ok reports whether the body was a well-formed envelope with a
// non-empty error or code — the signal that the server speaks this
// package's contract and the caller may branch on Code.
func DecodeError(body []byte) (env ErrorEnvelope, ok bool) {
	if err := json.Unmarshal(body, &env); err != nil {
		return ErrorEnvelope{}, false
	}
	return env, env.Error != "" || env.Code != ""
}

// RetryableResponse classifies one non-2xx response: when the body is
// an error envelope carrying a code, the code decides; otherwise the
// HTTP status does (429 and 503 are the transient statuses). Client and
// router share this one classification so they can never disagree about
// what deserves a retry.
func RetryableResponse(status int, body []byte) bool {
	if env, ok := DecodeError(body); ok && env.Code != "" {
		return env.Code.Retryable()
	}
	return status == 429 || status == 503
}
