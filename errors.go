package pmuoutage

import "errors"

// Sentinel errors of the public facade. Every error the facade itself
// mints wraps exactly one of these (enforced by gridlint's apierr
// analyzer), so callers branch with errors.Is instead of matching
// message strings, and the service layer (internal/service,
// cmd/outaged) maps them onto transport status codes.
var (
	// ErrUnknownCase reports an Options.Case that names no built-in
	// test system. The wrapped detail lists the available names.
	ErrUnknownCase = errors.New("pmuoutage: unknown case")

	// ErrBadSample reports a malformed Sample: Vm/Va lengths that do
	// not match the grid, a missing-bus index out of range, or values
	// whose deviation energy is not finite (NaN, ±Inf, or large enough
	// to overflow it) at a bus not marked missing. Detect, DetectBatch,
	// and Monitor.Ingest all report these through one shared path, so
	// the same defect produces the identical error from every entry
	// point.
	ErrBadSample = errors.New("pmuoutage: bad sample")

	// ErrBadLine reports a line index outside [0, number of lines).
	ErrBadLine = errors.New("pmuoutage: bad line index")

	// ErrBadScores reports a Scores vector that cannot be decoded from
	// its JSON wire form.
	ErrBadScores = errors.New("pmuoutage: bad score vector")

	// ErrBadModel reports a model artifact that cannot be decoded or
	// served: unparsable content, a failed fingerprint check, missing
	// facade metadata, or structural inconsistency in the learned state.
	ErrBadModel = errors.New("pmuoutage: bad model artifact")

	// ErrModelVersion reports a model artifact written under a different
	// (newer or older) format version than this build understands.
	ErrModelVersion = errors.New("pmuoutage: model format version mismatch")

	// ErrBadPatch reports a model patch that cannot be built, decoded, or
	// applied: unparsable content, a failed fingerprint check, or a splice
	// whose result does not hash to the fingerprint the trainer sealed in.
	ErrBadPatch = errors.New("pmuoutage: bad model patch")

	// ErrPatchVersion reports a patch artifact written under a different
	// format version than this build understands.
	ErrPatchVersion = errors.New("pmuoutage: patch format version mismatch")

	// ErrPatchBase reports a patch applied to a model other than the one
	// it was trained against. Patches are fingerprint-pinned to exactly
	// one base.
	ErrPatchBase = errors.New("pmuoutage: patch base model mismatch")
)
