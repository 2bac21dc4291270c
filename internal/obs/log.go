package obs

import (
	"fmt"
	"io"
	"log/slog"
)

// Shared slog attribute keys, so every component's structured logs join
// on the same fields.
const (
	// AttrTraceID carries the request trace ID on every span log line.
	AttrTraceID = "trace_id"
	// AttrComponent names the emitting subsystem (http, service, client,
	// router, registry).
	AttrComponent = "component"
	// AttrShard names the shard a span crossed.
	AttrShard = "shard"
	// AttrGeneration is the shard's model incarnation counter.
	AttrGeneration = "generation"
	// AttrStage names the pipeline stage a span measures (queue,
	// coalesce, detect, encode).
	AttrStage = "stage"
)

// NewTextLogger builds the stack's standard logger: slog text handler on
// w at the given level.
func NewTextLogger(w io.Writer, level slog.Leveler) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}

// ParseLevel parses a -log-level flag value ("debug", "info", "warn",
// "error", case-insensitive; slog's "INFO-4" offsets also work).
func ParseLevel(s string) (slog.Level, error) {
	var l slog.Level
	if err := l.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("obs: bad log level %q: %v", s, err)
	}
	return l, nil
}
