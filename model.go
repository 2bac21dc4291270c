package pmuoutage

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"pmuoutage/internal/cases"
	"pmuoutage/internal/dataset"
	"pmuoutage/internal/detect"
	"pmuoutage/internal/pmunet"
)

// Model is an immutable, versioned artifact holding everything training
// produces that serving and patching cannot derive: the learned
// detector state (line and node intersection subspaces, ellipses,
// per-case capability rows, detection groups, thresholds) plus the
// facade Options it was trained under. Train once with TrainModel, persist with Encode, and
// serve from any number of Systems via NewSystemFromModel — none of
// which repeats the power-flow simulation or SVD work.
//
// A Model is safe for concurrent use: it is never mutated after
// TrainModel or DecodeModel returns, and every System built from it
// shares the read-only numeric payload.
type Model struct {
	opts Options
	dm   *detect.Model
}

// modelMeta is the facade metadata embedded in the detect-layer
// artifact's Extra field. It rides inside the same file, is covered by
// the same fingerprint, and keeps the detect layer ignorant of facade
// types.
type modelMeta struct {
	Options Options `json:"options"`
}

// TrainModel runs the full training pipeline — grid load, PMU-network
// partition, data simulation, detector training — and returns the
// sealed artifact. It is TrainModelContext with a background context.
func TrainModel(opts Options) (*Model, error) {
	return TrainModelContext(context.Background(), opts)
}

// TrainModelContext is TrainModel with cancellation: the simulation and
// training pipeline checks ctx between scenarios and returns its error
// early when cancelled. Parallelism is bounded by Options.Workers.
// An Options.Case naming no built-in system fails with ErrUnknownCase.
func TrainModelContext(ctx context.Context, opts Options) (*Model, error) {
	opts = opts.withDefaults()
	g, err := cases.Load(opts.Case)
	if err != nil {
		return nil, fmt.Errorf("%w: %q (available: %v)", ErrUnknownCase, opts.Case, Cases())
	}
	clusters := opts.Clusters
	if clusters <= 0 {
		clusters = g.N() / 10
		if clusters < 3 {
			clusters = 3
		}
	}
	nw, err := pmunet.Build(g, clusters)
	if err != nil {
		return nil, err
	}
	data, err := dataset.GenerateContext(ctx, g, dataset.GenConfig{
		Steps: opts.TrainSteps, Seed: opts.Seed, UseDC: opts.UseDC, Workers: opts.Workers,
	})
	if err != nil {
		return nil, err
	}
	dcfg := opts.Detector
	dcfg.Workers = opts.Workers
	det, err := detect.TrainContext(ctx, data, nw, dcfg)
	if err != nil {
		return nil, err
	}
	extra, err := json.Marshal(modelMeta{Options: opts})
	if err != nil {
		return nil, fmt.Errorf("%w: encoding options: %v", ErrBadModel, err)
	}
	dm, err := det.SnapshotWith(extra)
	if err != nil {
		return nil, fmt.Errorf("%w: snapshot failed: %v", ErrBadModel, err)
	}
	return &Model{opts: opts, dm: dm}, nil
}

// NewSystemFromModel builds a serving System from a trained artifact.
// It performs no simulation or numeric training — only cheap structural
// rewrapping — so it is what replicas and hot reloads call. Multiple
// Systems may be built from one Model; they share the read-only learned
// state. A structurally inconsistent model fails with ErrBadModel.
func NewSystemFromModel(m *Model) (*System, error) {
	if m == nil || m.dm == nil {
		return nil, fmt.Errorf("%w: nil model", ErrBadModel)
	}
	det, err := detect.FromModel(m.dm)
	if err != nil {
		return nil, wrapModelErr(err)
	}
	return &System{opts: m.opts, g: det.Grid(), nw: det.Network(), det: det, model: m}, nil
}

// Encode writes the artifact to w as a single canonical JSON document:
// format version first, content fingerprint recomputed at write time.
// The bytes are deterministic — encoding the same model twice yields
// identical output — which is what makes artifact diffing and the
// round-trip goldens possible.
func (m *Model) Encode(w io.Writer) error {
	if m == nil || m.dm == nil {
		return fmt.Errorf("%w: nil model", ErrBadModel)
	}
	if err := m.dm.Encode(w); err != nil {
		return wrapModelErr(err)
	}
	return nil
}

// DecodeModel reads an artifact written by Encode, verifying the format
// version (ErrModelVersion on mismatch), the content fingerprint and
// the structural invariants (ErrBadModel on any corruption), and
// restoring the Options the model was trained under.
func DecodeModel(r io.Reader) (*Model, error) {
	dm, err := detect.DecodeModel(r)
	if err != nil {
		return nil, wrapModelErr(err)
	}
	if len(dm.Extra) == 0 {
		return nil, fmt.Errorf("%w: artifact carries no facade options", ErrBadModel)
	}
	var meta modelMeta
	if err := json.Unmarshal(dm.Extra, &meta); err != nil {
		return nil, fmt.Errorf("%w: decoding options: %v", ErrBadModel, err)
	}
	return &Model{opts: meta.Options.withDefaults(), dm: dm}, nil
}

// wrapModelErr maps detect-layer codec errors onto the facade
// sentinels, preserving the version/corruption distinction.
func wrapModelErr(err error) error {
	if errors.Is(err, detect.ErrModelVersion) {
		return fmt.Errorf("%w: %v", ErrModelVersion, err)
	}
	return fmt.Errorf("%w: %v", ErrBadModel, err)
}

// Options returns the facade options the model was trained under.
func (m *Model) Options() Options { return m.opts }

// Case returns the name of the test system the model was trained on.
func (m *Model) Case() string { return m.opts.Case }

// Fingerprint returns the hex SHA-256 content fingerprint of the sealed
// artifact. Two models with equal fingerprints encode to identical
// bytes and detect identically.
func (m *Model) Fingerprint() string { return m.dm.Fingerprint }

// FormatVersion returns the artifact format version the model carries.
func (m *Model) FormatVersion() int { return m.dm.FormatVersion }
