package pmuoutage

import (
	"context"
	"errors"
	"fmt"
	"io"

	"pmuoutage/internal/dataset"
	"pmuoutage/internal/detect"
	"pmuoutage/internal/grid"
)

// Patch is an incremental model update: the sealed delta produced by
// re-simulating and re-learning a handful of lines against a frozen
// base model. A patch carries only the refreshed signature subspaces
// and capability rows, the intersection subspaces of their endpoint
// buses, and the rebuilt detection groups, so it is a small fraction of
// the model: on synth300 (DC, 8 training steps) a two-line patch is
// about 38 KB against a 4.9 MB model. Both ends are fingerprint-pinned:
// Apply refuses any base but the one the patch was trained on, and
// verifies the result hashes to the fingerprint the trainer sealed in,
// so a patched model is indistinguishable from a full retrain on the
// same data.
type Patch struct {
	dp *detect.Patch
}

// PatchSpec configures TrainModelPatch.
type PatchSpec struct {
	// Lines are the line indices whose outage signatures to refresh.
	// Every entry must be a valid (learnable) line of the base model.
	Lines []int
	// Seed drives the fresh outage simulations. Using the base model's
	// training seed reproduces the original data; any other value
	// simulates new observations of the same outage cases.
	Seed int64
	// Steps is the number of samples simulated per refreshed line;
	// 0 uses the base model's TrainSteps.
	Steps int
}

// TrainModelPatch simulates fresh outage data for the given lines and
// learns an incremental patch against the base model. It is
// TrainModelPatchContext with a background context.
func TrainModelPatch(base *Model, spec PatchSpec) (*Patch, error) {
	return TrainModelPatchContext(context.Background(), base, spec)
}

// TrainModelPatchContext re-runs the data pipeline only where the
// patch needs it: the base normal-operation set is regenerated from
// the model's own options (deterministic in the training seed), and
// one fresh outage scenario is simulated per refreshed line under
// spec.Seed. The per-line subspace learning — the expensive part of
// training — runs only for spec.Lines.
func TrainModelPatchContext(ctx context.Context, base *Model, spec PatchSpec) (*Patch, error) {
	if base == nil || base.dm == nil {
		return nil, fmt.Errorf("%w: nil base model", ErrBadModel)
	}
	if len(spec.Lines) == 0 {
		return nil, fmt.Errorf("%w: patch refreshes no lines", ErrBadPatch)
	}
	g := base.dm.Grid
	opts := base.opts
	gen := dataset.GenConfig{
		Steps: opts.TrainSteps, Seed: opts.Seed, UseDC: opts.UseDC, Workers: opts.Workers,
	}
	normal, err := dataset.GenerateScenarioContext(ctx, g, nil, gen)
	if err != nil {
		return nil, fmt.Errorf("%w: regenerating the normal set: %v", ErrBadPatch, err)
	}
	fresh := gen
	fresh.Seed = spec.Seed
	if spec.Steps > 0 {
		fresh.Steps = spec.Steps
	}
	refreshed := map[grid.Line]*dataset.Set{}
	for _, l := range spec.Lines {
		if l < 0 || l >= g.E() {
			return nil, fmt.Errorf("%w: %d not in [0, %d)", ErrBadLine, l, g.E())
		}
		set, err := dataset.GenerateScenarioContext(ctx, g, dataset.Scenario{grid.Line(l)}, fresh)
		if err != nil {
			return nil, fmt.Errorf("%w: simulating line %d: %v", ErrBadPatch, l, err)
		}
		refreshed[grid.Line(l)] = set
	}
	dp, err := detect.TrainPatch(ctx, base.dm, normal, refreshed)
	if err != nil {
		return nil, wrapPatchErr(err)
	}
	return &Patch{dp: dp}, nil
}

// Apply produces the patched model. The base is not mutated; the two
// models share their untouched payload (both are immutable). A base
// other than the one the patch was trained on fails with
// ErrPatchBase; a patch whose splice does not hash to its sealed
// result fingerprint fails with ErrBadPatch.
func (p *Patch) Apply(base *Model) (*Model, error) {
	if p == nil || p.dp == nil {
		return nil, fmt.Errorf("%w: nil patch", ErrBadPatch)
	}
	if base == nil || base.dm == nil {
		return nil, fmt.Errorf("%w: nil base model", ErrBadModel)
	}
	dm, err := p.dp.Apply(base.dm)
	if err != nil {
		return nil, wrapPatchErr(err)
	}
	// The patch never touches the embedded facade metadata, so the
	// patched model serves under the base options.
	return &Model{opts: base.opts, dm: dm}, nil
}

// Encode writes the patch artifact to w as a single canonical JSON
// document, deterministic like the model codec.
func (p *Patch) Encode(w io.Writer) error {
	if p == nil || p.dp == nil {
		return fmt.Errorf("%w: nil patch", ErrBadPatch)
	}
	if err := p.dp.Encode(w); err != nil {
		return wrapPatchErr(err)
	}
	return nil
}

// DecodePatch reads an artifact written by Encode, verifying format
// version (ErrPatchVersion) and content fingerprint (ErrBadPatch).
func DecodePatch(r io.Reader) (*Patch, error) {
	dp, err := detect.DecodePatch(r)
	if err != nil {
		return nil, wrapPatchErr(err)
	}
	return &Patch{dp: dp}, nil
}

// Fingerprint returns the patch's own content fingerprint.
func (p *Patch) Fingerprint() string { return p.dp.Fingerprint }

// BaseFingerprint returns the fingerprint of the only model the patch
// applies to.
func (p *Patch) BaseFingerprint() string { return p.dp.BaseFingerprint }

// ResultFingerprint returns the fingerprint the patched model will
// carry.
func (p *Patch) ResultFingerprint() string { return p.dp.ResultFingerprint }

// Lines returns the refreshed line indices.
func (p *Patch) Lines() []int {
	out := make([]int, len(p.dp.Lines))
	for i, e := range p.dp.Lines {
		out[i] = int(e)
	}
	return out
}

// wrapPatchErr maps detect-layer patch errors onto the facade
// sentinels.
func wrapPatchErr(err error) error {
	switch {
	case errors.Is(err, detect.ErrPatchVersion):
		return fmt.Errorf("%w: %v", ErrPatchVersion, err)
	case errors.Is(err, detect.ErrPatchBase):
		return fmt.Errorf("%w: %v", ErrPatchBase, err)
	case errors.Is(err, detect.ErrModelVersion):
		return fmt.Errorf("%w: %v", ErrModelVersion, err)
	case errors.Is(err, detect.ErrModelCorrupt):
		return fmt.Errorf("%w: %v", ErrBadModel, err)
	default:
		return fmt.Errorf("%w: %v", ErrBadPatch, err)
	}
}
