package detect

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"pmuoutage/internal/dataset"
	"pmuoutage/internal/ellipse"
	"pmuoutage/internal/grid"
	"pmuoutage/internal/par"
	"pmuoutage/internal/pmunet"
	"pmuoutage/internal/subspace"
)

// PatchVersion is the current patch artifact format version. Like the
// model format, it has no migration story: foreign versions are
// rejected outright.
//
// Version history: 1 carried the touched nodes with their union bases
// and Eq. (6) capability rows; 2, which patches version 3 models,
// carries only their intersection bases, the nodes being the sorted
// endpoints of the refreshed lines.
const PatchVersion = 2

// Sentinel errors of the patch codec and applier.
var (
	// ErrPatchVersion reports a patch artifact of a foreign format
	// version.
	ErrPatchVersion = errors.New("detect: patch format version mismatch")
	// ErrPatchCorrupt reports a patch that fails to parse, fails its
	// fingerprint check, or is structurally inconsistent with the model
	// it is applied to.
	ErrPatchCorrupt = errors.New("detect: corrupt patch artifact")
	// ErrPatchBase reports a patch applied to a model other than the one
	// it was trained against.
	ErrPatchBase = errors.New("detect: patch base mismatch")
)

// Patch is the incremental counterpart of Model: the delta produced by
// re-learning a handful of lines' signatures from fresh outage data,
// sealed against the exact base model it was computed from. A patch
// carries only what those lines touch — their refreshed signature
// bases and Eq. (5) capability rows, the intersection bases of their
// endpoint nodes, and the rebuilt detection groups — so its size and
// the work of producing its bases scale with the lines refreshed, not
// the grid.
//
// Both ends of the application are pinned by fingerprint: Apply
// refuses a base whose fingerprint differs from BaseFingerprint, and
// verifies the patched model hashes to ResultFingerprint before
// returning it. A patched model is therefore indistinguishable from
// the full artifact the trainer would have produced — same codec, same
// validation, same fingerprint discipline.
type Patch struct {
	// FormatVersion is PatchVersion at encode time.
	FormatVersion int `json:"format_version"`
	// Fingerprint is the hex SHA-256 over the canonical encoding of the
	// patch with this field empty (the patch's own registry identity).
	Fingerprint string `json:"fingerprint,omitempty"`
	// BaseFingerprint is the fingerprint of the exact model this patch
	// was trained against; Apply refuses any other base.
	BaseFingerprint string `json:"base_fingerprint"`
	// ResultFingerprint is the fingerprint the patched model must hash
	// to — the post-apply integrity check.
	ResultFingerprint string `json:"result_fingerprint"`

	// Lines are the refreshed lines, in the base model's ValidLines
	// order; LineBases and CaseRows align with it.
	Lines     []grid.Line `json:"lines"`
	LineBases []Basis     `json:"line_bases"`
	// CaseRows are the refreshed Eq. (5) capability rows.
	CaseRows [][]float64 `json:"case_rows"`

	// InterBases are the rebuilt S_i^∩ of the endpoints of Lines, in
	// ascending bus order, each bus once.
	InterBases []Basis `json:"inter_bases"`

	// Groups are the detection groups rebuilt from the patched
	// capability rows (group membership depends on every node's
	// Eq. (6)–(7) row, so the full set rides along; it is small).
	Groups []Group `json:"groups"`
}

// TrainPatch re-learns the signature subspaces of the refreshed lines
// from fresh outage data and derives everything downstream of them,
// against the frozen remainder of the base model. normal must be the
// base model's normal-operation training set (the patch reuses the
// base mean, S⁰, and ellipses, so capability rows stay commensurable);
// refreshed maps each line to its new outage sample set. Every
// refreshed line must already be a valid line of the base model.
//
// The per-line SVD work — the expensive part of training — runs only
// for the refreshed lines. The endpoint nodes' intersection subspaces
// are rebuilt from the patched line bases, and the Eq. (6)–(7) matrix
// the detection groups rank by from the patched Eq. (5) rows, with the
// functions Train uses. Applying the returned patch to base reproduces,
// fingerprint for fingerprint, the model a full retrain on the swapped
// dataset would produce.
func TrainPatch(ctx context.Context, base *Model, normal *dataset.Set, refreshed map[grid.Line]*dataset.Set) (*Patch, error) {
	if base.FormatVersion != ModelVersion {
		return nil, fmt.Errorf("%w: base has format version %d, this build patches %d",
			ErrModelVersion, base.FormatVersion, ModelVersion)
	}
	if err := base.validate(); err != nil {
		return nil, err
	}
	cfg := base.Config
	if cfg.Groups.Mix < 1 {
		return nil, fmt.Errorf("detect: cannot patch a model with PCA-mixed detection groups (mix %g): the pooled loadings need every line's outage data",
			cfg.Groups.Mix)
	}
	if len(refreshed) == 0 {
		return nil, fmt.Errorf("detect: patch refreshes no lines")
	}
	n := base.Grid.N()
	if normal == nil || normal.T() < 2 {
		return nil, fmt.Errorf("detect: patch needs the base normal set (at least 2 samples)")
	}
	pos := make(map[grid.Line]int, len(base.ValidLines))
	for k, e := range base.ValidLines {
		pos[e] = k
	}
	p := &Patch{FormatVersion: PatchVersion, BaseFingerprint: base.Fingerprint}
	for _, e := range base.ValidLines { // ValidLines order, like Train
		if refreshed[e] != nil {
			p.Lines = append(p.Lines, e)
		}
	}
	if len(p.Lines) != len(refreshed) {
		for e := range refreshed {
			if _, ok := pos[e]; !ok {
				return nil, fmt.Errorf("detect: line %d is not a valid line of the base model", e)
			}
			if refreshed[e] == nil {
				return nil, fmt.Errorf("detect: refreshed set for line %d is nil", e)
			}
		}
	}
	for _, e := range p.Lines {
		set := refreshed[e]
		if set.T() == 0 || set.Samples[0].N() != n {
			return nil, fmt.Errorf("detect: refreshed set for line %d is empty or sized for the wrong grid", e)
		}
	}

	mean := base.Mean
	normalSub := base.NormalBasis.subspace()
	ells := make([]*ellipse.Ellipse, n)
	for i := range ells {
		ells[i] = &ellipse.Ellipse{C: base.Ellipses[i].C, A: base.Ellipses[i].A}
	}

	// Refreshed per-line signatures (Eq. 2) and capability rows (Eq. 5):
	// the same operations Train runs, restricted to the touched lines.
	type lineDelta struct {
		sub     *subspace.Subspace
		caseRow []float64
	}
	deltas, err := par.Map(ctx, cfg.Workers, len(p.Lines), func(_ context.Context, j int) (lineDelta, error) {
		e := p.Lines[j]
		set := refreshed[e]
		x := deviationMatrix(set, mean, cfg.Channel)
		s, err := subspace.Learn(normalSub.ProjectOut(x), cfg.LineRank)
		if err != nil {
			return lineDelta{}, fmt.Errorf("detect: subspace for line %d: %w", e, err)
		}
		return lineDelta{sub: s, caseRow: caseRow(ells, set, normal)}, nil
	})
	if err != nil {
		return nil, err
	}
	subs := make([]*subspace.Subspace, len(base.ValidLines))
	for k, b := range base.LineBases {
		subs[k] = b.subspace()
	}
	rows := slices.Clone(base.CaseCapability)
	for j, e := range p.Lines {
		p.LineBases = append(p.LineBases, basisOf(deltas[j].sub))
		p.CaseRows = append(p.CaseRows, deltas[j].caseRow)
		subs[pos[e]] = deltas[j].sub
		rows[pos[e]] = deltas[j].caseRow
	}

	// The endpoint nodes' intersection subspaces (Eq. 3) over the
	// patched line bases.
	lines := incidentLines(base.Grid, base.ValidLines)
	nodes := endpoints(base.Grid, p.Lines)
	inters, err := par.Map(ctx, cfg.Workers, len(nodes), func(_ context.Context, j int) (Basis, error) {
		in, err := nodeIntersection(cfg.InterShare, len(mean), subs, lines[nodes[j]])
		if err != nil {
			return Basis{}, err
		}
		return basisOf(in), nil
	})
	if err != nil {
		return nil, err
	}
	p.InterBases = inters

	// Rebuild the detection groups from the patched capability rows:
	// membership ranks nodes across the whole grid, so the full (small)
	// group set rides in the patch.
	nw, err := pmunet.FromClusters(base.Grid, base.Clusters)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrModelCorrupt, err)
	}
	p.Groups, err = BuildGroups(nw, capabilityMatrix(lines, rows), nil, cfg.groupConfig(base.Grid, normalSub.Rank()))
	if err != nil {
		return nil, err
	}

	// Seal both ends: the patch's own fingerprint and the fingerprint
	// the patched model must land on.
	result, err := p.patchedModel(base)
	if err != nil {
		return nil, err
	}
	p.ResultFingerprint = result.Fingerprint
	fp, err := p.computeFingerprint()
	if err != nil {
		return nil, err
	}
	p.Fingerprint = fp
	return p, nil
}

// endpoints returns the buses the given lines end at, ascending and
// each once: the nodes whose S_i^∩ a patch of those lines carries.
func endpoints(g *grid.Grid, lines []grid.Line) []int {
	out := make([]int, 0, 2*len(lines))
	for _, e := range lines {
		a, b := g.Endpoints(e)
		out = append(out, a, b)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Apply produces the patched model: the base with the refreshed line
// signatures and capability rows, their endpoints' intersection
// subspaces, and the detection groups swapped in, re-sealed and
// verified against ResultFingerprint. The base is not mutated;
// untouched payload is shared between the two models (both are
// immutable). A base whose fingerprint differs from BaseFingerprint
// fails with ErrPatchBase.
func (p *Patch) Apply(base *Model) (*Model, error) {
	if p.FormatVersion != PatchVersion {
		return nil, fmt.Errorf("%w: patch has format version %d, this build applies %d",
			ErrPatchVersion, p.FormatVersion, PatchVersion)
	}
	if base.FormatVersion != ModelVersion {
		return nil, fmt.Errorf("%w: base has format version %d, this build patches %d",
			ErrModelVersion, base.FormatVersion, ModelVersion)
	}
	if base.Fingerprint != p.BaseFingerprint {
		return nil, fmt.Errorf("%w: patch was trained against %.12s…, base is %.12s…",
			ErrPatchBase, p.BaseFingerprint, base.Fingerprint)
	}
	m, err := p.patchedModel(base)
	if err != nil {
		return nil, err
	}
	if m.Fingerprint != p.ResultFingerprint {
		return nil, fmt.Errorf("%w: patched model hashes to %.12s…, patch expects %.12s…",
			ErrPatchCorrupt, m.Fingerprint, p.ResultFingerprint)
	}
	return m, nil
}

// patchedModel splices the patch into a copy of base, revalidates, and
// re-seals. Shared by TrainPatch (to stamp ResultFingerprint) and
// Apply (to produce and verify the result).
func (p *Patch) patchedModel(base *Model) (*Model, error) {
	pos := make(map[grid.Line]int, len(base.ValidLines))
	for k, e := range base.ValidLines {
		pos[e] = k
	}
	nodes, err := p.checkShape(base, pos)
	if err != nil {
		return nil, err
	}
	m := *base
	m.LineBases = slices.Clone(base.LineBases)
	m.CaseCapability = slices.Clone(base.CaseCapability)
	for j, e := range p.Lines {
		m.LineBases[pos[e]] = p.LineBases[j]
		m.CaseCapability[pos[e]] = p.CaseRows[j]
	}
	m.InterBases = slices.Clone(base.InterBases)
	for j, i := range nodes {
		m.InterBases[i] = p.InterBases[j]
	}
	m.Groups = p.Groups
	if err := m.validate(); err != nil {
		return nil, err
	}
	if err := m.Seal(); err != nil {
		return nil, err
	}
	return &m, nil
}

// checkShape verifies the patch's internal alignment against the base
// before any splicing, and returns the endpoint nodes of its lines,
// which InterBases align with. pos maps each of the base's valid lines
// to its index.
func (p *Patch) checkShape(base *Model, pos map[grid.Line]int) ([]int, error) {
	bad := func(format string, args ...any) ([]int, error) {
		return nil, fmt.Errorf("%w: %s", ErrPatchCorrupt, fmt.Sprintf(format, args...))
	}
	if len(p.LineBases) != len(p.Lines) || len(p.CaseRows) != len(p.Lines) {
		return bad("%d lines with %d bases and %d case rows", len(p.Lines), len(p.LineBases), len(p.CaseRows))
	}
	for _, e := range p.Lines {
		if _, ok := pos[e]; !ok {
			return bad("patch refreshes line %d, not a valid line of the base", e)
		}
	}
	nodes := endpoints(base.Grid, p.Lines)
	if len(p.InterBases) != len(nodes) {
		return bad("%d intersection bases for the %d endpoints of the refreshed lines", len(p.InterBases), len(nodes))
	}
	n := base.Grid.N()
	for j := range p.CaseRows {
		if len(p.CaseRows[j]) != n {
			return bad("case row %d has %d entries, grid has %d buses", j, len(p.CaseRows[j]), n)
		}
	}
	if len(p.Groups) != len(base.Clusters) {
		return bad("%d detection groups for %d clusters", len(p.Groups), len(base.Clusters))
	}
	return nodes, nil
}

// computeFingerprint hashes the canonical encoding with the
// fingerprint field blanked, mirroring the model codec.
func (p *Patch) computeFingerprint() (string, error) {
	c := *p
	c.Fingerprint = ""
	b, err := json.Marshal(&c)
	if err != nil {
		return "", fmt.Errorf("%w: unencodable content: %v", ErrPatchCorrupt, err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

// Encode writes the patch artifact to w, fingerprint recomputed from
// content so the written artifact is always self-consistent.
func (p *Patch) Encode(w io.Writer) error {
	if p.FormatVersion != PatchVersion {
		return fmt.Errorf("%w: cannot encode version %d, this build writes %d",
			ErrPatchVersion, p.FormatVersion, PatchVersion)
	}
	fp, err := p.computeFingerprint()
	if err != nil {
		return err
	}
	c := *p
	c.Fingerprint = fp
	if err := json.NewEncoder(w).Encode(&c); err != nil {
		return fmt.Errorf("detect: encode patch: %w", err)
	}
	return nil
}

// DecodePatch reads one patch artifact from r, rejecting foreign
// format versions with ErrPatchVersion and unparseable or
// fingerprint-mismatched content with ErrPatchCorrupt. Structural
// validation against the base model happens in Apply.
func DecodePatch(r io.Reader) (*Patch, error) {
	var p Patch
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPatchCorrupt, err)
	}
	if p.FormatVersion != PatchVersion {
		return nil, fmt.Errorf("%w: artifact has format version %d, this build reads %d",
			ErrPatchVersion, p.FormatVersion, PatchVersion)
	}
	fp, err := p.computeFingerprint()
	if err != nil {
		return nil, err
	}
	if p.Fingerprint != fp {
		return nil, fmt.Errorf("%w: fingerprint mismatch: artifact says %q, content hashes to %q",
			ErrPatchCorrupt, p.Fingerprint, fp)
	}
	return &p, nil
}
