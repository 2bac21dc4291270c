package detect

import (
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
	"pmuoutage/internal/mat"
	"pmuoutage/internal/pmunet"
	"pmuoutage/internal/subspace"
)

// ModelVersion is the current artifact format version. Decoding rejects
// any other version with ErrModelVersion: the format has no migration
// story by design — a model is cheap to retrain, so version bumps are
// honest breaks rather than silent best-effort reads.
//
// Version history: 1 had no per-case capability rows; 2 added
// CaseCapability so incremental patches can rebuild node capability
// rows locally; 3 dropped the tables serving never reads or can derive
// from the rest: the span of each node's S_i^∪, each node's valid
// lines, and the Eq. (6)–(7) capability matrix.
const ModelVersion = 3

// Sentinel errors of the model codec. Everything Encode/Decode/FromModel
// mint wraps one of these so callers branch with errors.Is.
var (
	// ErrModelVersion reports an artifact whose format version this
	// build does not read (or an attempt to encode a foreign version).
	ErrModelVersion = errors.New("detect: model format version mismatch")
	// ErrModelCorrupt reports an artifact that fails to parse, fails its
	// fingerprint check, or is structurally inconsistent (dimension or
	// index constraints violated).
	ErrModelCorrupt = errors.New("detect: corrupt model artifact")
)

// Basis is the wire form of a subspace basis: a Rows×Cols column basis
// stored row-major. Cols == 0 encodes the zero subspace.
type Basis struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data,omitempty"`
}

// ModelEllipse is the wire form of one normal-operation ellipse Ω_k
// (Eq. 4): center C and packed symmetric shape matrix A.
type ModelEllipse struct {
	C [2]float64 `json:"c"`
	A [3]float64 `json:"a"`
}

// Model is the immutable, self-contained artifact of one training run:
// the learned state of Train that neither serving nor patching can
// derive — the grid it was trained on, the PDC partition, per-line
// signature subspaces (Eq. 2), node intersection subspaces S_i^∩
// (Eq. 3), normal-operation mean and S⁰, ellipses (Eq. 4), the per-case
// capability rows (Eq. 5), detection groups (Eq. 8), and the calibrated
// no-outage threshold — plus a format version and a content
// fingerprint. Each node's valid lines follow from Grid and ValidLines,
// and TrainPatch rebuilds the Eq. (6)–(7) matrix from CaseCapability.
// Detect scores S_i^∪ as the set union of Eq. (3), the minimum over the
// node's line subspaces, so no span of it is stored.
//
// A Model is a value to serve from, not to mutate: FromModel wraps it
// into a Detector without copying the numeric payload, and the
// round-trip guarantee is that Decode(Encode(m)) detects byte-
// identically to the in-memory model. Encoding is deterministic JSON
// (Go's float64 encoding is shortest-round-trip, so every coefficient
// survives exactly), and the fingerprint is the SHA-256 of the encoding
// with the fingerprint field blanked — recomputed and checked on
// decode, so a corrupted or hand-edited artifact fails loudly instead
// of serving subtly wrong scores.
type Model struct {
	// FormatVersion is ModelVersion at encode time.
	FormatVersion int `json:"format_version"`
	// Fingerprint is the hex SHA-256 over the canonical encoding of the
	// model with this field empty. It doubles as the training
	// fingerprint: two runs that learned identical state share it.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Extra carries embedding-layer metadata (the facade stores its
	// Options here) verbatim; it is covered by the fingerprint.
	Extra json.RawMessage `json:"extra,omitempty"`

	// Config is the detector configuration with defaults applied.
	Config Config `json:"config"`
	// Grid is the full power network the model was trained on.
	Grid *grid.Grid `json:"grid"`
	// Clusters is the PDC partition (bus indices per cluster).
	Clusters [][]int `json:"clusters"`
	// ValidLines are the lines with learned outage subspaces, in
	// training order (LineBases is indexed identically).
	ValidLines []grid.Line `json:"valid_lines"`

	// Mean is the normal-operation mean in channel space.
	Mean []float64 `json:"mean"`
	// NormalBasis is S⁰, the dominant load-variation directions.
	NormalBasis Basis `json:"normal_basis"`
	// LineBases are the per-line signature subspaces, one per ValidLines
	// entry.
	LineBases []Basis `json:"line_bases"`
	// InterBases are the per-node S_i^∩.
	InterBases []Basis `json:"inter_bases"`

	// Ellipses are the per-node normal-operation ellipses.
	Ellipses []ModelEllipse `json:"ellipses"`
	// CaseCapability holds the per-case rows of Eq. (5), one per
	// ValidLines entry, from which the Eq. (6)–(7) matrix derives. Stored
	// so a Patch can rebuild that matrix without the training data of
	// the untouched lines.
	CaseCapability [][]float64 `json:"case_capability"`
	// Groups are the per-cluster detection groups.
	Groups []Group `json:"groups"`

	// NoOutageThreshold is the calibrated deviation-energy threshold.
	NoOutageThreshold float64 `json:"no_outage_threshold"`
}

// Snapshot extracts the trained state of the detector as a sealed
// Model. The snapshot shares the detector's numeric payload (both are
// immutable after training); bases are copied into wire form. It is
// SnapshotWith(nil).
func (det *Detector) Snapshot() (*Model, error) {
	return det.SnapshotWith(nil)
}

// SnapshotWith is Snapshot with extra attached as the model's Extra
// before it is sealed, so an embedding layer's metadata costs no
// second seal.
func (det *Detector) SnapshotWith(extra json.RawMessage) (*Model, error) {
	n := det.g.N()
	m := &Model{
		FormatVersion:     ModelVersion,
		Extra:             extra,
		Config:            det.cfg,
		Grid:              det.g,
		Clusters:          det.nw.Clusters,
		ValidLines:        det.validLines,
		Mean:              det.mean,
		NormalBasis:       basisOf(det.normalSub),
		LineBases:         make([]Basis, len(det.validLines)),
		InterBases:        make([]Basis, n),
		Ellipses:          make([]ModelEllipse, len(det.caps.Ellipses)),
		CaseCapability:    det.caps.Case,
		Groups:            det.groups,
		NoOutageThreshold: det.noOutageThresh,
	}
	for k, sub := range det.lineSubs {
		m.LineBases[k] = basisOf(sub)
	}
	for i, sub := range det.interSubs {
		m.InterBases[i] = basisOf(sub)
	}
	for k, e := range det.caps.Ellipses {
		m.Ellipses[k] = ModelEllipse{C: e.C, A: e.A}
	}
	if err := m.Seal(); err != nil {
		return nil, err
	}
	return m, nil
}

// Seal stamps the model's fingerprint from its current content. Layers
// that change a model after Snapshot must re-Seal; metadata known at
// snapshot time goes in through SnapshotWith instead.
func (m *Model) Seal() error {
	fp, err := m.ComputeFingerprint()
	if err != nil {
		return err
	}
	m.Fingerprint = fp
	return nil
}

// ComputeFingerprint returns the hex SHA-256 of the model's canonical
// encoding with the fingerprint field blanked.
func (m *Model) ComputeFingerprint() (string, error) {
	c := *m
	c.Fingerprint = ""
	b, err := json.Marshal(&c)
	if err != nil {
		return "", fmt.Errorf("%w: unencodable content: %v", ErrModelCorrupt, err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

// Encode writes the model artifact to w: one JSON object, fingerprint
// recomputed from content so the written artifact is always
// self-consistent.
func (m *Model) Encode(w io.Writer) error {
	if m.FormatVersion != ModelVersion {
		return fmt.Errorf("%w: cannot encode version %d, this build writes %d",
			ErrModelVersion, m.FormatVersion, ModelVersion)
	}
	fp, err := m.ComputeFingerprint()
	if err != nil {
		return err
	}
	c := *m
	c.Fingerprint = fp
	if err := json.NewEncoder(w).Encode(&c); err != nil {
		return fmt.Errorf("detect: encode model: %w", err)
	}
	return nil
}

// DecodeModel reads one model artifact from r, rejecting foreign format
// versions with ErrModelVersion and unparseable, fingerprint-mismatched,
// or structurally invalid content with ErrModelCorrupt. The returned
// model has passed the same validation FromModel performs, so it is
// ready to serve.
func DecodeModel(r io.Reader) (*Model, error) {
	var m Model
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrModelCorrupt, err)
	}
	if m.FormatVersion != ModelVersion {
		return nil, fmt.Errorf("%w: artifact has format version %d, this build reads %d",
			ErrModelVersion, m.FormatVersion, ModelVersion)
	}
	fp, err := m.ComputeFingerprint()
	if err != nil {
		return nil, err
	}
	if m.Fingerprint != fp {
		return nil, fmt.Errorf("%w: fingerprint mismatch: artifact says %q, content hashes to %q",
			ErrModelCorrupt, m.Fingerprint, fp)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// validate checks the structural invariants FromModel relies on.
func (m *Model) validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrModelCorrupt, fmt.Sprintf(format, args...))
	}
	if m.Grid == nil || m.Grid.N() == 0 {
		return bad("no grid")
	}
	n := m.Grid.N()
	for e, br := range m.Grid.Branches {
		if br.From < 0 || br.From >= n || br.To < 0 || br.To >= n {
			return bad("branch %d endpoints (%d,%d) out of range %d", e, br.From, br.To, n)
		}
	}
	if _, err := pmunet.FromClusters(m.Grid, m.Clusters); err != nil {
		return bad("%v", err)
	}
	switch m.Config.Channel {
	case dataset.Angle, dataset.Magnitude, dataset.Stacked:
	default:
		return bad("unknown channel %d", m.Config.Channel)
	}
	dim := m.Config.Channel.Dim(n)
	if len(m.Mean) != dim {
		return bad("mean has %d entries, channel dimension is %d", len(m.Mean), dim)
	}
	if len(m.LineBases) != len(m.ValidLines) {
		return bad("%d line bases for %d valid lines", len(m.LineBases), len(m.ValidLines))
	}
	for k, e := range m.ValidLines {
		if int(e) < 0 || int(e) >= m.Grid.E() {
			return bad("valid line %d out of range %d", e, m.Grid.E())
		}
		if slices.Contains(m.ValidLines[:k], e) {
			return bad("valid line %d listed twice", e)
		}
	}
	if len(m.InterBases) != n {
		return bad("%d intersection bases for %d buses", len(m.InterBases), n)
	}
	if len(m.Ellipses) != n {
		return bad("%d ellipses for %d buses", len(m.Ellipses), n)
	}
	if len(m.CaseCapability) != len(m.ValidLines) {
		return bad("%d case-capability rows for %d valid lines", len(m.CaseCapability), len(m.ValidLines))
	}
	for k, row := range m.CaseCapability {
		if len(row) != n {
			return bad("case-capability row %d has %d entries, grid has %d buses", k, len(row), n)
		}
	}
	if len(m.Groups) != len(m.Clusters) {
		return bad("%d detection groups for %d clusters", len(m.Groups), len(m.Clusters))
	}
	for c, g := range m.Groups {
		for _, b := range slices.Concat(g.InCluster, g.OutCluster) {
			if b < 0 || b >= n {
				return bad("detection group %d member %d out of range %d", c, b, n)
			}
		}
	}
	check := func(what string, b Basis) error {
		if b.Rows != dim {
			return bad("%s basis has %d rows, channel dimension is %d", what, b.Rows, dim)
		}
		if b.Cols < 0 || len(b.Data) != b.Rows*b.Cols {
			return bad("%s basis %dx%d carries %d values", what, b.Rows, b.Cols, len(b.Data))
		}
		return nil
	}
	if err := check("normal", m.NormalBasis); err != nil {
		return err
	}
	for k := range m.LineBases {
		if err := check(fmt.Sprintf("line %d", m.ValidLines[k]), m.LineBases[k]); err != nil {
			return err
		}
	}
	for i := range m.InterBases {
		if err := check(fmt.Sprintf("node %d intersection", i), m.InterBases[i]); err != nil {
			return err
		}
	}
	return nil
}

// FromModel wraps a model into a ready-to-serve Detector. Bases,
// tables, and thresholds are used as stored; each node's valid lines
// come from the grid and the valid lines, and the only numeric work is
// the per-cluster scoring state, derived exactly as Train derives it
// and never serialised: for a sample with nothing missing, each
// detection group's restricted bases of S⁰, of the cluster's incident
// lines and of its nodes' intersection subspaces, with their
// pseudo-inverses. That is small next to training, so hot model swaps
// stay cheap. The detector behaves byte-identically to the one Train
// produced the model from.
func FromModel(m *Model) (*Detector, error) {
	if m.FormatVersion != ModelVersion {
		return nil, fmt.Errorf("%w: model has format version %d, this build reads %d",
			ErrModelVersion, m.FormatVersion, ModelVersion)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	nw, err := pmunet.FromClusters(m.Grid, m.Clusters)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrModelCorrupt, err)
	}
	n := m.Grid.N()
	det := &Detector{
		cfg:            m.Config,
		g:              m.Grid,
		nw:             nw,
		mean:           m.Mean,
		lineSubs:       make([]*subspace.Subspace, len(m.ValidLines)),
		interSubs:      make([]*subspace.Subspace, n),
		normalSub:      m.NormalBasis.subspace(),
		noOutageThresh: m.NoOutageThreshold,
		validLines:     m.ValidLines,
		caps: &Capabilities{
			Ellipses: make([]*ellipse.Ellipse, n),
			Case:     m.CaseCapability,
		},
		groups: m.Groups,
	}
	for k, b := range m.LineBases {
		det.lineSubs[k] = b.subspace()
	}
	for i := 0; i < n; i++ {
		det.interSubs[i] = m.InterBases[i].subspace()
		det.caps.Ellipses[i] = &ellipse.Ellipse{C: m.Ellipses[i].C, A: m.Ellipses[i].A}
	}
	if err := det.prepare(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrModelCorrupt, err)
	}
	return det, nil
}

// basisOf converts a subspace to wire form, copying the coefficients.
func basisOf(s *subspace.Subspace) Basis {
	b := s.Basis()
	r, c := b.Dims()
	out := Basis{Rows: r, Cols: c}
	if r*c > 0 {
		out.Data = make([]float64, 0, r*c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				out.Data = append(out.Data, b.At(i, j))
			}
		}
	}
	return out
}

// subspace rebuilds the in-memory subspace. Dimensions are validated by
// Model.validate before this runs.
func (b Basis) subspace() *subspace.Subspace {
	if b.Cols == 0 {
		return subspace.Zero(b.Rows)
	}
	return subspace.FromBasis(mat.NewDenseData(b.Rows, b.Cols, append([]float64(nil), b.Data...)))
}
