package detect

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"pmuoutage/internal/dataset"
	"pmuoutage/internal/grid"
	"pmuoutage/internal/mat"
	"pmuoutage/internal/metrics"
	"pmuoutage/internal/par"
	"pmuoutage/internal/pmunet"
	"pmuoutage/internal/subspace"
)

// Config tunes the detector. The zero value selects the defaults used
// throughout the paper reproduction.
type Config struct {
	// Channel selects the phasor series for subspace learning. Angle is
	// the default: topology changes redistribute flows and therefore
	// angles, in both AC and DC data.
	Channel dataset.Channel `json:"channel"`
	// LineRank is the dimension kept per line-outage subspace (Eq. 2).
	LineRank int `json:"line_rank"`
	// S0Rank caps the dimension of the normal-operation subspace S⁰ —
	// the dominant correlated load-variation directions learned from
	// normal deviations. Directions below S0EnergyFrac of the top
	// singular value are dropped.
	S0Rank int `json:"s0_rank"`
	// S0EnergyFrac is the relative singular-value cutoff for S⁰.
	S0EnergyFrac float64 `json:"s0_energy_frac"`
	// InterShare is the shared-direction threshold for S_i^∩.
	InterShare float64 `json:"inter_share"`
	// EllipseMargin scales the normal-operation ellipses (Eq. 4).
	EllipseMargin float64 `json:"ellipse_margin"`
	// UseMVEE fits minimum-volume enclosing ellipses (Khachiyan) instead
	// of the covariance-scaled approximation — tighter around skewed
	// training clouds, a little slower to fit (ablation option).
	UseMVEE bool `json:"use_mvee"`
	// Groups configures detection-group formation.
	Groups GroupConfig `json:"groups"`
	// NoOutageSlack multiplies the calibrated normal-deviation energy
	// threshold; samples below it are declared outage-free.
	NoOutageSlack float64 `json:"no_outage_slack"`
	// GapFactor bounds the scaled-proximity spread of candidate nodes:
	// the sorted prefix ends at the first jump beyond this factor.
	GapFactor float64 `json:"gap_factor"`
	// LineKeepFactor keeps candidate lines whose per-line subspace
	// proximity is within this factor of the best line.
	LineKeepFactor float64 `json:"line_keep_factor"`
	// MaxCandidates caps the candidate node set of the proximity rule.
	MaxCandidates int `json:"max_candidates"`
	// MaxLines caps |F̂|: only the best-scoring lines survive. Real
	// events rarely outage more than a handful of lines at once, and an
	// ambiguous flat proximity spectrum must not flood the operator.
	MaxLines int `json:"max_lines"`
	// UseRegressorProximity switches Eq. (9) to the literal regressor
	// formulation (ablation; see DESIGN.md).
	UseRegressorProximity bool `json:"use_regressor_proximity"`
	// DisableScaling turns off the Eq. (11) ratio scaling (ablation).
	DisableScaling bool `json:"disable_scaling"`
	// Workers bounds the parallelism of training's per-line and per-node
	// stages (0 = GOMAXPROCS). The trained detector is byte-identical
	// for every worker count: each line/node computes from its own data
	// and lands at its own index.
	Workers int `json:"workers"`
}

func (c Config) withDefaults() Config {
	if c.LineRank <= 0 {
		c.LineRank = 1
	}
	if c.S0Rank <= 0 {
		c.S0Rank = 3
	}
	if c.S0EnergyFrac <= 0 || c.S0EnergyFrac >= 1 {
		c.S0EnergyFrac = 0.1
	}
	if c.InterShare <= 0 || c.InterShare > 1 {
		c.InterShare = 0.6
	}
	if c.EllipseMargin <= 0 {
		c.EllipseMargin = 1.1
	}
	if c.NoOutageSlack <= 0 {
		// 1.25 balances flagging weak-line outages (signatures close to
		// the load-noise floor) against false alarms from normal samples
		// drifting past the training window's maximum.
		c.NoOutageSlack = 1.25
	}
	if c.GapFactor <= 1 {
		c.GapFactor = 8
	}
	if c.LineKeepFactor <= 1 {
		c.LineKeepFactor = 2
	}
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 6
	}
	if c.MaxLines <= 0 {
		c.MaxLines = 3
	}
	if c.Groups.Mix == 0 { //gridlint:ignore floatcmp zero-value config sentinel, never a computed float
		c.Groups.Mix = 1 // proposed robust group unless explicitly naive
	}
	return c
}

// Detector is a trained robust outage detector.
type Detector struct {
	cfg    Config
	g      *grid.Grid
	nw     *pmunet.Network
	caps   *Capabilities
	groups []Group

	mean      []float64 // normal-operation mean in channel space
	lineSubs  map[grid.Line]*subspace.Subspace
	unionSubs []*subspace.Subspace // span of S_i^∪ per node (Eq. 3)
	interSubs []*subspace.Subspace // S_i^∩ per node
	nodeLines [][]grid.Line        // valid lines incident to each node
	normalSub *subspace.Subspace   // S⁰: dominant load-variation directions

	// noOutageThresh is the calibrated per-feature deviation energy
	// above which a sample is treated as a potential outage.
	noOutageThresh float64

	validLines []grid.Line

	// Scoring state derived by prepare from the fields above and never
	// serialised: each cluster's Eq. (10) working set as buses, its plan
	// for a sample with nothing missing, S⁰ restricted to every feature
	// (the energy gate of a complete sample), and the grid adjacency the
	// proximity rule walks.
	groupBuses [][]int
	plans      []*clusterPlan
	fullNormal *subspace.Restricted
	adj        [][]int
}

// Train learns the detector from generated data and a PMU network.
func Train(d *dataset.Data, nw *pmunet.Network, cfg Config) (*Detector, error) {
	return TrainContext(context.Background(), d, nw, cfg)
}

// TrainContext is Train with cancellation and bounded parallelism: the
// per-line subspace SVDs, the per-node union/intersection subspaces, and
// the Eq. 5-7 capability tables each fan out over cfg.Workers workers.
func TrainContext(ctx context.Context, d *dataset.Data, nw *pmunet.Network, cfg Config) (*Detector, error) {
	cfg = cfg.withDefaults()
	if d.G != nw.G {
		if d.G.Name != nw.G.Name || d.G.N() != nw.G.N() {
			return nil, fmt.Errorf("detect: dataset grid %q and network grid %q differ", d.G.Name, nw.G.Name)
		}
	}
	if d.Normal.T() < 2 {
		return nil, fmt.Errorf("detect: need at least 2 normal training samples")
	}
	n := d.G.N()
	ch := cfg.Channel
	dim := ch.Dim(n)

	det := &Detector{
		cfg: cfg, g: d.G, nw: nw,
		lineSubs:   map[grid.Line]*subspace.Subspace{},
		normalSub:  subspace.Zero(dim),
		validLines: append([]grid.Line(nil), d.ValidLines...),
	}

	// Normal-operation mean in channel space. The channel vectors
	// materialise one per worker slot, then each feature accumulates
	// over them in time order — the identical per-feature operation
	// sequence as a sequential pass, so the mean is byte-for-byte the
	// same for every worker count.
	vecs, err := par.Map(ctx, cfg.Workers, d.Normal.T(), func(_ context.Context, t int) ([]float64, error) {
		return d.Normal.Samples[t].Vector(ch), nil
	})
	if err != nil {
		return nil, err
	}
	det.mean = make([]float64, dim)
	err = par.ForEach(ctx, cfg.Workers, dim, func(_ context.Context, i int) error {
		var sum float64
		for _, v := range vecs {
			sum += v[i]
		}
		det.mean[i] = sum / float64(d.Normal.T())
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Normal-operation subspace S⁰ (Eq. 2 on X⁰): the directions along
	// which correlated load variation moves the deviation vector. Without
	// it, ordinary load swings are indistinguishable from weak outages.
	{
		x0, err := det.deviationMatrixContext(ctx, cfg.Workers, d.Normal)
		if err != nil {
			return nil, err
		}
		svd := mat.FactorSVD(x0)
		k := 0
		for _, v := range svd.S {
			if k >= cfg.S0Rank || v < cfg.S0EnergyFrac*svd.S[0] {
				break
			}
			k++
		}
		if k > 0 {
			idx := make([]int, k)
			for i := range idx {
				idx[i] = i
			}
			det.normalSub = subspace.FromBasis(svd.U.SelectCols(idx))
		}
	}

	// Per-line signature subspaces from deviation data (Eq. 2), with the
	// load-variation component projected out so the learned direction is
	// the pure topology signature. One SVD per valid line, fanned out.
	lineSubs, err := par.Map(ctx, cfg.Workers, len(d.ValidLines),
		func(_ context.Context, k int) (*subspace.Subspace, error) {
			e := d.ValidLines[k]
			x := det.normalSub.ProjectOut(det.deviationMatrix(d.Outages[e]))
			s, err := subspace.Learn(x, cfg.LineRank)
			if err != nil {
				return nil, fmt.Errorf("detect: subspace for line %d: %w", e, err)
			}
			return s, nil
		})
	if err != nil {
		return nil, err
	}
	for k, e := range d.ValidLines {
		det.lineSubs[e] = lineSubs[k]
	}

	// Node union/intersection subspaces (Eq. 3), one node per slot.
	det.unionSubs = make([]*subspace.Subspace, n)
	det.interSubs = make([]*subspace.Subspace, n)
	det.nodeLines = make([][]grid.Line, n)
	err = par.ForEach(ctx, cfg.Workers, n, func(_ context.Context, i int) error {
		var subs []*subspace.Subspace
		for _, e := range d.ValidLines {
			a, b := d.G.Endpoints(e)
			if a == i || b == i {
				subs = append(subs, det.lineSubs[e])
				det.nodeLines[i] = append(det.nodeLines[i], e)
			}
		}
		if len(subs) == 0 {
			det.unionSubs[i] = subspace.Zero(dim)
			det.interSubs[i] = subspace.Zero(dim)
			return nil
		}
		u, err := subspace.Union(subs...)
		if err != nil {
			return err
		}
		in, err := subspace.Intersection(cfg.InterShare, subs...)
		if err != nil {
			return err
		}
		det.unionSubs[i] = u
		det.interSubs[i] = in
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Capabilities and detection groups.
	caps, err := LearnCapabilitiesContext(ctx, d, cfg.EllipseMargin, cfg.UseMVEE, cfg.Workers)
	if err != nil {
		return nil, err
	}
	det.caps = caps

	var loadings *mat.Dense
	gcfg := cfg.Groups
	gcfg.Channel = ch
	if gcfg.Mix < 1 {
		// Pool all outage deviations and take the dominant left singular
		// vectors as PCA loadings for the naive orthogonal choice. Column
		// offsets are fixed per line up front, so each line's deviation
		// block lands at its own columns regardless of worker count.
		offsets := make([]int, len(d.ValidLines))
		total := 0
		for k, e := range d.ValidLines {
			offsets[k] = total
			total += d.Outages[e].T()
		}
		pool := mat.NewDense(dim, total)
		err = par.ForEach(ctx, cfg.Workers, len(d.ValidLines), func(_ context.Context, k int) error {
			x := det.deviationMatrix(d.Outages[d.ValidLines[k]])
			for t := 0; t < x.Cols(); t++ {
				pool.SetCol(offsets[k]+t, x.Col(t))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		svd := mat.FactorSVD(pool)
		k := 5
		if r := svd.Rank(0); k > r {
			k = r
		}
		if k == 0 {
			k = 1
		}
		idx := make([]int, k)
		for i := range idx {
			idx[i] = i
		}
		loadings = svd.U.SelectCols(idx)
	}
	// Detection groups must out-dimension the subspaces they score
	// against: a group of g available features, minus the S⁰ rank, must
	// exceed the largest union-subspace rank or the restricted residual
	// degenerates to zero for hub nodes. Derive the floor from the grid.
	maxDeg := 0
	for i := 0; i < n; i++ {
		if deg := d.G.Degree(i); deg > maxDeg {
			maxDeg = deg
		}
	}
	minSize := maxDeg*cfg.LineRank + det.normalSub.Rank() + 4
	if minSize > n {
		minSize = n
	}
	if gcfg.Size < minSize {
		gcfg.Size = minSize
	}
	groups, err := BuildGroups(nw, caps, loadings, gcfg)
	if err != nil {
		return nil, err
	}
	det.groups = groups
	if err := det.prepare(); err != nil {
		return nil, err
	}

	// Calibrate the no-outage threshold: the largest per-feature
	// deviation energy seen across normal training samples. Each
	// sample's energy is independent and the maximum is order-free, so
	// the fan-out cannot change the calibrated value.
	energies, err := par.Map(ctx, cfg.Workers, d.Normal.T(), func(_ context.Context, t int) (float64, error) {
		return det.deviationEnergy(det.deviation(d.Normal.Samples[t])), nil
	})
	if err != nil {
		return nil, err
	}
	var maxE float64
	for _, e := range energies {
		if e > maxE {
			maxE = e
		}
	}
	det.noOutageThresh = maxE * cfg.NoOutageSlack
	return det, nil
}

// deviationMatrixContext is deviationMatrix with the per-sample column
// construction fanned out over workers: each column is owned by exactly
// one item, so the matrix is identical for every worker count.
func (det *Detector) deviationMatrixContext(ctx context.Context, workers int, set *dataset.Set) (*mat.Dense, error) {
	dim := len(det.mean)
	x := mat.NewDense(dim, set.T())
	err := par.ForEach(ctx, workers, set.T(), func(_ context.Context, t int) error {
		v := set.Samples[t].Vector(det.cfg.Channel)
		for i := range v {
			v[i] -= det.mean[i]
		}
		x.SetCol(t, v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return x, nil
}

// deviationMatrix converts a sample set into centered channel vectors.
func (det *Detector) deviationMatrix(set *dataset.Set) *mat.Dense {
	dim := len(det.mean)
	x := mat.NewDense(dim, set.T())
	for t, s := range set.Samples {
		v := s.Vector(det.cfg.Channel)
		for i := range v {
			v[i] -= det.mean[i]
		}
		x.SetCol(t, v)
	}
	return x
}

// deviation returns the centered channel vector of one sample plus the
// feature-level availability mask.
func (det *Detector) deviation(s dataset.Sample) ([]float64, pmunet.Mask) {
	v := s.Vector(det.cfg.Channel)
	for i := range v {
		v[i] -= det.mean[i]
	}
	return v, s.MaskFor(det.cfg.Channel)
}

// deviationEnergy is the mean squared S⁰-filtered deviation over the
// available features: the part of the deviation that ordinary load
// variation cannot explain.
func (det *Detector) deviationEnergy(dev []float64, featMask pmunet.Mask) float64 {
	var avail []int
	for i := range dev {
		if !featMask[i] {
			avail = append(avail, i)
		}
	}
	if len(avail) == 0 {
		return 0
	}
	xd := make([]float64, len(avail))
	for k, i := range avail {
		xd[k] = dev[i]
	}
	normal := det.fullNormal
	if len(avail) < len(dev) {
		var err error
		if normal, err = det.normalSub.Restrict(avail); err != nil {
			return 0
		}
	}
	r0, err := normal.Residual(xd)
	if err != nil {
		return 0
	}
	var e float64
	for _, x := range r0 {
		e += x * x
	}
	return e / float64(len(avail))
}

// clusterPlan is one PDC cluster's share of Eq. (9)–(11) under one
// missing pattern: the cluster's detection group as feature indices,
// and the restrictions to that group of S⁰, of every valid line with an
// endpoint in the cluster, and of the intersection subspace S_i^∩ of
// each cluster node (aligned with the cluster's member list). Every
// node of the cluster scores against the same rows, so these factors —
// the pseudo-inverses that dominate detection — are taken once per
// cluster rather than once per node.
type clusterPlan struct {
	group  []int
	normal *subspace.Restricted
	lines  map[grid.Line]*subspace.Restricted
	inter  []*subspace.Restricted
}

// prepare derives the scoring state Detect reuses across samples: each
// cluster's working set and its plan for a sample with nothing missing,
// S⁰ restricted to every feature, and the grid adjacency. TrainContext
// and FromModel both run it once the learned state is in place; it is
// deterministic, so a decoded model detects byte-identically to the
// trained one.
func (det *Detector) prepare() error {
	n := det.g.N()
	det.adj = adjacency(det.g)
	var err error
	if det.fullNormal, err = det.normalSub.Restrict(allBuses(det.cfg.Channel.Dim(n))); err != nil {
		return err
	}
	complete := pmunet.NoneMissing(n)
	det.groupBuses = make([][]int, len(det.groups))
	det.plans = make([]*clusterPlan, len(det.groups))
	for c, g := range det.groups {
		seen := make([]bool, n)
		for _, b := range slices.Concat(g.InCluster, g.OutCluster) {
			if !seen[b] {
				seen[b] = true
				det.groupBuses[c] = append(det.groupBuses[c], b)
			}
		}
		if det.plans[c], err = det.plan(c, det.group(c, complete)); err != nil {
			return err
		}
	}
	return nil
}

// adjacency lists each bus's neighbours over in-service lines.
func adjacency(g *grid.Grid) [][]int {
	adj := make([][]int, g.N())
	for i := range adj {
		adj[i] = g.Neighbors(i)
	}
	return adj
}

// group realises Eq. (10) for cluster c. The detection group "can use
// data from nodes inside and outside the missing data cluster" (§IV-B,
// Fig. 2), so the working set is the union of the in-cluster members
// D_C(C) and the out-of-cluster alternates D_C(C̄), with masked members
// dropped. When the whole cluster is dark this leaves exactly D_C(C̄) —
// the literal Eq. (10) switch — while partial missing keeps every
// surviving member contributing. If the group still collapses, it falls
// back to every available bus. The result is feature indices.
func (det *Detector) group(c int, busMask pmunet.Mask) []int {
	if feat := det.featureIndices(det.groupBuses[c], busMask); len(feat) >= 2 {
		return feat
	}
	return det.featureIndices(allBuses(det.g.N()), busMask)
}

// plan restricts S⁰, the cluster's incident line subspaces and its
// nodes' intersection subspaces to the given group. An empty group
// gets an empty plan: its nodes cannot be scored.
func (det *Detector) plan(c int, group []int) (*clusterPlan, error) {
	p := &clusterPlan{group: group}
	if len(group) == 0 {
		return p, nil
	}
	var err error
	if p.normal, err = det.normalSub.Restrict(group); err != nil {
		return nil, err
	}
	p.lines = map[grid.Line]*subspace.Restricted{}
	for _, e := range det.validLines {
		a, b := det.g.Endpoints(e)
		if det.nw.ClusterOf(a) != c && det.nw.ClusterOf(b) != c {
			continue
		}
		if p.lines[e], err = det.lineSubs[e].Restrict(group); err != nil {
			return nil, err
		}
	}
	members := det.nw.Clusters[c]
	p.inter = make([]*subspace.Restricted, len(members))
	for k, i := range members {
		if p.inter[k], err = det.interSubs[i].Restrict(group); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// featureIndices maps bus members to channel feature indices, dropping
// buses whose measurements are missing in the mask.
func (det *Detector) featureIndices(members []int, m pmunet.Mask) []int {
	n := det.g.N()
	var out []int
	for _, b := range members {
		switch det.cfg.Channel {
		case dataset.Stacked:
			if !m[b] {
				out = append(out, b, b+n)
			}
		default:
			if !m[b] {
				out = append(out, b)
			}
		}
	}
	return out
}

// busMaskFor normalises a possibly-nil bus mask.
func (det *Detector) busMaskFor(m pmunet.Mask) pmunet.Mask {
	if m != nil {
		return m
	}
	return pmunet.NoneMissing(det.g.N())
}

func allBuses(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Result is the output of one detection.
type Result struct {
	// Outage reports whether the sample is classified as containing at
	// least one line outage.
	Outage bool
	// Lines is the identified outage set F̂ (empty when Outage is false).
	Lines []grid.Line
	// NodeScores holds the scaled proximity p̂rox of every node
	// (Eq. 11); lower means closer to that node's outage subspaces.
	NodeScores []float64
	// Candidates is the connected node prefix chosen by the proximity
	// rule.
	Candidates []int
	// DeviationEnergy is the per-feature deviation energy used for the
	// outage/no-outage decision.
	DeviationEnergy float64
}

// Detect runs the full pipeline of §IV-C on one sample, which may
// contain missing measurements (mask set).
func (det *Detector) Detect(s dataset.Sample) (*Result, error) {
	if s.N() != det.g.N() {
		return nil, fmt.Errorf("detect: sample has %d buses, grid %d", s.N(), det.g.N())
	}
	busMask := det.busMaskFor(s.Mask)
	dev, featMask := det.deviation(s)

	res := &Result{DeviationEnergy: det.deviationEnergy(dev, featMask)}

	// Outage / no-outage gate: with only normal-level deviation energy
	// on the available features, declare normal operation. This is what
	// lets the detector tell missing data apart from physical failures
	// (Fig. 8): missing entries are excluded rather than imputed, so
	// they contribute no phantom deviation.
	if res.DeviationEnergy <= det.noOutageThresh {
		return res, nil
	}
	res.Outage = true

	clusters := make([]clusterScore, len(det.plans))
	for c := range clusters {
		if err := det.scoreCluster(&clusters[c], c, dev, busMask); err != nil {
			return nil, err
		}
	}
	res.NodeScores = make([]float64, det.g.N())
	for c, members := range det.nw.Clusters {
		for k, i := range members {
			score, err := det.nodeScore(&clusters[c], k, i)
			if err != nil {
				return nil, err
			}
			res.NodeScores[i] = score
		}
	}

	res.Candidates = det.proximityRule(res.NodeScores)
	res.Lines = det.decodeLines(res.Candidates, clusters)
	if len(res.Lines) == 0 {
		// The proximity rule found no line-consistent candidate set;
		// report the outage with the best-scoring node's incident lines
		// as a conservative fallback.
		best := argmin(res.NodeScores)
		if best >= 0 {
			res.Lines = det.bestIncidentLine(best, clusters)
		}
	}
	return res, nil
}

// clusterScore is one cluster's share of a scored sample: the plan for
// the sample's missing pattern, the group-restricted deviation with its
// S⁰ (load-variation) component removed, that residual's energy
// p0 = prox_{S⁰}, and the restricted sample energy ‖x_D‖² used to
// normalise proximities across detection groups.
type clusterScore struct {
	*clusterPlan
	r0     []float64
	p0, xe float64
}

// scoreCluster fills cluster c's share of a sample. It reuses the
// cluster's cached plan when the mask leaves the detection group
// unchanged and builds one for this sample otherwise.
func (det *Detector) scoreCluster(cs *clusterScore, c int, dev []float64, busMask pmunet.Mask) error {
	cs.clusterPlan = det.plans[c]
	if group := det.group(c, busMask); !slices.Equal(group, cs.group) {
		p, err := det.plan(c, group)
		if err != nil {
			return err
		}
		cs.clusterPlan = p
	}
	if len(cs.group) == 0 {
		return nil
	}
	xd := make([]float64, len(cs.group))
	for k, i := range cs.group {
		xd[k] = dev[i]
	}
	xe := mat.Norm2(xd)
	cs.xe = metrics.PositiveFloor(xe*xe, math.SmallestNonzeroFloat64)
	r0, err := cs.normal.Residual(xd)
	if err != nil {
		return err
	}
	p0 := mat.Norm2(r0)
	cs.r0, cs.p0 = r0, p0*p0
	return nil
}

// nodeScore is the scaled proximity p̂rox of Eq. (11) of node i, member
// k of the cluster cs belongs to: +Inf when its cluster's group is empty
// or it has no valid line.
func (det *Detector) nodeScore(cs *clusterScore, k, i int) (float64, error) {
	if len(cs.group) == 0 {
		return math.Inf(1), nil
	}
	// Proximity to S_i^∪: Eq. (3) defines it as the set union of the
	// node's line subspaces, and the distance of a point to a union of
	// subspaces is the minimum of the member distances. Scoring with the
	// minimum (rather than the linear span) keeps every node's fit at the
	// same rank, so high-degree hubs cannot absorb arbitrary deviations
	// into a large spanning basis.
	pu := math.Inf(1)
	for _, e := range det.nodeLines[i] {
		p, err := det.prox(det.lineSubs[e], cs.lines[e], cs)
		if err != nil {
			return 0, err
		}
		if p < pu {
			pu = p
		}
	}
	if math.IsInf(pu, 1) {
		return pu, nil
	}
	if det.cfg.DisableScaling {
		return pu / cs.xe, nil
	}
	pi, err := det.prox(det.interSubs[i], cs.inter[k], cs)
	if err != nil {
		return 0, err
	}
	// Normalising the three proximities by the restricted sample energy
	// makes the Eq. (11) score dimensionless, so rankings stay comparable
	// when Eq. (10) assigns different detection groups to different
	// clusters under missing data.
	return subspace.ScaledProximity(pu/cs.xe, pi/cs.xe, cs.p0/cs.xe), nil
}

// prox measures the residual energy of a cluster's S⁰-filtered
// restricted deviation against subspace s, whose restriction to the
// cluster's group is f.
func (det *Detector) prox(s *subspace.Subspace, f *subspace.Restricted, cs *clusterScore) (float64, error) {
	if det.cfg.UseRegressorProximity && s.Rank() > 0 {
		// Ablation: scatter the filtered residual back to full dimension
		// and use the literal Eq. (9) regressor formulation.
		full := make([]float64, s.Dim())
		for k, i := range cs.group {
			full[i] = cs.r0[k]
		}
		return s.RegressorProximity(full, cs.group)
	}
	r, err := f.Residual(cs.r0)
	if err != nil {
		return 0, err
	}
	n := mat.Norm2(r)
	return n * n, nil
}

// proximityRule implements the decoder of §IV-C: sort nodes by scaled
// proximity ascending and keep the prefix that (a) stays within
// GapFactor of the best score, (b) forms a connected subgraph, and (c)
// has at most MaxCandidates members.
func (det *Detector) proximityRule(scores []float64) []int {
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })
	if len(order) == 0 || math.IsInf(scores[order[0]], 1) {
		return nil
	}
	best := scores[order[0]]
	if best <= 0 {
		best = math.SmallestNonzeroFloat64
	}
	cand := []int{order[0]}
	for _, i := range order[1:] {
		if len(cand) >= det.cfg.MaxCandidates {
			break
		}
		if scores[i] > best*det.cfg.GapFactor {
			break
		}
		// The candidates are connected, so adding i keeps them connected
		// exactly when i neighbours one of them. Nodes that would break
		// connectivity are skipped but do not end the scan: electrically
		// close, topologically distant nodes can interleave in the
		// ranking.
		if det.neighbours(i, cand) {
			cand = append(cand, i)
		}
	}
	sort.Ints(cand)
	return cand
}

// neighbours reports whether node i shares a line with any of nodes.
func (det *Detector) neighbours(i int, nodes []int) bool {
	for _, v := range det.adj[i] {
		if slices.Contains(nodes, v) {
			return true
		}
	}
	return false
}

// decodeLines turns the candidate node set into F̂: lines whose both
// endpoints are candidates, filtered by their per-line subspace
// proximity (only lines within LineKeepFactor of the best survive).
// Each line is scored in the cluster of its from-bus.
func (det *Detector) decodeLines(cand []int, clusters []clusterScore) []grid.Line {
	type scored struct {
		e grid.Line
		p float64
	}
	var ls []scored
	for _, e := range det.validLines {
		a, b := det.g.Endpoints(e)
		// The proximity rule's candidate prefix may drop one endpoint of
		// the true line — typically the masked one whose own cluster had
		// to fall back to a remote detection group — so lines with at
		// least one candidate endpoint stay in the running; the per-line
		// subspace filter below does the final discrimination.
		if !slices.Contains(cand, a) && !slices.Contains(cand, b) {
			continue
		}
		cs := &clusters[det.nw.ClusterOf(a)]
		if len(cs.group) == 0 {
			continue
		}
		p, err := det.prox(det.lineSubs[e], cs.lines[e], cs)
		if err != nil {
			continue
		}
		ls = append(ls, scored{e, p / cs.xe})
	}
	if len(ls) == 0 {
		return nil
	}
	sort.SliceStable(ls, func(a, b int) bool { return ls[a].p < ls[b].p })
	best := ls[0].p
	if best <= 0 {
		best = math.SmallestNonzeroFloat64
	}
	var out []grid.Line
	for _, s := range ls {
		if len(out) >= det.cfg.MaxLines {
			break
		}
		if s.p <= best*det.cfg.LineKeepFactor {
			out = append(out, s.e)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// bestIncidentLine scores the valid lines of one node in the node's
// cluster and returns the closest, as a last-resort localisation.
func (det *Detector) bestIncidentLine(node int, clusters []clusterScore) []grid.Line {
	cs := &clusters[det.nw.ClusterOf(node)]
	if len(cs.group) == 0 {
		return nil
	}
	bestLine := grid.Line(-1)
	bestP := math.Inf(1)
	for _, e := range det.validLines {
		a, b := det.g.Endpoints(e)
		if a != node && b != node {
			continue
		}
		p, err := det.prox(det.lineSubs[e], cs.lines[e], cs)
		if err != nil {
			continue
		}
		if p/cs.xe < bestP {
			bestP, bestLine = p/cs.xe, e
		}
	}
	if bestLine < 0 {
		return nil
	}
	return []grid.Line{bestLine}
}

func argmin(v []float64) int {
	best := -1
	bestV := math.Inf(1)
	for i, x := range v {
		if x < bestV {
			bestV, best = x, i
		}
	}
	return best
}

// Grid returns the detector's grid.
func (det *Detector) Grid() *grid.Grid { return det.g }

// Network returns the detector's PMU network.
func (det *Detector) Network() *pmunet.Network { return det.nw }

// Capabilities exposes the learned capability matrix (read-only use).
func (det *Detector) Capabilities() *Capabilities { return det.caps }

// DetectionGroups exposes the per-cluster groups (read-only use).
func (det *Detector) DetectionGroups() []Group { return det.groups }

// ValidLines returns the lines with learned outage subspaces.
func (det *Detector) ValidLines() []grid.Line {
	return append([]grid.Line(nil), det.validLines...)
}

// NoOutageThreshold returns the calibrated deviation-energy threshold.
func (det *Detector) NoOutageThreshold() float64 { return det.noOutageThresh }
