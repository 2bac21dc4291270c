package detect

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

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
	caps   *Capabilities // Snapshot's ellipses and Eq. (5) rows
	groups []Group

	mean      []float64            // normal-operation mean in channel space
	lineSubs  []*subspace.Subspace // per valid line, aligned with validLines
	interSubs []*subspace.Subspace // S_i^∩ per node (Eq. 3)
	normalSub *subspace.Subspace   // S⁰: dominant load-variation directions

	// noOutageThresh is the calibrated per-feature deviation energy
	// above which a sample is treated as a potential outage.
	noOutageThresh float64

	validLines []grid.Line

	// Scoring state derived by prepare from the fields above and never
	// serialised: each cluster's Eq. (10) working set as buses, the valid
	// lines its plans restrict (as validLines indices, in validLines
	// order; a line's position in that list is its slot), each node's
	// lines as slots of its own cluster (aligned with nodeValid), each
	// valid line's slot in its from-bus cluster, the valid lines ending
	// at each node (incidentLines), each cluster's plan for a sample with
	// nothing missing, S⁰ restricted to every feature (the energy gate of
	// a complete sample), and the grid adjacency the proximity rule
	// walks.
	groupBuses   [][]int
	clusterLines [][]int
	nodeSlots    [][]int
	fromSlot     []int
	nodeValid    [][]int
	plans        []*clusterPlan
	fullNormal   *subspace.Restricted
	adj          [][]int

	// Slots built on first use (see maskedPlan and gateNormal): per
	// cluster, the plan for a mask that darkens exactly one bus of its
	// group, at that bus's position in groupBuses (nil for a cluster
	// whose group less one bus falls back to every available bus), and
	// per bus, the gate's S⁰ restricted to every other bus's features.
	planSlots [][]atomic.Pointer[clusterPlan]
	gateSlots []atomic.Pointer[subspace.Restricted]
}

// TrainContext learns the detector from generated data and a PMU
// network, stopping at the first context error. The per-line subspace
// SVDs (four lines per task), the per-node intersection subspaces, and
// the Eq. 5 capability rows each fan out over cfg.Workers workers.
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
	// the pure topology signature. The SVDs run four lines at a time
	// (subspace.LearnQuad, the same bits as one by one), the groups
	// fanned out; a last group of fewer than four learns line by line.
	lineData := func(k int) *mat.Dense {
		return det.normalSub.ProjectOut(deviationMatrix(d.Outages[d.ValidLines[k]], det.mean, ch))
	}
	det.lineSubs = make([]*subspace.Subspace, len(d.ValidLines))
	err = par.ForEach(ctx, cfg.Workers, (len(d.ValidLines)+3)/4, func(_ context.Context, g int) error {
		k := 4 * g
		if k+4 > len(d.ValidLines) {
			for ; k < len(d.ValidLines); k++ {
				s, err := subspace.Learn(lineData(k), cfg.LineRank)
				if err != nil {
					return fmt.Errorf("detect: subspace for line %d: %w", d.ValidLines[k], err)
				}
				det.lineSubs[k] = s
			}
			return nil
		}
		subs, err := subspace.LearnQuad([4]*mat.Dense{lineData(k), lineData(k + 1), lineData(k + 2), lineData(k + 3)}, cfg.LineRank)
		if err != nil {
			return fmt.Errorf("detect: subspaces for lines %v: %w", d.ValidLines[k:k+4], err)
		}
		copy(det.lineSubs[k:k+4], subs[:])
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Node intersection subspaces S_i^∩ (Eq. 3), one node per slot.
	lines := incidentLines(d.G, d.ValidLines)
	det.interSubs, err = par.Map(ctx, cfg.Workers, n, func(_ context.Context, i int) (*subspace.Subspace, error) {
		return nodeIntersection(cfg.InterShare, dim, det.lineSubs, lines[i])
	})
	if err != nil {
		return nil, err
	}

	// Capabilities and detection groups.
	caps, err := learnCapabilities(ctx, d, cfg.EllipseMargin, cfg.UseMVEE, cfg.Workers)
	if err != nil {
		return nil, err
	}
	det.caps = caps

	var loadings *mat.Dense
	if cfg.Groups.Mix < 1 {
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
			x := deviationMatrix(d.Outages[d.ValidLines[k]], det.mean, ch)
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
	groups, err := BuildGroups(nw, caps.P, loadings, cfg.groupConfig(d.G, det.normalSub.Rank()))
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

// deviationMatrix centers a sample set's channel vectors on the given
// mean, one column per sample.
func deviationMatrix(set *dataset.Set, mean []float64, ch dataset.Channel) *mat.Dense {
	x := mat.NewDense(len(mean), set.T())
	for t, s := range set.Samples {
		v := s.Vector(ch)
		for i := range v {
			v[i] -= mean[i]
		}
		x.SetCol(t, v)
	}
	return x
}

// deviation returns the sample's channel vector minus the
// normal-operation mean, and the feature-level availability mask when
// the sample has a measurement missing (nil otherwise). The deviation's
// one allocation holds as much again past its end for deviationEnergy's
// S⁰ residual, and, when a measurement is missing, as much again for
// the available features it gathers. With one feature per bus the
// feature mask is the sample's own.
func (det *Detector) deviation(s dataset.Sample) ([]float64, pmunet.Mask) {
	dim := len(det.mean)
	complete := s.Complete()
	spare := 2 * dim
	if !complete {
		spare = 3 * dim
	}
	dev := make([]float64, dim, spare)
	switch n := s.N(); det.cfg.Channel {
	case dataset.Magnitude:
		subTo(dev, s.Vm, det.mean)
	case dataset.Angle:
		subTo(dev, s.Va, det.mean)
	case dataset.Stacked:
		subTo(dev[:n], s.Vm, det.mean[:n])
		subTo(dev[n:], s.Va, det.mean[n:])
	}
	switch {
	case complete:
		return dev, nil
	case det.cfg.Channel == dataset.Stacked:
		return dev, s.MaskFor(det.cfg.Channel)
	}
	return dev, s.Mask
}

// subTo stores x − mean into dst.
func subTo(dst, x, mean []float64) {
	for i := range dst {
		dst[i] = x[i] - mean[i]
	}
}

// deviationEnergy is the mean squared S⁰-filtered deviation over the
// available features: the part of the deviation that ordinary load
// variation cannot explain. The residual, and the available features
// when featMask is not nil, go into dev's spare capacity, which
// deviation sizes for them.
func (det *Detector) deviationEnergy(dev []float64, featMask pmunet.Mask) float64 {
	xd, normal := dev, det.fullNormal
	if featMask != nil {
		dim := len(dev)
		xd = dev[2*dim : 3*dim]
		n, first := 0, -1
		for i, x := range dev {
			if featMask[i] {
				if first < 0 {
					first = i
				}
				continue
			}
			xd[n] = x
			n++
		}
		if n == 0 {
			return 0
		}
		xd = xd[:n]
		var err error
		if normal, err = det.gateNormal(featMask, dim-n, first); err != nil {
			return 0
		}
	}
	r0 := dev[len(dev) : len(dev)+len(xd)]
	if err := normal.ResidualTo(r0, xd); err != nil {
		return 0
	}
	var e float64
	for _, x := range r0 {
		e += x * x
	}
	return e / float64(len(xd))
}

// gateNormal is S⁰ restricted to the features featMask leaves, missing
// of them dark, the first at index first. A bus has len(featMask)/N
// features, so missing·N equals len(featMask) exactly when one bus is
// dark; the first dark feature is then that bus, and the factor comes
// from its gate slot, built on first use. Any other mask restricts S⁰
// for this sample alone.
func (det *Detector) gateNormal(featMask pmunet.Mask, missing, first int) (*subspace.Restricted, error) {
	restrict := func() (*subspace.Restricted, error) { return det.normalSub.Restrict(featMask.Available()) }
	if missing*det.g.N() != len(featMask) {
		return restrict()
	}
	return loadOrBuild(&det.gateSlots[first], restrict)
}

// loadOrBuild returns the slot's value, building and storing it first
// when the slot is empty. Every slot holds a deterministic function of
// its key, so a build that races another stores the same bits.
func loadOrBuild[T any](slot *atomic.Pointer[T], build func() (*T, error)) (*T, error) {
	if v := slot.Load(); v != nil {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	slot.Store(v)
	return v, nil
}

// clusterPlan is one PDC cluster's share of Eq. (9)–(11) under one
// missing pattern: the cluster's detection group as feature indices, S⁰
// restricted to that group, and the packed restrictions to it of every
// valid line with an endpoint in the cluster (in the cluster's
// clusterLines order) followed, unless scaling is off, by the
// intersection subspace S_i^∩ of each cluster node (in member order).
// Every node of the cluster scores against the same rows, so these
// factors — the pseudo-inverses that dominate detection — are taken once
// per cluster rather than once per node, and one kernel pass measures
// them all.
type clusterPlan struct {
	group  []int
	normal *subspace.Restricted
	subs   *subspace.Packed
}

// prepare derives the scoring state Detect reuses across samples: each
// cluster's working set, its line slots and its plan for a sample with
// nothing missing, S⁰ restricted to every feature, the grid adjacency,
// and empty slots for the factors of a sample with one bus dark.
// TrainContext and FromModel both run it once the learned state is in
// place; it is deterministic, so a decoded model detects
// byte-identically to the trained one.
func (det *Detector) prepare() error {
	n := det.g.N()
	det.adj = adjacency(det.g)
	var err error
	if det.fullNormal, err = det.normalSub.Restrict(allBuses(det.cfg.Channel.Dim(n))); err != nil {
		return err
	}
	// A line's slot in each cluster it ends in, over the valid lines in
	// order: each cluster's slots follow validLines, as its plans do.
	slots := make([]map[grid.Line]int, len(det.groups))
	for c := range slots {
		slots[c] = map[grid.Line]int{}
	}
	det.clusterLines = make([][]int, len(det.groups))
	det.fromSlot = make([]int, len(det.validLines))
	for k, e := range det.validLines {
		a, b := det.g.Endpoints(e)
		for _, c := range []int{det.nw.ClusterOf(a), det.nw.ClusterOf(b)} {
			if _, ok := slots[c][e]; !ok {
				slots[c][e] = len(det.clusterLines[c])
				det.clusterLines[c] = append(det.clusterLines[c], k)
			}
		}
		det.fromSlot[k] = slots[det.nw.ClusterOf(a)][e]
	}
	det.nodeValid = incidentLines(det.g, det.validLines)
	det.nodeSlots = make([][]int, n)
	for i, ks := range det.nodeValid {
		for _, k := range ks {
			det.nodeSlots[i] = append(det.nodeSlots[i], slots[det.nw.ClusterOf(i)][det.validLines[k]])
		}
	}
	complete := pmunet.NoneMissing(n)
	det.groupBuses = make([][]int, len(det.groups))
	det.plans = make([]*clusterPlan, len(det.groups))
	det.planSlots = make([][]atomic.Pointer[clusterPlan], len(det.groups))
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
		if buses := det.groupBuses[c]; len(buses) > 0 && len(det.featureIndices(buses[1:], complete)) >= 2 {
			det.planSlots[c] = make([]atomic.Pointer[clusterPlan], len(buses))
		}
	}
	det.gateSlots = make([]atomic.Pointer[subspace.Restricted], n)
	return nil
}

// incidentLines lists the valid lines ending at each bus of g as
// indices into valid, in valid's order: the lines of a node's Eq. (3)
// intersection, its Eq. (6)–(7) cases, its scoring slots and the line
// decoder's candidates. A self-loop, which no grid that passes
// grid.Validate has, is listed twice at its bus.
func incidentLines(g *grid.Grid, valid []grid.Line) [][]int {
	out := make([][]int, g.N())
	for k, e := range valid {
		a, b := g.Endpoints(e)
		out[a] = append(out[a], k)
		out[b] = append(out[b], k)
	}
	return out
}

// nodeIntersection is S_i^∩ (Eq. 3) of a node whose valid lines are
// lines, indices into subs, or the zero subspace of dimension dim for a
// node with none.
func nodeIntersection(share float64, dim int, subs []*subspace.Subspace, lines []int) (*subspace.Subspace, error) {
	if len(lines) == 0 {
		return subspace.Zero(dim), nil
	}
	in := make([]*subspace.Subspace, len(lines))
	for j, k := range lines {
		in[j] = subs[k]
	}
	return subspace.Intersection(share, in...)
}

// groupConfig is c.Groups as BuildGroups takes it: on c's channel, and
// no smaller than detection needs. A group of g available features,
// minus the S⁰ rank, must exceed the summed rank of a node's line
// subspaces (max degree times LineRank, which also bounds S_i^∩), or
// the restricted residual degenerates to zero for hub nodes; the floor
// adds a margin of four and is capped at the bus count.
func (c Config) groupConfig(g *grid.Grid, s0Rank int) GroupConfig {
	gc := c.Groups
	gc.Channel = c.Channel
	maxDeg := 0
	for i := 0; i < g.N(); i++ {
		maxDeg = max(maxDeg, g.Degree(i))
	}
	gc.Size = max(gc.Size, min(maxDeg*c.LineRank+s0Rank+4, g.N()))
	return gc
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

// plan restricts S⁰ to the given group and packs the cluster's line
// subspaces and, when scaling is on, its nodes' intersection subspaces
// restricted to it. An empty group gets an empty plan: its nodes cannot
// be scored.
func (det *Detector) plan(c int, group []int) (*clusterPlan, error) {
	p := &clusterPlan{group: group}
	if len(group) == 0 {
		return p, nil
	}
	var err error
	if p.normal, err = det.normalSub.Restrict(group); err != nil {
		return nil, err
	}
	members := det.nw.Clusters[c]
	subs := make([]*subspace.Subspace, 0, len(det.clusterLines[c])+len(members))
	for _, k := range det.clusterLines[c] {
		subs = append(subs, det.lineSubs[k])
	}
	if !det.cfg.DisableScaling {
		for _, i := range members {
			subs = append(subs, det.interSubs[i])
		}
	}
	if p.subs, err = subspace.Pack(group, subs...); err != nil {
		return nil, err
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

// ErrNonFinite reports a sample whose deviation energy is not finite: a
// NaN or infinite value at a bus not marked missing, or one large
// enough to overflow the energy. Such a sample is malformed input, not
// evidence of an outage, so Detect refuses it.
var ErrNonFinite = errors.New("detect: non-finite deviation energy")

// Detect runs the full pipeline of §IV-C on one sample, which may
// contain missing measurements (mask set). A sample whose deviation
// energy is not finite fails with ErrNonFinite.
func (det *Detector) Detect(s dataset.Sample) (*Result, error) {
	n := det.g.N()
	if s.N() != n || len(s.Va) != n {
		return nil, fmt.Errorf("detect: sample has %d/%d values, grid %d buses", s.N(), len(s.Va), n)
	}
	if s.Mask != nil && len(s.Mask) != n {
		return nil, fmt.Errorf("detect: sample mask has %d entries, grid %d buses", len(s.Mask), n)
	}
	dev, featMask := det.deviation(s)

	res := &Result{DeviationEnergy: det.deviationEnergy(dev, featMask)}
	if e := res.DeviationEnergy; math.IsNaN(e) || math.IsInf(e, 0) {
		return nil, fmt.Errorf("%w: %v", ErrNonFinite, e)
	}

	// Outage / no-outage gate: with only normal-level deviation energy
	// on the available features, declare normal operation. This is what
	// lets the detector tell missing data apart from physical failures
	// (Fig. 8): missing entries are excluded rather than imputed, so
	// they contribute no phantom deviation.
	if res.DeviationEnergy <= det.noOutageThresh {
		return res, nil
	}
	res.Outage = true

	clusters, err := det.scoreClusters(dev, s.Mask)
	if err != nil {
		return nil, err
	}
	res.NodeScores = make([]float64, n)
	for c, members := range det.nw.Clusters {
		for k, i := range members {
			res.NodeScores[i] = det.nodeScore(&clusters[c], k, i)
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
// the sample's missing pattern, the restricted sample energy ‖x_D‖²
// used to normalise proximities across detection groups, the energy
// p0 = prox_{S⁰} of the group-restricted deviation's S⁰ (load-variation)
// residual r0, and the proximity of r0 to each plan line (aligned with
// the cluster's clusterLines) and to each member's S_i^∩ (aligned with
// the members; zero when scaling is off).
type clusterScore struct {
	*clusterPlan
	p0, xe    float64
	lineProx  []float64
	interProx []float64
}

// scoreClusters scores every cluster's share of a sample, each with its
// plan for the sample's mask (see maskedPlan). The proximities and the
// scratch the clusters share in turn come from one slab.
func (det *Detector) scoreClusters(dev []float64, busMask pmunet.Mask) ([]clusterScore, error) {
	masked := busMask.AnyMissing()
	clusters := make([]clusterScore, len(det.plans))
	size, maxGroup, maxScratch := 0, 0, 0
	for c := range clusters {
		cs := &clusters[c]
		cs.clusterPlan = det.plans[c]
		if masked {
			p, err := det.maskedPlan(c, busMask)
			if err != nil {
				return nil, err
			}
			cs.clusterPlan = p
		}
		size += len(det.clusterLines[c]) + len(det.nw.Clusters[c])
		if len(cs.group) > 0 {
			maxGroup = max(maxGroup, len(cs.group))
			maxScratch = max(maxScratch, cs.subs.ScratchLen())
		}
	}
	slab := make([]float64, 2*maxGroup+maxScratch+size)
	xd, r0 := slab[:maxGroup], slab[maxGroup:2*maxGroup]
	scratch := slab[2*maxGroup : 2*maxGroup+maxScratch]
	slab = slab[2*maxGroup+maxScratch:]
	for c := range clusters {
		cs := &clusters[c]
		nl, ni := len(det.clusterLines[c]), len(det.nw.Clusters[c])
		prox := slab[:nl+ni]
		slab = slab[nl+ni:]
		cs.lineProx, cs.interProx = prox[:nl], prox[nl:]
		if err := det.scoreCluster(cs, c, dev, prox, xd[:len(cs.group)], r0[:len(cs.group)], scratch); err != nil {
			return nil, err
		}
	}
	return clusters, nil
}

// maskedPlan is cluster c's plan under a mask with a bus missing. In a
// cluster with slots, a group with no dark bus keeps the complete plan,
// and one with one dark bus takes that bus's slot, built on first use:
// the group is then groupBuses[c] without that bus, whatever else is
// dark. Two or more dark group buses, or a cluster without slots, get
// the complete plan when the mask leaves the group unchanged and one
// built for this sample otherwise.
func (det *Detector) maskedPlan(c int, busMask pmunet.Mask) (*clusterPlan, error) {
	if slots := det.planSlots[c]; slots != nil {
		j, dark := 0, 0
		for k, b := range det.groupBuses[c] {
			if busMask[b] {
				j, dark = k, dark+1
			}
		}
		switch dark {
		case 0:
			return det.plans[c], nil
		case 1:
			return loadOrBuild(&slots[j], func() (*clusterPlan, error) { return det.plan(c, det.group(c, busMask)) })
		}
	}
	group := det.group(c, busMask)
	if slices.Equal(group, det.plans[c].group) {
		return det.plans[c], nil
	}
	return det.plan(c, group)
}

// scoreCluster fills cluster c's share of a sample. One pass of the
// plan's packed kernel measures each proximity that nodeScore,
// decodeLines and bestIncidentLine read: every plan line's, into the
// front of prox, and, when scaling is on, every member's S_i^∩
// proximity after them. xd and r0 are scratch the size of the cluster's
// group, and scratch holds at least the packed kernel's.
func (det *Detector) scoreCluster(cs *clusterScore, c int, dev, prox, xd, r0, scratch []float64) error {
	if len(cs.group) == 0 {
		return nil
	}
	for k, i := range cs.group {
		xd[k] = dev[i]
	}
	xe := mat.Norm2(xd)
	cs.xe = metrics.PositiveFloor(xe*xe, math.SmallestNonzeroFloat64)
	if err := cs.normal.ResidualTo(r0, xd); err != nil {
		return err
	}
	n0 := mat.Norm2(r0)
	cs.p0 = n0 * n0
	if err := cs.subs.EnergiesTo(prox[:cs.subs.Len()], scratch, r0, cs.p0); err != nil {
		return err
	}
	if !det.cfg.UseRegressorProximity {
		return nil
	}
	// Ablation: the literal regressor formulation replaces every
	// proximity to a subspace of rank above zero.
	var err error
	for slot, k := range det.clusterLines[c] {
		if s := det.lineSubs[k]; s.Rank() > 0 {
			if cs.lineProx[slot], err = det.prox(s, cs.group, r0); err != nil {
				return err
			}
		}
	}
	if det.cfg.DisableScaling {
		return nil
	}
	for k, i := range det.nw.Clusters[c] {
		// nodeScore returns +Inf before scaling a node with no line.
		if s := det.interSubs[i]; s.Rank() > 0 && len(det.nodeSlots[i]) > 0 {
			if cs.interProx[k], err = det.prox(s, cs.group, r0); err != nil {
				return err
			}
		}
	}
	return nil
}

// nodeScore is the scaled proximity p̂rox of Eq. (11) of node i, member
// k of the cluster cs belongs to: +Inf when its cluster's group is empty
// or it has no valid line.
func (det *Detector) nodeScore(cs *clusterScore, k, i int) float64 {
	if len(cs.group) == 0 {
		return math.Inf(1)
	}
	// Proximity to S_i^∪: Eq. (3) defines it as the set union of the
	// node's line subspaces, and the distance of a point to a union of
	// subspaces is the minimum of the member distances. Scoring with the
	// minimum (rather than the linear span) keeps every node's fit at the
	// same rank, so high-degree hubs cannot absorb arbitrary deviations
	// into a large spanning basis.
	pu := math.Inf(1)
	for _, slot := range det.nodeSlots[i] {
		if p := cs.lineProx[slot]; p < pu {
			pu = p
		}
	}
	if math.IsInf(pu, 1) {
		return pu
	}
	if det.cfg.DisableScaling {
		return pu / cs.xe
	}
	// Normalising the three proximities by the restricted sample energy
	// makes the Eq. (11) score dimensionless, so rankings stay comparable
	// when Eq. (10) assigns different detection groups to different
	// clusters under missing data.
	return subspace.ScaledProximity(pu/cs.xe, cs.interProx[k]/cs.xe, cs.p0/cs.xe)
}

// prox is the UseRegressorProximity ablation's proximity of a
// cluster's S⁰-filtered restricted deviation r0 to subspace s: r0
// scattered back to full dimension and scored by the literal Eq. (9)
// regressor formulation.
func (det *Detector) prox(s *subspace.Subspace, group []int, r0 []float64) (float64, error) {
	full := make([]float64, s.Dim())
	for k, i := range group {
		full[i] = r0[k]
	}
	return s.RegressorProximity(full, group)
}

// cmpLess orders x before y exactly when x < y. The stable sorts below
// only ask whether it is negative, so they order exactly as a stable
// sort under the less function x < y, NaNs included.
func cmpLess(x, y float64) int {
	switch {
	case x < y:
		return -1
	case y < x:
		return 1
	}
	return 0
}

// proximityRule implements the decoder of §IV-C: rank nodes by scaled
// proximity ascending and keep the prefix that (a) stays within
// GapFactor of the best score, (b) forms a connected subgraph, and (c)
// has at most MaxCandidates members.
//
// The ranking is a stable sort under <. When no score is NaN, that is
// the order by (score, node), −0 and +0 tying, so only the nodes within
// GapFactor of the best go into a heap, popped while the scan still
// reads: the scan ends at the first node beyond the gap, and every
// later node is beyond it too. A NaN compares neither below nor above
// anything, so the stable sort places it by position, which no
// selection reproduces: scores that hold one take proximityRuleStable.
func (det *Detector) proximityRule(scores []float64) []int {
	if slices.ContainsFunc(scores, math.IsNaN) {
		return det.proximityRuleStable(scores)
	}
	first := argmin(scores)
	if first < 0 {
		return nil
	}
	limit := gapLimit(scores[first], det.cfg.GapFactor)
	// One allocation: room for every candidate the scan can add, then
	// the heap of the other nodes within the gap.
	ncand := max(1, min(det.cfg.MaxCandidates, len(scores)))
	buf := make([]int, ncand+len(scores)-1)
	buf[0] = first
	cand := buf[:1:ncand]
	h := nodeHeap{scores: scores, nodes: buf[ncand:ncand]}
	for i, s := range scores {
		if i != first && !(s > limit) {
			h.nodes = append(h.nodes, i)
		}
	}
	h.init()
	for len(h.nodes) > 0 && len(cand) < det.cfg.MaxCandidates {
		// The candidates are connected, so adding i keeps them connected
		// exactly when i neighbours one of them. Nodes that would break
		// connectivity are skipped but do not end the scan: electrically
		// close, topologically distant nodes can interleave in the
		// ranking.
		if i := h.pop(); det.neighbours(i, cand) {
			cand = append(cand, i)
		}
	}
	slices.Sort(cand)
	return cand
}

// proximityRuleStable is proximityRule for scores that hold a NaN: a
// stable sort of every node, then the same scan over the sorted order.
func (det *Detector) proximityRuleStable(scores []float64) []int {
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmpLess(scores[a], scores[b]) })
	if math.IsInf(scores[order[0]], 1) {
		return nil
	}
	limit := gapLimit(scores[order[0]], det.cfg.GapFactor)
	cand := []int{order[0]}
	for _, i := range order[1:] {
		if len(cand) >= det.cfg.MaxCandidates || scores[i] > limit {
			break
		}
		if det.neighbours(i, cand) {
			cand = append(cand, i)
		}
	}
	slices.Sort(cand)
	return cand
}

// gapLimit is the highest score a ranked scan admits: factor
// (GapFactor for the proximity rule, LineKeepFactor for the line
// decoder) times the best score, which is floored at the smallest
// positive float64 first, as a negative best times the factor would
// fall below the best itself.
func gapLimit(best, factor float64) float64 {
	if best <= 0 {
		best = math.SmallestNonzeroFloat64
	}
	return best * factor
}

// nodeHeap is a binary min-heap of nodes in the order by (score, node),
// the proximity rule's stable order when no score is NaN.
type nodeHeap struct {
	scores []float64
	nodes  []int
}

func (h *nodeHeap) less(a, b int) bool {
	c := cmpLess(h.scores[a], h.scores[b])
	return c < 0 || c == 0 && a < b
}

func (h *nodeHeap) init() {
	for i := len(h.nodes)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// pop removes and returns the least node.
func (h *nodeHeap) pop() int {
	top, last := h.nodes[0], len(h.nodes)-1
	h.nodes[0] = h.nodes[last]
	h.nodes = h.nodes[:last]
	h.down(0)
	return top
}

// down moves the node at i down to its place below its children.
func (h *nodeHeap) down(i int) {
	for {
		m := 2*i + 1
		if m >= len(h.nodes) {
			return
		}
		if r := m + 1; r < len(h.nodes) && h.less(h.nodes[r], h.nodes[m]) {
			m = r
		}
		if !h.less(h.nodes[m], h.nodes[i]) {
			return
		}
		h.nodes[i], h.nodes[m] = h.nodes[m], h.nodes[i]
		i = m
	}
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
		k int
		p float64
	}
	// The proximity rule's candidate prefix may drop one endpoint of the
	// true line — typically the masked one whose own cluster had to fall
	// back to a remote detection group — so lines with at least one
	// candidate endpoint stay in the running; the per-line subspace
	// filter below does the final discrimination. They come from the
	// candidates' lists, a line with both endpoints in twice, and go
	// back to validLines order, the order the stable sort keeps in ties.
	n := 0
	for _, i := range cand {
		n += len(det.nodeValid[i])
	}
	ls := make([]scored, 0, n)
	for _, i := range cand {
		for _, k := range det.nodeValid[i] {
			a, _ := det.g.Endpoints(det.validLines[k])
			if cs := &clusters[det.nw.ClusterOf(a)]; len(cs.group) > 0 {
				ls = append(ls, scored{k, cs.lineProx[det.fromSlot[k]] / cs.xe})
			}
		}
	}
	if len(ls) == 0 {
		return nil
	}
	slices.SortFunc(ls, func(a, b scored) int { return a.k - b.k })
	ls = slices.CompactFunc(ls, func(a, b scored) bool { return a.k == b.k })
	slices.SortStableFunc(ls, func(a, b scored) int { return cmpLess(a.p, b.p) })
	limit := gapLimit(ls[0].p, det.cfg.LineKeepFactor)
	var out []grid.Line
	for _, s := range ls {
		if len(out) >= det.cfg.MaxLines {
			break
		}
		if s.p <= limit {
			out = append(out, det.validLines[s.k])
		}
	}
	slices.Sort(out)
	return out
}

// bestIncidentLine returns the valid line of one node closest to the
// sample in the node's cluster, as a last-resort localisation.
func (det *Detector) bestIncidentLine(node int, clusters []clusterScore) []grid.Line {
	c := det.nw.ClusterOf(node)
	cs := &clusters[c]
	if len(cs.group) == 0 {
		return nil
	}
	bestLine := grid.Line(-1)
	bestP := math.Inf(1)
	for slot, k := range det.clusterLines[c] {
		e := det.validLines[k]
		if a, b := det.g.Endpoints(e); a != node && b != node {
			continue
		}
		if p := cs.lineProx[slot] / cs.xe; p < bestP {
			bestP, bestLine = p, e
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

// ValidLines returns the lines with learned outage subspaces.
func (det *Detector) ValidLines() []grid.Line {
	return append([]grid.Line(nil), det.validLines...)
}

// NoOutageThreshold returns the calibrated deviation-energy threshold.
// TestDetectThresholdBoundary probes Eq. 9's boundary with it, and
// TestTrainGoldenFingerprint pins its bits.
func (det *Detector) NoOutageThreshold() float64 { return det.noOutageThresh }
