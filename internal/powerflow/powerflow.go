// Package powerflow solves the steady-state AC power-flow problem with a
// Newton–Raphson iteration in polar form, plus a linear DC approximation.
// It substitutes for MATPOWER in the paper's data-generation pipeline:
// given a grid and a load/generation profile it produces the bus voltage
// phasors that play the role of PMU measurements.
//
// Every grid runs the same Newton loop over CSR admittance data, and
// every DC solve goes through a per-topology factor of B′ (DCFactor);
// only the linear solve depends on size (see SparseBusThreshold).
package powerflow

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"pmuoutage/internal/grid"
	"pmuoutage/internal/mat"
)

// ErrNoConvergence is returned when Newton–Raphson fails to reach the
// mismatch tolerance within the iteration limit.
var ErrNoConvergence = errors.New("powerflow: Newton-Raphson did not converge")

// SparseBusThreshold is the bus count at which SolveAC and the DC
// factor switch from dense partial-pivoting LU to the sparse direct
// factorization, mat.SparseLU. Below it every result keeps the
// bits of the dense solver the detector goldens (14–118 buses) were
// pinned on.
const SparseBusThreshold = 150

// useSparse is the size rule: whether an n-bus grid takes the sparse
// linear solve.
func useSparse(n int) bool { return n >= SparseBusThreshold }

// Options configures the AC solver.
type Options struct {
	// FlatStart forces the initial guess to Vm=1, Va=0 instead of the
	// voltages stored in the grid (which allow warm starts).
	FlatStart bool
}

// The Newton iteration stops once the largest power mismatch is under
// tol, and fails with ErrNoConvergence after maxIter iterations.
const (
	tol     = 1e-8 //gridlint:unit pu
	maxIter = 30
)

// Solution holds a converged power-flow state.
type Solution struct {
	Vm         []float64 //gridlint:unit pu // voltage magnitude per bus (p.u.)
	Va         []float64 //gridlint:unit rad // voltage angle per bus (radians)
	Iterations int
	Mismatch   float64 //gridlint:unit pu // final max power mismatch
}

// SolveAC runs Newton–Raphson on the grid's AC power-flow equations.
// Injections are taken from the grid's bus records: P_i = Pg_i - Pd_i,
// Q_i = Qg_i - Qd_i (per unit).
func SolveAC(g *grid.Grid, opts Options) (*Solution, error) {
	return solveAC(g, opts, useSparse(g.N()))
}

// solveAC is SolveAC with the linear solve named by sparse instead of
// picked by size.
func solveAC(g *grid.Grid, opts Options, sparse bool) (*Solution, error) {
	st, err := newACState(g, opts)
	if err != nil {
		return nil, err
	}
	nb := len(st.pvpq)
	dim := nb + len(st.pq)
	if dim == 0 {
		return &Solution{Vm: st.vm, Va: st.va}, nil
	}
	f := make([]float64, dim)
	ls := linearSolver{sparse: sparse}
	for iter := 0; iter <= maxIter; iter++ {
		st.calc()
		mx := st.mismatch(f)
		if mx < tol {
			return &Solution{Vm: st.vm, Va: st.va, Iterations: iter, Mismatch: mx}, nil
		}
		if iter == maxIter {
			break
		}
		err := ls.factor(st.jacobian())
		var dx []float64
		if err == nil {
			dx, err = ls.solve(f)
		}
		if err != nil {
			return nil, fmt.Errorf("powerflow: singular Jacobian at iteration %d: %w", iter, err)
		}
		for k, i := range st.pvpq {
			st.va[i] -= dx[k]
		}
		for k, i := range st.pq {
			st.vm[i] -= dx[nb+k]
			if st.vm[i] < 0.2 {
				st.vm[i] = 0.2 // keep the iteration away from voltage collapse
			}
		}
	}
	return nil, fmt.Errorf("%w after %d iterations", ErrNoConvergence, maxIter)
}

// linearSolver factors and solves the linear systems of one power
// flow: by mat.SparseLU when sparse is set, which orders the pattern
// once and reuses the ordering for every later factor of that pattern,
// else by dense partial-pivoting LU, which eliminates in one dense
// matrix reused by every later factor of its order. solve uses the
// last successful factor and only reads it.
type linearSolver struct {
	sparse bool
	slu    mat.SparseLU
	dense  *mat.Dense
	dlu    *mat.LU
}

func (s *linearSolver) factor(a *mat.Sparse) error {
	if s.sparse {
		return s.slu.Factor(a)
	}
	s.dense = a.DenseInto(s.dense)
	var err error
	s.dlu, err = mat.FactorLU(s.dense)
	return err
}

func (s *linearSolver) solve(b []float64) ([]float64, error) {
	if s.sparse {
		return s.slu.Solve(b)
	}
	return s.dlu.Solve(b)
}

// ybusAdj is the CSR view of the bus admittance matrix Ybus: row i's
// entries are cols[rowPtr[i]:rowPtr[i+1]], columns ascending, with
// conductance gv and susceptance bv. Entries that sum to exactly zero
// are not stored.
type ybusAdj struct {
	rowPtr []int
	cols   []int
	gv     []float64 //gridlint:unit pu // conductance entries (p.u.)
	bv     []float64 //gridlint:unit pu // susceptance entries (p.u.)
}

// newYbusAdj stamps Ybus straight from the grid: each in-service branch
// with its line charging, tap and phase shift, then every bus shunt.
// Each entry starts at zero and sums its contributions in that order,
// so it carries the bits of a dense n×n accumulation.
func newYbusAdj(g *grid.Grid) *ybusAdj {
	n := g.N()
	// Pattern: every diagonal (shunts stamp it) and both ends of every
	// in-service branch, sorted and deduplicated per row.
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = []int{i}
	}
	for _, br := range g.Branches {
		if br.Status {
			rows[br.From] = append(rows[br.From], br.To)
			rows[br.To] = append(rows[br.To], br.From)
		}
	}
	rowPtr := make([]int, n+1)
	var cols []int
	for i, r := range rows {
		slices.Sort(r)
		cols = append(cols, slices.Compact(r)...)
		rowPtr[i+1] = len(cols)
	}
	y := make([]complex128, len(cols))
	add := func(i, j int, v complex128) {
		k, _ := slices.BinarySearch(cols[rowPtr[i]:rowPtr[i+1]], j)
		y[rowPtr[i]+k] += v
	}
	for _, br := range g.Branches {
		if !br.Status {
			continue
		}
		ys := br.Admittance()
		bc := complex(0, br.B/2)
		tap := br.Tap
		if tap == 0 { //gridlint:ignore floatcmp tap==0 is the case-file sentinel for unity ratio
			tap = 1
		}
		// Complex tap ratio a = tap * e^{j*shift}.
		a := complex(tap*math.Cos(br.Shift), tap*math.Sin(br.Shift))
		aconj := complex(real(a), -imag(a))
		amag2 := complex(tap*tap, 0)
		f, to := br.From, br.To
		add(f, f, (ys+bc)/amag2)
		add(to, to, ys+bc)
		add(f, to, -ys/aconj)
		add(to, f, -ys/a)
	}
	for i := range g.Buses {
		add(i, i, complex(g.Buses[i].Gs, g.Buses[i].Bs))
	}
	a := &ybusAdj{
		rowPtr: make([]int, n+1),
		cols:   make([]int, 0, len(cols)),
		gv:     make([]float64, 0, len(cols)),
		bv:     make([]float64, 0, len(cols)),
	}
	for i := 0; i < n; i++ {
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			if y[k] == 0 { //gridlint:ignore floatcmp an entry is dropped only when its contributions cancel exactly
				continue
			}
			a.cols = append(a.cols, cols[k])
			a.gv = append(a.gv, real(y[k]))
			a.bv = append(a.bv, imag(y[k]))
		}
		a.rowPtr[i+1] = len(a.cols)
	}
	return a
}

// acState is the Newton iterate: angles for all non-slack buses (pvpq),
// magnitudes for PQ buses, and their positions in the stacked state.
type acState struct {
	n          int
	adj        *ybusAdj
	pvpq, pq   []int
	posA, posM []int
	vm         []float64     //gridlint:unit pu // iterate voltage magnitudes
	va         []float64     //gridlint:unit rad // iterate voltage angles
	pSched     []float64     //gridlint:unit pu // scheduled P injections
	qSched     []float64     //gridlint:unit pu // scheduled Q injections
	pcalc      []float64     //gridlint:unit pu // calculated P injections
	qcalc      []float64     //gridlint:unit pu // calculated Q injections
	trips      []mat.Triplet // Jacobian assembly buffer, reused per step
}

func newACState(g *grid.Grid, opts Options) (*acState, error) {
	n := g.N()
	slack, err := g.SlackIndex()
	if err != nil {
		return nil, err
	}
	st := &acState{n: n, adj: newYbusAdj(g)}
	for i := 0; i < n; i++ {
		if i == slack {
			continue
		}
		if g.Buses[i].Type == grid.PQ {
			st.pq = append(st.pq, i)
		}
		st.pvpq = append(st.pvpq, i)
	}
	st.vm = make([]float64, n)
	st.va = make([]float64, n)
	for i := 0; i < n; i++ {
		if opts.FlatStart {
			st.vm[i], st.va[i] = 1, 0
		} else {
			st.vm[i], st.va[i] = g.Buses[i].Vm, g.Buses[i].Va
			if st.vm[i] <= 0 {
				st.vm[i] = 1
			}
		}
		// PV and slack magnitudes are fixed at their set points.
		if g.Buses[i].Type != grid.PQ {
			st.vm[i] = g.Buses[i].Vm
			if st.vm[i] <= 0 {
				st.vm[i] = 1
			}
		}
	}
	st.va[slack] = g.Buses[slack].Va

	st.pSched = make([]float64, n)
	st.qSched = make([]float64, n)
	for i := 0; i < n; i++ {
		st.pSched[i] = g.Buses[i].Pg - g.Buses[i].Pd
		st.qSched[i] = g.Buses[i].Qg - g.Buses[i].Qd
	}
	st.posA = make([]int, n)
	st.posM = make([]int, n)
	for i := range st.posA {
		st.posA[i], st.posM[i] = -1, -1
	}
	for k, i := range st.pvpq {
		st.posA[i] = k
	}
	nb := len(st.pvpq)
	for k, i := range st.pq {
		st.posM[i] = nb + k
	}
	st.pcalc = make([]float64, n)
	st.qcalc = make([]float64, n)
	return st, nil
}

// calc computes the AC power injections at the current iterate,
// walking only stored admittance entries.
func (st *acState) calc() {
	for i := 0; i < st.n; i++ {
		var pi, qi float64
		for k := st.adj.rowPtr[i]; k < st.adj.rowPtr[i+1]; k++ {
			j := st.adj.cols[k]
			gv, bv := st.adj.gv[k], st.adj.bv[k]
			d := st.va[i] - st.va[j]
			c, s := math.Cos(d), math.Sin(d)
			pi += st.vm[j] * (gv*c + bv*s)
			qi += st.vm[j] * (gv*s - bv*c)
		}
		st.pcalc[i] = st.vm[i] * pi
		st.qcalc[i] = st.vm[i] * qi
	}
}

// mismatch fills f with the stacked P (pvpq) and Q (pq) mismatches and
// returns the max magnitude, the convergence metric.
func (st *acState) mismatch(f []float64) float64 {
	nb := len(st.pvpq)
	var mx float64
	for k, i := range st.pvpq {
		f[k] = st.pcalc[i] - st.pSched[i]
		if a := math.Abs(f[k]); a > mx {
			mx = a
		}
	}
	for k, i := range st.pq {
		f[nb+k] = st.qcalc[i] - st.qSched[i]
		if a := math.Abs(f[nb+k]); a > mx {
			mx = a
		}
	}
	return mx
}

// jacobian assembles the polar Newton-Raphson Jacobian
//
//	[ dP/dVa  dP/dVm ]
//	[ dQ/dVa  dQ/dVm ]
//
// restricted to the free variables (angles of pvpq, magnitudes of pq).
// Its pattern is the bus graph with each bus expanded to its variables,
// so it is structurally symmetric and the same at every iteration.
func (st *acState) jacobian() *mat.Sparse {
	adj, vm, va := st.adj, st.vm, st.va
	dim := len(st.pvpq) + len(st.pq)
	trips := st.trips[:0]
	for _, i := range st.pvpq {
		ri := st.posA[i]
		var gii, bii float64
		for kk := adj.rowPtr[i]; kk < adj.rowPtr[i+1]; kk++ {
			if adj.cols[kk] == i {
				gii, bii = adj.gv[kk], adj.bv[kk]
				break
			}
		}
		// Diagonal terms in P_calc/Q_calc form.
		trips = append(trips, mat.Triplet{Row: ri, Col: ri, Val: -st.qcalc[i] - bii*vm[i]*vm[i]})
		if qi := st.posM[i]; qi >= 0 {
			trips = append(trips,
				mat.Triplet{Row: ri, Col: qi, Val: st.pcalc[i]/vm[i] + gii*vm[i]},
				mat.Triplet{Row: qi, Col: ri, Val: st.pcalc[i] - gii*vm[i]*vm[i]},
				mat.Triplet{Row: qi, Col: qi, Val: st.qcalc[i]/vm[i] - bii*vm[i]},
			)
		}
		for kk := adj.rowPtr[i]; kk < adj.rowPtr[i+1]; kk++ {
			k := adj.cols[kk]
			if k == i {
				continue
			}
			gik, bik := adj.gv[kk], adj.bv[kk]
			d := va[i] - va[k]
			c, s := math.Cos(d), math.Sin(d)
			vivk := vm[i] * vm[k]
			dpdva := vivk * (gik*s - bik*c)
			dqdva := -vivk * (gik*c + bik*s)
			dpdvm := vm[i] * (gik*c + bik*s)
			dqdvm := vm[i] * (gik*s - bik*c)
			if ck := st.posA[k]; ck >= 0 {
				trips = append(trips, mat.Triplet{Row: ri, Col: ck, Val: dpdva})
				if qi := st.posM[i]; qi >= 0 {
					trips = append(trips, mat.Triplet{Row: qi, Col: ck, Val: dqdva})
				}
			}
			if ck := st.posM[k]; ck >= 0 {
				trips = append(trips, mat.Triplet{Row: ri, Col: ck, Val: dpdvm})
				if qi := st.posM[i]; qi >= 0 {
					trips = append(trips, mat.Triplet{Row: qi, Col: ck, Val: dqdvm})
				}
			}
		}
	}
	st.trips = trips
	return mat.NewSparse(dim, dim, trips)
}

// SolveDC computes the linear DC power-flow angles: B' * theta = P,
// with the slack angle fixed at zero and magnitudes all 1. It factors
// B′ and solves once; callers that solve one topology under many
// injections build a DCFactor instead.
func SolveDC(g *grid.Grid) (*Solution, error) {
	return solveDC(g, useSparse(g.N()))
}

// solveDC is SolveDC with the linear solve named by sparse instead of
// picked by size.
func solveDC(g *grid.Grid, sparse bool) (*Solution, error) {
	f, err := newDCFactor(g, sparse)
	if err != nil {
		return nil, err
	}
	return f.Solve(g)
}

// DCFactor is the factored reduced susceptance matrix B′ of one grid
// topology. The topology (the in-service branches, their reactances
// and the slack bus) is fixed when the factor is built; every solve
// reads only bus injections. SolveInto is the one-step solve path: it
// takes per-bus injections and writes angles into the caller's slice,
// so a caller that varies loads step by step needs no grid per step.
// SolveSteps solves many steps' injections at once, with the bits of
// SolveInto on each. Solve is SolveInto on the injections of a grid,
// which must differ from the factored one in loads and generation
// alone; a grid with a different bus count is an error. A factor is
// read-only between Refactor calls, which reuse its storage for
// another topology.
type DCFactor struct {
	n   int   // buses; 0 while the factor holds none
	idx []int // reduced row k is bus idx[k]; the slack bus has none
	ls  linearSolver
}

// newDCFactor returns a new factor of g's B′, the linear solve named
// by sparse instead of picked by size.
func newDCFactor(g *grid.Grid, sparse bool) (*DCFactor, error) {
	f := new(DCFactor)
	if err := f.refactor(g, sparse); err != nil {
		return nil, err
	}
	return f, nil
}

// Refactor stamps B′ from g's in-service branches and factors it in
// place of f's factor: by dense LU below SparseBusThreshold buses, by
// mat.SparseLU at or above. It eliminates in f's dense storage when g
// has f's bus count, so a caller that factors one topology after
// another, as DC data generation does per outage, allocates no dense
// B′ each time. The zero DCFactor is ready for it. A singular B′, as
// an islanded grid gives, is an error wrapping mat.ErrSingular; after
// an error f holds no factor, and every solve is refused until a
// Refactor succeeds.
func (f *DCFactor) Refactor(g *grid.Grid) error {
	return f.refactor(g, useSparse(g.N()))
}

func (f *DCFactor) refactor(g *grid.Grid, sparse bool) error {
	f.n = 0
	b, idx, err := stampBPrime(g)
	if err != nil {
		return err
	}
	if f.ls.sparse != sparse {
		f.ls = linearSolver{sparse: sparse}
	}
	if err := f.ls.factor(b); err != nil {
		return fmt.Errorf("powerflow: DC factor failed (islanded grid?): %w", err)
	}
	f.n, f.idx = g.N(), idx
	return nil
}

// stampBPrime returns the reduced susceptance matrix B′ of g, 1/X per
// in-service branch with the slack row and column dropped, and idx,
// the bus of each of its rows. Contributions run in branch order and
// NewSparse sums duplicates in input order, so every entry has the bits
// a dense Laplacian accumulated in branch order gives it.
func stampBPrime(g *grid.Grid) (*mat.Sparse, []int, error) {
	n := g.N()
	slack, err := g.SlackIndex()
	if err != nil {
		return nil, nil, err
	}
	idx := make([]int, 0, n-1)
	red := make([]int, n) // bus i -> row red[i], -1 for the slack
	for i := 0; i < n; i++ {
		if i == slack {
			red[i] = -1
			continue
		}
		red[i] = len(idx)
		idx = append(idx, i)
	}
	trips := make([]mat.Triplet, 0, 4*len(g.Branches))
	for _, br := range g.Branches {
		if !br.Status || br.X == 0 { //gridlint:ignore floatcmp X==0 marks an unmodelled branch sentinel, never a computed reactance
			continue
		}
		w := 1 / br.X
		f, t := red[br.From], red[br.To]
		if f >= 0 {
			trips = append(trips, mat.Triplet{Row: f, Col: f, Val: w})
		}
		if t >= 0 {
			trips = append(trips, mat.Triplet{Row: t, Col: t, Val: w})
		}
		if f >= 0 && t >= 0 {
			trips = append(trips,
				mat.Triplet{Row: f, Col: t, Val: -w},
				mat.Triplet{Row: t, Col: f, Val: -w},
			)
		}
	}
	return mat.NewSparse(len(idx), len(idx), trips), idx, nil
}

// Solve computes the DC power-flow angles of g on the factored
// topology: P_i = Pg_i - Pd_i at every bus, angles by SolveInto, and
// every magnitude 1.
func (f *DCFactor) Solve(g *grid.Grid) (*Solution, error) {
	if f.n == 0 || g.N() != f.n {
		return nil, fmt.Errorf("powerflow: DC factor is for %d buses, grid %q has %d", f.n, g.Name, g.N())
	}
	p := make([]float64, f.n)
	for i := range p {
		p[i] = g.Buses[i].Pg - g.Buses[i].Pd
	}
	va := make([]float64, f.n)
	if err := f.SolveInto(va, p); err != nil {
		return nil, err
	}
	vm := make([]float64, f.n)
	for i := range vm {
		vm[i] = 1
	}
	return &Solution{Vm: vm, Va: va, Iterations: 1}, nil
}

// SolveInto writes into va the DC power-flow angles of the per-bus net
// injections p (P_i = Pg_i - Pd_i, bus order) on the factored
// topology: theta = B′⁻¹P over the non-slack buses, whose injections
// are the only ones read, and zero at the slack. Both slices have one
// entry per bus.
//
//gridlint:unit va rad
//gridlint:unit p pu
func (f *DCFactor) SolveInto(va, p []float64) error {
	if f.n == 0 || len(va) != f.n || len(p) != f.n {
		return fmt.Errorf("powerflow: DC factor is for %d buses, got %d angles and %d injections", f.n, len(va), len(p))
	}
	rhs := make([]float64, len(f.idx))
	for k, i := range f.idx {
		rhs[k] = p[i]
	}
	th, err := f.ls.solve(rhs)
	if err != nil {
		return fmt.Errorf("powerflow: DC solve failed: %w", err)
	}
	clear(va)
	for k, i := range f.idx {
		va[i] = th[k]
	}
	return nil
}

// SolveSteps is SolveInto for many injection vectors at once, the
// steps of one topology: p holds the per-bus injections of each step
// one after another, step t in p[t*n : (t+1)*n] for n buses, and va
// receives each step's angles in the same layout. Every step's angles
// have SolveInto's bits. A dense factor solves all the steps in one
// mat.LU.SolveMany, eight per pass where the platform has lanes; a
// sparse one solves them one by one.
//
//gridlint:unit va rad
//gridlint:unit p pu
func (f *DCFactor) SolveSteps(va, p []float64) error {
	if f.n == 0 || len(va) != len(p) || len(p)%f.n != 0 {
		return fmt.Errorf("powerflow: DC factor is for %d buses, got %d angles and %d injections", f.n, len(va), len(p))
	}
	if f.ls.sparse {
		for t := 0; t < len(p); t += f.n {
			if err := f.SolveInto(va[t:t+f.n], p[t:t+f.n]); err != nil {
				return err
			}
		}
		return nil
	}
	steps, r := len(p)/f.n, len(f.idx)
	buf, _ := stepBufs.Get().(*[]float64)
	if buf == nil {
		buf = new([]float64)
	}
	defer stepBufs.Put(buf)
	if cap(*buf) < 2*steps*r {
		*buf = make([]float64, 2*steps*r)
	}
	rhs, th := (*buf)[:steps*r], (*buf)[steps*r:2*steps*r]
	for t := 0; t < steps; t++ {
		for k, i := range f.idx {
			rhs[t*r+k] = p[t*f.n+i]
		}
	}
	if err := f.ls.dlu.SolveMany(th, rhs); err != nil {
		return fmt.Errorf("powerflow: DC solve failed: %w", err)
	}
	clear(va)
	for t := 0; t < steps; t++ {
		for k, i := range f.idx {
			va[t*f.n+i] = th[t*r+k]
		}
	}
	return nil
}

// stepBufs holds SolveSteps' reduced right-hand sides and solutions
// between calls, so the scenarios of a generation share a few buffers
// instead of allocating two each.
var stepBufs sync.Pool // of *[]float64

// DispatchScale returns the factor by which proportional re-dispatch
// multiplies every generator's active output Pg (the PV and slack buses
// of g), so that total generation meets load, the system's total active
// load, plus the loss fraction lossFrac; it is 1 when g has no positive
// generation. The paper's data generator "adjusts power output
// accordingly" when loads vary; proportional re-dispatch is the standard
// way to do that.
//
//gridlint:unit load pu
func DispatchScale(g *grid.Grid, load, lossFrac float64) float64 {
	var gen float64
	for i := range g.Buses {
		if g.Buses[i].Type != grid.PQ {
			gen += g.Buses[i].Pg
		}
	}
	if gen <= 0 {
		return 1
	}
	return load * (1 + lossFrac) / gen
}
