// Package powerflow solves the steady-state AC power-flow problem with a
// Newton–Raphson iteration in polar form, plus a linear DC approximation.
// It substitutes for MATPOWER in the paper's data-generation pipeline:
// given a grid and a load/generation profile it produces the bus voltage
// phasors that play the role of PMU measurements.
//
// Every grid runs the same Newton loop over CSR admittance data; only
// the linear solve depends on size (see SparseBusThreshold).
package powerflow

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"pmuoutage/internal/grid"
	"pmuoutage/internal/mat"
)

// ErrNoConvergence is returned when Newton–Raphson fails to reach the
// mismatch tolerance within the iteration limit.
var ErrNoConvergence = errors.New("powerflow: Newton-Raphson did not converge")

// SparseBusThreshold is the bus count at which SolveAC and SolveDC
// switch from dense partial-pivoting LU to the sparse direct
// factorization, mat.SparseLU. Below it every result keeps the
// bits of the dense solver the detector goldens (14–118 buses) were
// pinned on.
const SparseBusThreshold = 150

// useSparse is the size rule: whether an n-bus grid takes the sparse
// linear solve.
func useSparse(n int) bool { return n >= SparseBusThreshold }

// Options configures the AC solver.
type Options struct {
	Tol     float64 //gridlint:unit pu // max power mismatch in p.u.; default 1e-8
	MaxIter int     // iteration cap; default 30
	// FlatStart forces the initial guess to Vm=1, Va=0 instead of the
	// voltages stored in the grid (which allow warm starts).
	FlatStart bool
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 30
	}
	return o
}

// Solution holds a converged power-flow state.
type Solution struct {
	Vm         []float64 //gridlint:unit pu // voltage magnitude per bus (p.u.)
	Va         []float64 //gridlint:unit rad // voltage angle per bus (radians)
	Iterations int
	Mismatch   float64 //gridlint:unit pu // final max power mismatch
}

// Phasor returns the complex voltage at bus i.
func (s *Solution) Phasor(i int) complex128 {
	return cmplx.Rect(s.Vm[i], s.Va[i])
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
	opts = opts.withDefaults()
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
	for iter := 0; iter <= opts.MaxIter; iter++ {
		st.calc()
		mx := st.mismatch(f)
		if mx < opts.Tol {
			return &Solution{Vm: st.vm, Va: st.va, Iterations: iter, Mismatch: mx}, nil
		}
		if iter == opts.MaxIter {
			break
		}
		dx, err := ls.solve(st.jacobian(), f)
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
	return nil, fmt.Errorf("%w after %d iterations", ErrNoConvergence, opts.MaxIter)
}

// linearSolver solves the systems of one power-flow solve: by
// mat.SparseLU when sparse is set, which orders the pattern once and
// reuses the ordering for every Newton step, else by dense
// partial-pivoting LU.
type linearSolver struct {
	sparse bool
	lu     mat.SparseLU
}

func (s *linearSolver) solve(a *mat.Sparse, b []float64) ([]float64, error) {
	if s.sparse {
		if err := s.lu.Factor(a); err != nil {
			return nil, err
		}
		return s.lu.Solve(b)
	}
	lu, err := mat.FactorLU(a.ToDense())
	if err != nil {
		return nil, err
	}
	return lu.Solve(b)
}

// ybusAdj is the CSR adjacency view of the bus admittance matrix:
// row i's neighbors are cols[rowPtr[i]:rowPtr[i+1]] with conductance
// gv and susceptance bv. It is scanned once from the grid's Ybus, the
// single source of truth for taps, shifts, and shunts.
type ybusAdj struct {
	rowPtr []int
	cols   []int
	gv     []float64 //gridlint:unit pu // conductance entries (p.u.)
	bv     []float64 //gridlint:unit pu // susceptance entries (p.u.)
}

func newYbusAdj(g *grid.Grid) *ybusAdj {
	n := g.N()
	ybus := g.Ybus()
	size := n + 2*len(g.Branches) // bound on the stored entries
	a := &ybusAdj{
		rowPtr: make([]int, n+1),
		cols:   make([]int, 0, size),
		gv:     make([]float64, 0, size),
		bv:     make([]float64, 0, size),
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			y := ybus.At(i, j)
			if y == 0 { //gridlint:ignore floatcmp admittance entries are exactly zero off the graph
				continue
			}
			a.cols = append(a.cols, j)
			a.gv = append(a.gv, real(y))
			a.bv = append(a.bv, imag(y))
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
// with the slack angle fixed at zero and magnitudes all 1. Used as the
// fast approximate fallback and by baseline studies.
func SolveDC(g *grid.Grid) (*Solution, error) {
	return solveDC(g, useSparse(g.N()))
}

// solveDC is SolveDC with the linear solve named by sparse: the dense
// path reduces grid.Laplacian and solves it by dense LU; the sparse
// path stamps the reduced B' from the branches (the same 1/X weights)
// and factors it with mat.SparseLU.
func solveDC(g *grid.Grid, sparse bool) (*Solution, error) {
	n := g.N()
	slack, err := g.SlackIndex()
	if err != nil {
		return nil, err
	}
	// Reduced index map: bus i -> row red[i], slack dropped.
	red := make([]int, n)
	idx := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i == slack {
			red[i] = -1
			continue
		}
		red[i] = len(idx)
		idx = append(idx, i)
	}
	p := make([]float64, len(idx))
	for k, i := range idx {
		p[k] = g.Buses[i].Pg - g.Buses[i].Pd
	}
	var th []float64
	if sparse {
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
		ls := linearSolver{sparse: true}
		th, err = ls.solve(mat.NewSparse(len(idx), len(idx), trips), p)
	} else {
		th, err = mat.Solve(g.Laplacian().SelectRows(idx).SelectCols(idx), p)
	}
	if err != nil {
		return nil, fmt.Errorf("powerflow: DC solve failed (islanded grid?): %w", err)
	}
	vm := make([]float64, n)
	va := make([]float64, n)
	for i := range vm {
		vm[i] = 1
	}
	for k, i := range idx {
		va[i] = th[k]
	}
	return &Solution{Vm: vm, Va: va, Iterations: 1}, nil
}

// Dispatch scales every generator's active output by the same factor so
// that total generation matches total load plus the given loss fraction.
// It returns a modified copy of the grid. The paper's data generator
// "adjusts power output accordingly" when loads vary; proportional
// re-dispatch is the standard way to do that.
func Dispatch(g *grid.Grid, lossFrac float64) *grid.Grid {
	ng := g.Clone()
	var totalLoad, totalGen float64
	for i := range ng.Buses {
		totalLoad += ng.Buses[i].Pd
		if ng.Buses[i].Type != grid.PQ {
			totalGen += ng.Buses[i].Pg
		}
	}
	if totalGen <= 0 {
		return ng
	}
	scale := totalLoad * (1 + lossFrac) / totalGen
	for i := range ng.Buses {
		if ng.Buses[i].Type != grid.PQ {
			ng.Buses[i].Pg *= scale
		}
	}
	return ng
}
