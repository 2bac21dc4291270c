// Package cases provides the power-system test cases used in the paper's
// evaluation: the IEEE 14- and 30-bus systems embedded from the standard
// archive data, and deterministic synthetic stand-ins for the 57- and
// 118-bus systems (see DESIGN.md for the substitution rationale). All
// systems are returned as grid.Grid values with per-unit parameters on a
// 100 MVA base. Each system builds once per process; the builders and
// Load hand out independent copies of that build.
package cases

import (
	"math"

	"pmuoutage/internal/grid"
)

const baseMVA = 100.0

func deg(d float64) float64 { return d * math.Pi / 180 }

// busSpec is the compact embedded form of one bus record. Power values
// are in MW/MVAr as published and converted to per unit on load.
type busSpec struct {
	typ    grid.BusType
	pd, qd float64
	gs, bs float64
	vm, va float64 // published solved voltage, used as warm start
	pg, qg float64
}

type branchSpec struct {
	from, to int // 1-based external bus numbers
	r, x, b  float64
	tap      float64
}

func build(name string, buses []busSpec, branches []branchSpec) *grid.Grid {
	g := &grid.Grid{Name: name, BaseMVA: baseMVA}
	for i, b := range buses {
		g.Buses = append(g.Buses, grid.Bus{
			ID:   i + 1,
			Type: b.typ,
			Pd:   b.pd / baseMVA, Qd: b.qd / baseMVA,
			Gs: b.gs / baseMVA, Bs: b.bs / baseMVA,
			Vm: b.vm, Va: deg(b.va),
			Pg: b.pg / baseMVA, Qg: b.qg / baseMVA,
		})
	}
	for _, br := range branches {
		g.Branches = append(g.Branches, grid.Branch{
			From: br.from - 1, To: br.to - 1,
			R: br.r, X: br.x, B: br.b,
			Tap: br.tap, Status: true,
		})
	}
	return g
}

// IEEE14 returns the IEEE 14-bus test system (20 lines), the smallest
// system in the paper's evaluation. Data follow the standard archive
// values (MATPOWER case14).
func IEEE14() *grid.Grid { return ieee14() }

func buildIEEE14() *grid.Grid {
	buses := []busSpec{
		{typ: grid.Slack, vm: 1.060, va: 0, pg: 232.4, qg: -16.9},
		{typ: grid.PV, pd: 21.7, qd: 12.7, vm: 1.045, va: -4.98, pg: 40, qg: 42.4},
		{typ: grid.PV, pd: 94.2, qd: 19.0, vm: 1.010, va: -12.72, qg: 23.4},
		{typ: grid.PQ, pd: 47.8, qd: -3.9, vm: 1.019, va: -10.33},
		{typ: grid.PQ, pd: 7.6, qd: 1.6, vm: 1.020, va: -8.78},
		{typ: grid.PV, pd: 11.2, qd: 7.5, vm: 1.070, va: -14.22, qg: 12.2},
		{typ: grid.PQ, vm: 1.062, va: -13.37},
		{typ: grid.PV, vm: 1.090, va: -13.36, qg: 17.4},
		{typ: grid.PQ, pd: 29.5, qd: 16.6, bs: 19, vm: 1.056, va: -14.94},
		{typ: grid.PQ, pd: 9.0, qd: 5.8, vm: 1.051, va: -15.10},
		{typ: grid.PQ, pd: 3.5, qd: 1.8, vm: 1.057, va: -14.79},
		{typ: grid.PQ, pd: 6.1, qd: 1.6, vm: 1.055, va: -15.07},
		{typ: grid.PQ, pd: 13.5, qd: 5.8, vm: 1.050, va: -15.16},
		{typ: grid.PQ, pd: 14.9, qd: 5.0, vm: 1.036, va: -16.04},
	}
	branches := []branchSpec{
		{1, 2, 0.01938, 0.05917, 0.0528, 0},
		{1, 5, 0.05403, 0.22304, 0.0492, 0},
		{2, 3, 0.04699, 0.19797, 0.0438, 0},
		{2, 4, 0.05811, 0.17632, 0.0340, 0},
		{2, 5, 0.05695, 0.17388, 0.0346, 0},
		{3, 4, 0.06701, 0.17103, 0.0128, 0},
		{4, 5, 0.01335, 0.04211, 0.0000, 0},
		{4, 7, 0.00000, 0.20912, 0.0000, 0.978},
		{4, 9, 0.00000, 0.55618, 0.0000, 0.969},
		{5, 6, 0.00000, 0.25202, 0.0000, 0.932},
		{6, 11, 0.09498, 0.19890, 0.0000, 0},
		{6, 12, 0.12291, 0.25581, 0.0000, 0},
		{6, 13, 0.06615, 0.13027, 0.0000, 0},
		{7, 8, 0.00000, 0.17615, 0.0000, 0},
		{7, 9, 0.00000, 0.11001, 0.0000, 0},
		{9, 10, 0.03181, 0.08450, 0.0000, 0},
		{9, 14, 0.12711, 0.27038, 0.0000, 0},
		{10, 11, 0.08205, 0.19207, 0.0000, 0},
		{12, 13, 0.22092, 0.19988, 0.0000, 0},
		{13, 14, 0.17093, 0.34802, 0.0000, 0},
	}
	return build("ieee14", buses, branches)
}
