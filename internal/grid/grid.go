// Package grid models the transmission level of a power system as the
// graph P(N, E) of the paper: buses (power nodes) connected by branches
// (power lines), with the electrical parameters power flows need to
// stamp the bus admittance matrix and the DC susceptance matrix.
package grid

import "fmt"

// BusType classifies a bus for power-flow purposes.
type BusType int

const (
	// PQ buses (loads) specify active and reactive power injections.
	PQ BusType = iota
	// PV buses (generators) specify active power and voltage magnitude.
	PV
	// Slack is the reference bus: fixed voltage magnitude and angle.
	Slack
)

// String returns the conventional short name of the bus type.
func (t BusType) String() string {
	switch t {
	case PQ:
		return "PQ"
	case PV:
		return "PV"
	case Slack:
		return "slack"
	default:
		return fmt.Sprintf("BusType(%d)", int(t))
	}
}

// Bus is one power node. Power values are in per-unit on the system MVA
// base; voltages are per-unit magnitudes and radian angles.
type Bus struct {
	ID   int     `json:"id"`   // external bus number (1-based in IEEE cases)
	Type BusType `json:"type"` // PQ, PV or slack
	Pd   float64 `json:"pd"`   //gridlint:unit pu // active demand (load)
	Qd   float64 `json:"qd"`   //gridlint:unit pu // reactive demand
	Pg   float64 `json:"pg"`   //gridlint:unit pu // active generation
	Qg   float64 `json:"qg"`   //gridlint:unit pu // reactive generation
	Gs   float64 `json:"gs"`   //gridlint:unit pu // shunt conductance
	Bs   float64 `json:"bs"`   //gridlint:unit pu // shunt susceptance
	Vm   float64 `json:"vm"`   //gridlint:unit pu // voltage magnitude set point / initial guess
	Va   float64 `json:"va"`   //gridlint:unit rad // voltage angle (radians) initial guess
}

// Branch is one power line (or transformer) between two buses, indexed by
// internal (0-based) bus positions.
type Branch struct {
	From   int     `json:"from"`   // internal bus index
	To     int     `json:"to"`     // internal bus index
	R      float64 `json:"r"`      //gridlint:unit pu // series resistance (p.u.)
	X      float64 `json:"x"`      //gridlint:unit pu // series reactance (p.u.)
	B      float64 `json:"b"`      //gridlint:unit pu // total line charging susceptance (p.u.)
	Tap    float64 `json:"tap"`    // off-nominal turns ratio; 0 or 1 means none
	Shift  float64 `json:"shift"`  //gridlint:unit rad // phase shift angle (radians)
	Status bool    `json:"status"` // in service?
}

// Admittance returns the series admittance of the branch.
func (br *Branch) Admittance() complex128 {
	d := br.R*br.R + br.X*br.X
	if d == 0 { //gridlint:ignore floatcmp zero-impedance sentinel from the case file; Validate rejects it for live grids
		return 0
	}
	return complex(br.R/d, -br.X/d)
}

// Grid is a complete power network description.
type Grid struct {
	Name     string   `json:"name"`
	BaseMVA  float64  `json:"base_mva"`
	Buses    []Bus    `json:"buses"`
	Branches []Branch `json:"branches"`
}

// Line identifies a power line e_{i,j} by its internal branch index.
// The paper's edge set E maps one-to-one onto Grid.Branches.
type Line int

// N returns the number of buses |N|.
func (g *Grid) N() int { return len(g.Buses) }

// E returns the number of branches |E|.
func (g *Grid) E() int { return len(g.Branches) }

// Clone returns a deep copy of the grid.
func (g *Grid) Clone() *Grid {
	ng := &Grid{Name: g.Name, BaseMVA: g.BaseMVA}
	ng.Buses = append([]Bus(nil), g.Buses...)
	ng.Branches = append([]Branch(nil), g.Branches...)
	return ng
}

// WithoutLine returns a copy of the grid with branch e switched out of
// service, modelling the outage P(N, E \ {e}).
func (g *Grid) WithoutLine(e Line) *Grid {
	if int(e) < 0 || int(e) >= len(g.Branches) {
		panic(fmt.Sprintf("grid: line %d out of range %d", e, len(g.Branches)))
	}
	ng := g.Clone()
	ng.Branches[e].Status = false
	return ng
}

// WithoutLines returns a copy with all listed branches out of service.
func (g *Grid) WithoutLines(es []Line) *Grid {
	ng := g.Clone()
	for _, e := range es {
		if int(e) < 0 || int(e) >= len(g.Branches) {
			panic(fmt.Sprintf("grid: line %d out of range %d", e, len(g.Branches)))
		}
		ng.Branches[e].Status = false
	}
	return ng
}

// SlackIndex returns the internal index of the slack bus, or an error if
// the grid does not have exactly one.
func (g *Grid) SlackIndex() (int, error) {
	idx := -1
	for i := range g.Buses {
		if g.Buses[i].Type == Slack {
			if idx >= 0 {
				return -1, fmt.Errorf("grid %q: multiple slack buses (%d and %d)", g.Name, idx, i)
			}
			idx = i
		}
	}
	if idx < 0 {
		return -1, fmt.Errorf("grid %q: no slack bus", g.Name)
	}
	return idx, nil
}

// Neighbors returns the internal indices of buses directly connected to
// bus i by an in-service branch, without duplicates, in ascending order.
func (g *Grid) Neighbors(i int) []int {
	seen := map[int]bool{}
	var out []int
	for _, br := range g.Branches {
		if !br.Status {
			continue
		}
		var other int
		switch i {
		case br.From:
			other = br.To
		case br.To:
			other = br.From
		default:
			continue
		}
		if !seen[other] {
			seen[other] = true
			out = append(out, other)
		}
	}
	sortInts(out)
	return out
}

// LinesOf returns the indices of all in-service branches incident to bus
// i — the paper's E_i, the lines whose outage "involves node i".
func (g *Grid) LinesOf(i int) []Line {
	var out []Line
	for e, br := range g.Branches {
		if br.Status && (br.From == i || br.To == i) {
			out = append(out, Line(e))
		}
	}
	return out
}

// Degree returns the number of in-service branches at bus i.
func (g *Grid) Degree(i int) int { return len(g.LinesOf(i)) }

// Connected reports whether all buses are reachable from bus 0 using
// in-service branches.
func (g *Grid) Connected() bool {
	n := g.N()
	if n == 0 {
		return true
	}
	return len(g.component(0)) == n
}

// ConnectedWithout reports whether the grid stays connected after
// removing branch e — i.e. whether the outage of e islands the grid.
func (g *Grid) ConnectedWithout(e Line) bool {
	ng := g.WithoutLine(e)
	return ng.Connected()
}

// component returns the set of buses reachable from start via in-service
// branches (BFS).
func (g *Grid) component(start int) []int {
	n := g.N()
	adj := g.adjacency()
	visited := make([]bool, n)
	queue := []int{start}
	visited[start] = true
	var out []int
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		out = append(out, u)
		for _, v := range adj[u] {
			if !visited[v] {
				visited[v] = true
				queue = append(queue, v)
			}
		}
	}
	return out
}

func (g *Grid) adjacency() [][]int {
	adj := make([][]int, g.N())
	for _, br := range g.Branches {
		if !br.Status {
			continue
		}
		adj[br.From] = append(adj[br.From], br.To)
		adj[br.To] = append(adj[br.To], br.From)
	}
	return adj
}

// SubgraphConnected reports whether the given bus set induces a connected
// subgraph of the in-service grid. An empty or single-node set is
// connected. The detector's proximity rule requires its candidate
// outage nodes to be connected; its tests use this as the oracle for
// the rule's incremental neighbour check.
func (g *Grid) SubgraphConnected(nodes []int) bool {
	if len(nodes) <= 1 {
		return true
	}
	in := map[int]bool{}
	for _, v := range nodes {
		in[v] = true
	}
	adj := g.adjacency()
	visited := map[int]bool{nodes[0]: true}
	queue := []int{nodes[0]}
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if in[v] && !visited[v] {
				visited[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	return count == len(nodes)
}

// HopDistances returns the BFS hop distance from bus src to every bus
// over in-service branches; unreachable buses get -1.
func (g *Grid) HopDistances(src int) []int {
	n := g.N()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	adj := g.adjacency()
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// FindLine returns the branch index connecting internal buses i and j
// (either direction), preferring in-service branches, or -1 if none.
func (g *Grid) FindLine(i, j int) Line {
	best := Line(-1)
	for e, br := range g.Branches {
		if (br.From == i && br.To == j) || (br.From == j && br.To == i) {
			if br.Status {
				return Line(e)
			}
			if best < 0 {
				best = Line(e)
			}
		}
	}
	return best
}

// Endpoints returns the internal bus indices of line e.
func (g *Grid) Endpoints(e Line) (int, int) {
	br := g.Branches[e]
	return br.From, br.To
}

// TotalLoad returns the total active demand in per unit.
func (g *Grid) TotalLoad() float64 {
	var s float64
	for i := range g.Buses {
		s += g.Buses[i].Pd
	}
	return s
}

// Validate performs structural sanity checks and returns the first
// problem found, or nil.
func (g *Grid) Validate() error {
	if g.N() == 0 {
		return fmt.Errorf("grid %q: no buses", g.Name)
	}
	if _, err := g.SlackIndex(); err != nil {
		return err
	}
	for e, br := range g.Branches {
		if br.From < 0 || br.From >= g.N() || br.To < 0 || br.To >= g.N() {
			return fmt.Errorf("grid %q: branch %d endpoints (%d,%d) out of range", g.Name, e, br.From, br.To)
		}
		if br.From == br.To {
			return fmt.Errorf("grid %q: branch %d is a self loop at %d", g.Name, e, br.From)
		}
		if br.R == 0 && br.X == 0 { //gridlint:ignore floatcmp validating literal zeros read from the case file
			return fmt.Errorf("grid %q: branch %d has zero impedance", g.Name, e)
		}
	}
	if !g.Connected() {
		return fmt.Errorf("grid %q: not connected", g.Name)
	}
	return nil
}

func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j-1] > v[j]; j-- {
			v[j-1], v[j] = v[j], v[j-1]
		}
	}
}
