package maxflow

import (
	"fmt"
	"math"
)

// BoundedEdge is a directed edge with a flow lower and upper bound.
// Upper may be math.Inf(1) for edges that must never be cut.
type BoundedEdge struct {
	From, To     int
	Lower, Upper float64
}

// CutResult describes a minimum s-t cut of a network with lower bounds.
type CutResult struct {
	// SSide[v] reports whether node v is on the source side of the cut.
	SSide []bool

	// Value is the cut capacity Σ_{S→T} upper − Σ_{T→S} lower. Infinite
	// when every cut crosses an uncuttable edge.
	Value float64

	// Flow holds the feasible maximum flow per input edge.
	Flow []float64
}

// Network is a flow network with lower and upper bounds on fixed edges,
// solved for its minimum s-t cut any number of times: between solves the
// caller moves bounds with SetBounds, and each solve starts from the flow
// the previous one ended with. Only what the moved bounds broke is routed
// again, so a solve after a small change costs a few augmenting paths
// where a solve from zero flow costs hundreds; the cut is the same either
// way, because the residual graph of every maximum flow leaves the same
// nodes reachable from s. A Network allocates when built and never after.
type Network struct {
	g    *Graph
	n    int // the caller's nodes; the super source is n, the super sink n+1
	s, t int

	edges []BoundedEdge // arc 2i of g carries edge i's flow above its lower bound
	flow  []float64     // the last successful solve's flow per edge; zero before it

	excess []float64 // per node: inflow minus outflow of the starting flow
}

// NewNetwork builds the network of the given edges over nodes 0..n-1 with
// source s and sink t. The topology is fixed from here on; the bounds are
// not.
func NewNetwork(n int, edges []BoundedEdge, s, t int) (*Network, error) {
	if s == t {
		return nil, fmt.Errorf("maxflow: source equals sink (%d)", s)
	}
	nw := &Network{
		g: New(n + 2), n: n, s: s, t: t,
		edges:  append([]BoundedEdge(nil), edges...),
		flow:   make([]float64, len(edges)),
		excess: make([]float64, n),
	}
	for _, e := range edges {
		nw.g.AddEdge(e.From, e.To, 0)
	}
	for v := 0; v < n; v++ {
		nw.g.AddEdge(n, v, 0)
		nw.g.AddEdge(v, n+1, 0)
	}
	nw.g.AddEdge(t, s, 0)
	nw.g.build()
	return nw, nil
}

// SetBounds replaces edge i's bounds for the next Solve.
func (nw *Network) SetBounds(i int, lower, upper float64) {
	nw.edges[i].Lower, nw.edges[i].Upper = lower, upper
}

// Bounds returns edge i's current bounds.
func (nw *Network) Bounds(i int) (lower, upper float64) {
	return nw.edges[i].Lower, nw.edges[i].Upper
}

// Solve computes a minimum s-t cut under the current bounds, following
// paper Algorithm 3 from a warm start. Every edge starts at the previous
// solve's flow clamped into its new bounds; the node imbalances that
// leaves are routed from a super source to a super sink, with a t→s edge
// closing the circulation; if they cannot all be routed no feasible flow
// exists (ErrInfeasible); otherwise flow is augmented from s to t and the
// nodes still reachable from s are the cut's S side. The Max-Flow Min-Cut
// theorem holds with non-zero lower bounds (Ford & Fulkerson, ch. 1 §9).
// A first solve is the same steps from zero flow.
//
// It returns the cut value, infinite when every cut crosses an uncuttable
// edge; SSide and Flow describe the solution until the next Solve. A
// failed solve leaves the carried flow as it was.
func (nw *Network) Solve(solver Solver) (float64, error) {
	g, n, s, t := nw.g, nw.n, nw.s, nw.t
	// Effectively-infinite capacity: beyond the sum of all finite
	// capacities, so it is never part of a finite cut. Computed per solve
	// to preserve float64 precision.
	var sumFinite, sumLower float64
	for _, e := range nw.edges {
		if e.Lower < -eps {
			return 0, fmt.Errorf("maxflow: negative lower bound on %d->%d", e.From, e.To)
		}
		if !math.IsInf(e.Upper, 1) {
			if e.Upper < e.Lower-eps {
				return 0, fmt.Errorf("maxflow: upper %v < lower %v on %d->%d", e.Upper, e.Lower, e.From, e.To)
			}
			sumFinite += e.Upper
		}
		sumFinite += e.Lower
		sumLower += e.Lower
	}
	big := 2*sumFinite + 1e6

	// Step 1: the starting flow and what it leaves unbalanced. Arc 2i
	// carries edge i's flow above its lower bound, so its residual is
	// upper−f forward and f−lower backward.
	clear(nw.excess)
	for i, e := range nw.edges {
		up := min(e.Upper, big)
		f := min(max(nw.flow[i], e.Lower), up)
		g.cap[2*i] = up - e.Lower
		g.flow[2*i], g.flow[2*i+1] = f-e.Lower, e.Lower-f
		nw.excess[e.To] += f
		nw.excess[e.From] -= f
	}
	// The t→s edge starts at whatever balances s.
	ts := len(g.to) - 2
	back := min(max(-nw.excess[s], 0), big)
	g.cap[ts] = big
	g.flow[ts], g.flow[ts+1] = back, -back
	nw.excess[s] += back
	nw.excess[t] -= back
	var demand float64
	for v, ex := range nw.excess {
		// Node v's arcs from the super source and to the super sink
		// follow the real edges, in the order NewNetwork added them.
		in := 2*len(nw.edges) + 4*v
		out := in + 2
		g.cap[in], g.cap[out] = max(ex, 0), max(-ex, 0)
		g.flow[in], g.flow[in+1], g.flow[out], g.flow[out+1] = 0, 0, 0, 0
		demand += g.cap[in]
	}

	// Step 2: route the imbalances; otherwise no feasible flow. The
	// tolerance is relative to the sum of all lower bounds, which is what a
	// solve from zero flow has to route, not to what is left of it here.
	if got := g.maxFlow(solver, n, n+1); demand-got > 1e-6*(1+sumLower) {
		return 0, fmt.Errorf("%w: %v of %v left unrouted", ErrInfeasible, demand-got, sumLower)
	}

	// Steps 3-4: continue augmenting s→t on the same residual graph, with
	// the super edges and the t→s edge taken out (no capacity, no flow to
	// cancel) so that no path routes through them. The backward residual
	// of a real edge correctly allows reducing its flow down to the lower
	// bound.
	for a := 2 * len(nw.edges); a < len(g.to); a += 2 {
		g.cap[a], g.flow[a], g.flow[a+1] = 0, 0, 0
	}
	g.maxFlow(solver, s, t)
	side := g.MinCutSide(s)
	for i, e := range nw.edges {
		nw.flow[i] = g.flow[2*i] + e.Lower
	}

	// Cut value from the definition, detecting "infinite" cuts.
	var val float64
	infinite := false
	for _, e := range nw.edges {
		switch {
		case side[e.From] && !side[e.To]:
			if math.IsInf(e.Upper, 1) {
				infinite = true
			}
			val += min(e.Upper, big)
		case !side[e.From] && side[e.To]:
			val -= e.Lower
		}
	}
	if infinite || val >= big/2 {
		return math.Inf(1), nil
	}
	return val, nil
}

// SSide reports, per caller node, whether the last Solve left it on the
// source side of the cut. The slice is the network's own.
func (nw *Network) SSide() []bool { return nw.g.side[:nw.n] }

// Flow returns the last successful Solve's flow on edge i.
func (nw *Network) Flow(i int) float64 { return nw.flow[i] }

// AugmentingPaths returns how many augmenting paths every Solve so far
// has pushed in total.
func (nw *Network) AugmentingPaths() int { return nw.g.paths }

// MinCutWithBounds computes a minimum s-t cut of a DAG whose edges carry
// flow lower bounds (paper Algorithm 3; see Network.Solve). It uses the
// paper's Edmonds-Karp solver.
func MinCutWithBounds(n int, edges []BoundedEdge, s, t int) (*CutResult, error) {
	return MinCutWithBoundsUsing(EdmondsKarp, n, edges, s, t)
}

// MinCutWithBoundsUsing is MinCutWithBounds with an explicit max-flow
// solver: one Network, solved once.
func MinCutWithBoundsUsing(solver Solver, n int, edges []BoundedEdge, s, t int) (*CutResult, error) {
	nw, err := NewNetwork(n, edges, s, t)
	if err != nil {
		return nil, err
	}
	value, err := nw.Solve(solver)
	if err != nil {
		return nil, err
	}
	return &CutResult{SSide: nw.SSide(), Value: value, Flow: nw.flow}, nil
}
