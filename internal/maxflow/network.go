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
// the previous one ended with. A solve costs what moved: only the edges
// whose bounds changed are validated and re-clamped, only the nodes they
// unbalanced are given super arcs, only what that broke is routed again,
// and the cut is read off the search that ended the solve. So a solve after
// a small change costs a few augmenting paths and a few touched edges where
// a solve from zero flow costs hundreds of paths and every edge; the cut is
// the same either way, because the residual graph of every maximum flow
// leaves the same nodes reachable from s.
//
// The searches cost what moved too (after Kohli & Torr's dynamic graph
// cuts, ICCV 2005). An Edmonds-Karp solve keeps its last search's tree
// over the S side, and the next one, when it routes nothing, leaves
// big as it was and closes no arc of that tree, grows the side from the
// arcs its re-clamping opened out of it instead of searching from s,
// augmenting along the tree where the growth reaches t. A solve that
// routes, raises big, follows an infeasible or a Dinic one, or closes a
// tree arc by augmenting, searches from s. Dinic always searches from s,
// which keeps it the independent reference. A Network allocates when
// built and never after.
type Network struct {
	g    *graph
	n    int // the caller's nodes; the super source is n, the super sink n+1
	s, t int

	// Arc 2i carries edge i's flow above lower[i], the lower bound it was
	// last clamped to; the entry past the edges', always 0, is the t→s
	// edge's.
	edges []BoundedEdge // the bounds the next Solve will honour
	lower []float64

	dirty   []int32 // edges whose bounds moved since they were last clamped
	isDirty []bool
	open    []int32 // nodes the carried flow may leave unbalanced
	isOpen  []bool

	// Running sums over edges: finite uppers plus lowers, and lowers alone.
	// big is the effectively-infinite capacity, beyond the sum of all
	// finite ones so that it is never part of a finite cut; it is raised,
	// and every infinite edge with it, only when the sum outgrows it.
	sumFinite, sumLower, big float64

	// Node u's real arcs, those of the caller's edges, are
	// g.adj[g.start[u]:real[u]]: they come first among its arcs, in edge
	// order, before the t→s edge's and the super arcs.
	real []int32

	side  []bool // the last Solve's S side
	moved int    // edges re-clamped by every Solve so far

	// tree is set while g.prev holds the search tree of the last Solve's
	// S side, which g.queue lists: only an Edmonds-Karp Solve that
	// succeeded leaves one, and the next Solve may grow that side from it.
	tree  bool
	grown int // Solves answered by growing the last S side
}

// NewNetwork builds the network of the given edges over nodes 0..n-1 with
// source s and sink t. The topology is fixed from here on; the bounds are
// not.
func NewNetwork(n int, edges []BoundedEdge, s, t int) (*Network, error) {
	if s == t {
		return nil, fmt.Errorf("maxflow: source equals sink (%d)", s)
	}
	nw := &Network{
		g: newGraph(n + 2), n: n, s: s, t: t,
		edges:   append([]BoundedEdge(nil), edges...),
		lower:   make([]float64, len(edges)+1),
		dirty:   make([]int32, len(edges)),
		isDirty: make([]bool, len(edges)),
		open:    make([]int32, 0, n),
		isOpen:  make([]bool, n),
		side:    make([]bool, n),
	}
	// The caller's edges, the t→s edge, and a super source and super sink
	// arc per node.
	nw.g.reserve(len(edges) + 1 + 2*n)
	for i, e := range edges {
		nw.g.addEdge(e.From, e.To, 0)
		nw.account(e, 1)
		nw.dirty[i], nw.isDirty[i] = int32(i), true
	}
	nw.g.addEdge(t, s, 0)
	for v := 0; v < n; v++ {
		nw.g.addEdge(n, v, 0)
		nw.g.addEdge(v, n+1, 0)
	}
	g := nw.g
	g.build()
	nw.real = make([]int32, n+2)
	for u := range nw.real {
		end := g.start[u]
		for end < g.start[u+1] && int(g.adj[end]) < 2*len(edges) {
			end++
		}
		nw.real[u] = end
	}
	return nw, nil
}

// account adds (sign 1) or removes (sign -1) an edge's bounds from the
// running sums.
func (nw *Network) account(e BoundedEdge, sign float64) {
	if !math.IsInf(e.Upper, 1) {
		nw.sumFinite += sign * e.Upper
	}
	nw.sumFinite += sign * e.Lower
	nw.sumLower += sign * e.Lower
}

// SetBounds replaces edge i's bounds for the next Solve. Setting the bounds
// an edge already has costs nothing in Solve and one inlined compare here,
// which is why the rest lives in move.
func (nw *Network) SetBounds(i int, lower, upper float64) {
	if e := nw.edges[i]; e.Lower != lower || e.Upper != upper {
		nw.move(i, lower, upper)
	}
}

// move gives edge i new bounds and queues it for the next Solve.
func (nw *Network) move(i int, lower, upper float64) {
	e := &nw.edges[i]
	nw.account(*e, -1)
	e.Lower, e.Upper = lower, upper
	nw.account(*e, 1)
	if !nw.isDirty[i] {
		nw.isDirty[i] = true
		nw.dirty = append(nw.dirty, int32(i))
	}
}

// reopen records that node v's balance has to be looked at by this Solve.
func (nw *Network) reopen(v int) {
	if !nw.isOpen[v] {
		nw.isOpen[v] = true
		nw.open = append(nw.open, int32(v))
	}
}

// imbalance returns node v's inflow minus outflow under the carried flow,
// the t→s edge's included. A node's real arcs come first among its arcs, in
// edge order, then the t→s edge's, then its super arcs.
func (nw *Network) imbalance(v int32) float64 {
	var ex float64
	for _, a := range nw.g.arcs(v) {
		if int(a) >= 2*len(nw.lower) {
			break
		}
		if f := nw.g.flow[a&^1] + nw.lower[a>>1]; a&1 == 0 {
			ex -= f
		} else {
			ex += f
		}
	}
	return ex
}

// Solve computes a minimum s-t cut under the current bounds, following
// paper Algorithm 3 from a warm start. Every edge whose bounds moved starts
// at the carried flow clamped into its new bounds; the node imbalances that
// leaves are routed from a super source to a super sink, with a t→s edge
// closing the circulation; if they cannot all be routed no feasible flow
// exists (ErrInfeasible); otherwise flow is augmented from s to t and the
// nodes still reachable from s are the cut's S side, found by growing the
// last S side where Network says it may be. The Max-Flow Min-Cut
// theorem holds with non-zero lower bounds (Ford & Fulkerson, ch. 1 §9).
// A first solve is the same steps from zero flow with every edge moved.
//
// It reports whether the minimum cut is finite, false when every cut
// crosses an uncuttable edge; SSide, Flow and CutValue describe the
// solution until the next Solve. Finiteness is read off the flow s sends,
// which equals the minimum cut's capacity with every infinite upper bound
// clamped to big: a finite cut is at most sumFinite, an infinite one at
// least big − sumLower, and big > 4·sumFinite ≥ 4·sumLower puts big/2
// between them. A solve that fails on a bad bound changes nothing; an
// infeasible one keeps what it managed to route and the nodes it could
// not balance on the books, so the next solve carries on from there.
func (nw *Network) Solve(solver Solver) (finite bool, err error) {
	g, s, m := nw.g, int32(nw.s), len(nw.edges)
	for _, i := range nw.dirty {
		if e := nw.edges[i]; e.Lower < -eps || e.Upper < e.Lower-eps {
			return false, fmt.Errorf("maxflow: bounds [%v, %v] on %d->%d are negative or empty", e.Lower, e.Upper, e.From, e.To)
		}
	}
	grow := nw.tree && solver == EdmondsKarp
	nw.tree = false
	if need := 2*nw.sumFinite + 1e6; need > nw.big {
		grow = false
		nw.big = 2 * need
		for i, e := range nw.edges {
			if math.IsInf(e.Upper, 1) {
				g.cap[2*i] = nw.big - nw.lower[i]
			}
		}
	}
	big := nw.big

	// Step 1: the starting flow and what it leaves unbalanced. Arc 2i
	// carries edge i's flow above its lower bound, so its residual is
	// upper−f forward and f−lower backward. No arc left the last S side
	// open, so one that does now has just opened: a growth's way out of
	// it, listed in opened, which reuses the dirty list (an edge's two
	// arcs cannot both leave the side). A tree arc that closed cuts part
	// of the side off, and the solve searches from s.
	opened := nw.dirty[:0]
	for _, i := range nw.dirty {
		e := nw.edges[i]
		up := min(e.Upper, big)
		was := g.flow[2*i] + nw.lower[i]
		f := min(max(was, e.Lower), up)
		g.cap[2*i] = up - e.Lower
		g.flow[2*i], g.flow[2*i+1] = f-e.Lower, e.Lower-f
		nw.lower[i], nw.isDirty[i] = e.Lower, false
		if f != was {
			nw.reopen(e.From)
			nw.reopen(e.To)
		}
		for a := 2 * i; grow && a <= 2*i+1; a++ {
			if open, v := g.residual(a) > eps, g.to[a]; open && nw.side[g.to[a^1]] && !nw.side[v] {
				opened = append(opened, a)
			} else if !open && g.prev[v] == a {
				grow = false
			}
		}
	}
	nw.moved += len(nw.dirty)
	nw.dirty = nw.dirty[:0]

	// The t→s edge, arc 2m, starts at the flow value s sends, so that only a
	// change at s or t leaves either unbalanced. Node v's arcs from the
	// super source and to the super sink follow it, in the order NewNetwork
	// added them.
	nw.reopen(nw.s)
	nw.reopen(nw.t)
	back := min(max(-nw.imbalance(s), 0), big)
	g.cap[2*m] = big
	g.flow[2*m], g.flow[2*m+1] = back, -back
	var demand float64
	for _, v := range nw.open {
		ex := nw.imbalance(v)
		in := 2*m + 2 + 4*int(v)
		g.cap[in], g.cap[in+2] = max(ex, 0), max(-ex, 0)
		demand += g.cap[in]
	}

	// Step 2: route the imbalances; otherwise no feasible flow. Then take
	// the super edges and the t→s edge out again (no capacity, no flow to
	// cancel) so that no later path routes through them; a node stays open
	// while more than a search can see is left of its imbalance.
	var got float64
	if demand > eps {
		grow = false
		g.stop = g.start[1:]
		got = g.maxFlow(solver, nw.n, nw.n+1)
	}
	open := nw.open[:0]
	for _, v := range nw.open {
		in := 2*m + 2 + 4*int(v)
		left := max(g.residual(int32(in)), g.residual(int32(in+2)))
		g.cap[in], g.flow[in], g.flow[in+1] = 0, 0, 0
		g.cap[in+2], g.flow[in+2], g.flow[in+3] = 0, 0, 0
		nw.isOpen[v] = left > eps
		if left > eps {
			open = append(open, v)
		}
	}
	nw.open = open
	g.cap[2*m], g.flow[2*m], g.flow[2*m+1] = 0, 0, 0
	// The tolerance is relative to the sum of all lower bounds, which is
	// what a solve from zero flow has to route, not to what is left of it
	// here.
	if demand-got > 1e-6*(1+nw.sumLower) {
		return false, fmt.Errorf("%w: %v of %v left unrouted", ErrInfeasible, demand-got, nw.sumLower)
	}

	// Steps 3-4: continue augmenting s→t on the same residual graph. The
	// backward residual of a real edge correctly allows reducing its flow
	// down to the lower bound. The super arcs and the t→s edge carry
	// nothing and can take nothing now, so the searches read only the real
	// arcs. The search that finds no further path has reached exactly the
	// S side, and left it in g.queue.
	g.stop = nw.real
	if !grow || !nw.grow(opened) {
		g.maxFlow(solver, nw.s, nw.t)
	}
	nw.tree = solver == EdmondsKarp
	clear(nw.side)
	for _, v := range g.queue {
		nw.side[v] = true
	}
	return -nw.imbalance(s) < big/2, nil
}

// grow answers Solve's s→t phase from the last S side, g.queue with its
// search tree in g.prev, when only the arcs in opened left it since and
// no tree arc closed: every node of the side is still reached from s, so
// a search from those arcs alone reaches what a search from s would. One
// that stops short of t leaves the new S side, the old plus what it
// reached, in g.queue. One that reaches t augments along the tree's path
// to the arc it took and on, then grows again from the old side. grow
// reports false, the old side's tree still in g.prev, when an
// augmentation closed a tree arc; the caller then searches from s.
func (nw *Network) grow(opened []int32) bool {
	g, s, t := nw.g, int32(nw.s), int32(nw.t)
	base := len(g.queue)
	for {
		queue, found := g.queue, false
		for _, a := range opened {
			if v := g.to[a]; g.prev[v] == -1 && g.residual(a) > eps {
				g.prev[v] = a
				if found = v == t; found {
					break
				}
				queue = append(queue, v)
			}
		}
		if !found {
			queue, found = g.search(queue, base, t)
		}
		if !found {
			g.queue = queue
			nw.grown++
			return true
		}
		g.augment(s, t)
		closed := false
		for v := t; v != s; v = g.to[g.prev[v]^1] {
			closed = closed || nw.side[v] && g.residual(g.prev[v]) <= eps
		}
		reset(g.prev, queue[base:])
		g.prev[t] = -1
		g.queue = queue[:base]
		if closed {
			return false
		}
	}
}

// CutValue returns the capacity of the last Solve's cut, Σ_{S→T} upper −
// Σ_{T→S} lower, summed from its definition over the S side's arcs in
// the order the Solve's last search reached them (it left them in
// g.queue): infinite when the cut crosses an uncuttable edge.
func (nw *Network) CutValue() float64 {
	g, m := nw.g, len(nw.edges)
	var val float64
	infinite := false
	for _, u := range g.queue {
		for _, a := range g.arcs(u) {
			if int(a) >= 2*m {
				break
			}
			if nw.side[g.to[a]] {
				continue
			}
			if e := nw.edges[a>>1]; a&1 == 1 {
				val -= e.Lower
			} else {
				infinite = infinite || math.IsInf(e.Upper, 1)
				val += min(e.Upper, nw.big)
			}
		}
	}
	if infinite || val >= nw.big/2 {
		return math.Inf(1)
	}
	return val
}

// SSide reports, per caller node, whether the last Solve left it on the
// source side of the cut. The slice is the network's own.
func (nw *Network) SSide() []bool { return nw.side }

// Flow returns edge i's flow as the last Solve left it.
func (nw *Network) Flow(i int) float64 { return nw.g.flow[2*i] + nw.lower[i] }

// AugmentingPaths returns how many augmenting paths every Solve so far
// has pushed in total.
func (nw *Network) AugmentingPaths() int { return nw.g.paths }

// Searches returns how many breadth-first passes from a source
// (Edmonds-Karp path searches, Dinic level graphs) every Solve so far has
// run in total; a growth is not one.
func (nw *Network) Searches() int { return nw.g.searches }

// Grown returns how many Solves so far grew the last S side instead of
// searching from s.
func (nw *Network) Grown() int { return nw.grown }

// EdgesMoved returns how many edges every Solve so far has re-clamped in
// total: all of them for the first, afterwards only those whose bounds
// SetBounds changed.
func (nw *Network) EdgesMoved() int { return nw.moved }

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
	if _, err := nw.Solve(solver); err != nil {
		return nil, err
	}
	flow := make([]float64, len(edges))
	for i := range flow {
		flow[i] = nw.Flow(i)
	}
	return &CutResult{SSide: nw.SSide(), Value: nw.CutValue(), Flow: flow}, nil
}
