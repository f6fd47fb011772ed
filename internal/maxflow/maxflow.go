// Package maxflow implements the Edmonds-Karp maximum-flow algorithm and
// the maximum-flow-with-lower-bounds extension the Perseus optimizer uses
// to find minimum cuts on the Capacity DAG (paper §4.3, Appendix E.2,
// Algorithm 3). Capacities are float64 energy values (joules); edges whose
// computation cannot change speed carry effectively infinite capacity.
//
// Network (network.go) is the package's surface: fixed edges with movable
// lower and upper bounds, solved for a minimum cut any number of times,
// each solve paying only for the bounds that moved since the last — and,
// with Edmonds-Karp, searching only from where the last cut's S side let
// new flow out, not from s. It runs on a graph, the plain residual
// network and arena: one compressed adjacency array plus the search
// buffers, so solving again on the same topology allocates nothing.
package maxflow

import (
	"errors"
	"fmt"
	"math"
)

// ErrInfeasible is returned when no flow can satisfy the lower bounds.
var ErrInfeasible = errors.New("maxflow: no feasible flow satisfies the lower bounds")

const eps = 1e-9

// graph is a flow network over nodes 0..n-1. Edge id's reverse arc is
// id^1.
type graph struct {
	n    int
	to   []int32
	cap  []float64
	flow []float64

	// Node u's incident arc ids (both directions, in insertion order) are
	// adj[start[u]:start[u+1]]. Built by the first solve after an addEdge;
	// a start of the wrong length marks it stale.
	start, adj []int32

	// A search reads node u's arcs up to adj[stop[u]]: every arc
	// (start[1:], what build sets) unless the caller knows the arcs past
	// some point carry no flow and can take none, as a Network does with
	// its super arcs outside the routing phase.
	stop []int32

	// Solver scratch, sized with the adjacency. After a solver returns,
	// queue holds the nodes its last search reached from the source: that
	// search found no path to the sink, so they are the S side of a
	// minimum cut — the same set after every maximum flow, the smallest S
	// side among minimum cuts. Between searches every level entry is -1,
	// and so is every prev entry outside queue: Edmonds-Karp's last search
	// leaves its tree there (prev[v] the arc that reached v, -2 at the
	// source), and the next solve clears it before it searches.
	prev, level, iter, queue []int32

	paths    int // augmenting paths pushed so far, by either solver
	searches int // breadth-first passes run so far, by either solver
}

// reserve sizes the arc arrays of a graph with no edges yet for m edges,
// so that adding them grows nothing.
func (g *graph) reserve(m int) {
	g.to = make([]int32, 0, 2*m)
	g.cap = make([]float64, 0, 2*m)
	g.flow = make([]float64, 0, 2*m)
}

// addEdge adds a directed edge u→v with the given capacity, arc
// len(to), and its reverse arc with zero capacity.
func (g *graph) addEdge(u, v int, capacity float64) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("maxflow: edge %d->%d out of range [0,%d)", u, v, g.n))
	}
	if capacity < 0 {
		panic(fmt.Sprintf("maxflow: negative capacity %v on %d->%d", capacity, u, v))
	}
	g.to = append(g.to, int32(v), int32(u))
	g.cap = append(g.cap, capacity, 0)
	g.flow = append(g.flow, 0, 0)
	g.start = g.start[:0]
}

// build lays the adjacency out and sizes the scratch buffers. The tail of
// arc id is the head of its reverse, to[id^1].
func (g *graph) build() {
	if len(g.start) == g.n+1 {
		return
	}
	g.start = make([]int32, g.n+1)
	for id := range g.to {
		g.start[g.to[id^1]+1]++
	}
	for u := 0; u < g.n; u++ {
		g.start[u+1] += g.start[u]
	}
	g.adj = make([]int32, len(g.to))
	g.stop = g.start[1:]
	g.prev = make([]int32, g.n)
	g.level = make([]int32, g.n)
	g.iter = make([]int32, g.n)
	g.queue = make([]int32, 0, g.n)
	next := g.iter
	copy(next, g.start)
	for id := range g.to {
		u := g.to[id^1]
		g.adj[next[u]] = int32(id)
		next[u]++
	}
	for u := range g.prev {
		g.prev[u], g.level[u] = -1, -1
	}
}

// arcs returns the ids of the arcs leaving u.
func (g *graph) arcs(u int32) []int32 { return g.adj[g.start[u]:g.start[u+1]] }

// searched returns the ids of the arcs leaving u that a search reads.
func (g *graph) searched(u int32) []int32 { return g.adj[g.start[u]:g.stop[u]] }

// residual returns the residual capacity of edge id.
func (g *graph) residual(id int32) float64 { return g.cap[id] - g.flow[id] }

// edmondsKarp pushes the maximum flow from s to t using Edmonds-Karp (BFS
// augmenting paths, Edmonds & Karp 1972) and returns the flow value it
// added. It augments whatever flow the graph already carries, so it may be
// called again after capacities change or with another source and sink;
// Network.Solve does both. It leaves its last search's tree in prev.
func (g *graph) edmondsKarp(s, t int) float64 {
	g.build()
	reset(g.prev, g.queue)
	var total float64
	for {
		g.searches++
		g.prev[s] = -2
		queue, found := g.search(append(g.queue[:0], int32(s)), 0, int32(t))
		g.queue = queue
		if !found {
			return total
		}
		total += g.augment(int32(s), int32(t))
		reset(g.prev, queue)
		g.prev[t] = -1
	}
}

// search carries on a breadth-first search whose reached nodes, each
// marked in prev, are queue, scanning their arcs from queue[head] on. It
// stops at t, which it marks but does not queue, and reports whether it
// got there.
func (g *graph) search(queue []int32, head int, t int32) ([]int32, bool) {
	prev := g.prev
	for ; head < len(queue); head++ {
		for _, id := range g.searched(queue[head]) {
			v := g.to[id]
			if prev[v] == -1 && g.residual(id) > eps {
				prev[v] = id
				if v == t {
					return queue, true
				}
				queue = append(queue, v)
			}
		}
	}
	return queue, false
}

// augment pushes the bottleneck of the path prev leads back from t to s
// along it and returns the bottleneck.
func (g *graph) augment(s, t int32) float64 {
	bottleneck := math.Inf(1)
	for v := t; v != s; {
		id := g.prev[v]
		if r := g.residual(id); r < bottleneck {
			bottleneck = r
		}
		v = g.to[id^1]
	}
	for v := t; v != s; {
		id := g.prev[v]
		g.flow[id] += bottleneck
		g.flow[id^1] -= bottleneck
		v = g.to[id^1]
	}
	g.paths++
	return bottleneck
}

// reset sets the entries of the nodes a search reached back to -1.
func reset(marks, reached []int32) {
	for _, v := range reached {
		marks[v] = -1
	}
}
