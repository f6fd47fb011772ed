// Package maxflow implements the Edmonds-Karp maximum-flow algorithm and
// the maximum-flow-with-lower-bounds extension the Perseus optimizer uses
// to find minimum cuts on the Capacity DAG (paper §4.3, Appendix E.2,
// Algorithm 3). Capacities are float64 energy values (joules); edges whose
// computation cannot change speed carry effectively infinite capacity.
//
// Graph is the plain flow network and the arena every solve runs in: its
// adjacency is one compressed array and it owns the BFS, level and side
// buffers, so solving again on the same topology allocates nothing.
// Network (network.go) puts lower and upper bounds on a Graph's edges and
// carries each solve's flow into the next as a warm start.
package maxflow

import (
	"errors"
	"fmt"
	"math"
)

// ErrInfeasible is returned when no flow can satisfy the lower bounds.
var ErrInfeasible = errors.New("maxflow: no feasible flow satisfies the lower bounds")

const eps = 1e-9

// Graph is a flow network over nodes 0..n-1. Edge id's reverse arc is
// id^1.
type Graph struct {
	n    int
	to   []int32
	cap  []float64
	flow []float64

	// Node u's incident arc ids (both directions, in insertion order) are
	// adj[start[u]:start[u+1]]. Built by the first solve after an AddEdge;
	// a start of the wrong length marks it stale.
	start, adj []int32

	// Solver scratch, sized with the adjacency.
	prev, level, iter, queue []int32
	side                     []bool

	paths int // augmenting paths pushed so far, by either solver
}

// New returns an empty flow network with n nodes.
func New(n int) *Graph {
	return &Graph{n: n}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// AddEdge adds a directed edge u→v with the given capacity and returns its
// edge id. A reverse edge with zero capacity is added implicitly.
func (g *Graph) AddEdge(u, v int, capacity float64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("maxflow: edge %d->%d out of range [0,%d)", u, v, g.n))
	}
	if capacity < 0 {
		panic(fmt.Sprintf("maxflow: negative capacity %v on %d->%d", capacity, u, v))
	}
	id := len(g.to)
	g.to = append(g.to, int32(v), int32(u))
	g.cap = append(g.cap, capacity, 0)
	g.flow = append(g.flow, 0, 0)
	g.start = g.start[:0]
	return id
}

// build lays the adjacency out and sizes the scratch buffers. The tail of
// arc id is the head of its reverse, to[id^1].
func (g *Graph) build() {
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
	g.prev = make([]int32, g.n)
	g.level = make([]int32, g.n)
	g.iter = make([]int32, g.n)
	g.queue = make([]int32, 0, g.n)
	g.side = make([]bool, g.n)
	next := g.iter
	copy(next, g.start)
	for id := range g.to {
		u := g.to[id^1]
		g.adj[next[u]] = int32(id)
		next[u]++
	}
}

// arcs returns the ids of the arcs leaving u.
func (g *Graph) arcs(u int32) []int32 { return g.adj[g.start[u]:g.start[u+1]] }

// residual returns the residual capacity of edge id.
func (g *Graph) residual(id int32) float64 { return g.cap[id] - g.flow[id] }

// Flow returns the current flow on the edge with the given id.
func (g *Graph) Flow(id int) float64 { return g.flow[id] }

// MaxFlow pushes the maximum flow from s to t using Edmonds-Karp (BFS
// augmenting paths, Edmonds & Karp 1972) and returns the flow value it
// added. It augments whatever flow the graph already carries, so it may be
// called again after capacities change or with another source and sink;
// MinCutWithBounds does both.
func (g *Graph) MaxFlow(s, t int) float64 {
	g.build()
	var total float64
	prev := g.prev
	for {
		for i := range prev {
			prev[i] = -1
		}
		prev[s] = -2
		queue := append(g.queue[:0], int32(s))
		found := false
	bfs:
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, id := range g.arcs(u) {
				v := g.to[id]
				if prev[v] == -1 && g.residual(id) > eps {
					prev[v] = id
					if int(v) == t {
						found = true
						break bfs
					}
					queue = append(queue, v)
				}
			}
		}
		if !found {
			return total
		}
		// Find the bottleneck along the path.
		bottleneck := math.Inf(1)
		for v := int32(t); v != int32(s); {
			id := prev[v]
			if r := g.residual(id); r < bottleneck {
				bottleneck = r
			}
			v = g.to[id^1]
		}
		for v := int32(t); v != int32(s); {
			id := prev[v]
			g.flow[id] += bottleneck
			g.flow[id^1] -= bottleneck
			v = g.to[id^1]
		}
		total += bottleneck
		g.paths++
	}
}

// MinCutSide returns, after MaxFlow, the set of nodes reachable from s in
// the residual graph: the S side of a minimum s-t cut. Every maximum flow
// leaves the same set, the smallest S side among minimum cuts. The slice
// is the graph's own and is overwritten by the next call.
func (g *Graph) MinCutSide(s int) []bool {
	g.build()
	side := g.side
	clear(side)
	side[s] = true
	queue := append(g.queue[:0], int32(s))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, id := range g.arcs(u) {
			v := g.to[id]
			if !side[v] && g.residual(id) > eps {
				side[v] = true
				queue = append(queue, v)
			}
		}
	}
	return side
}
