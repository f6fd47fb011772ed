package maxflow

import "math"

// dinic pushes the maximum flow from s to t using Dinic's algorithm: BFS
// level graphs with blocking flows found by DFS. It computes the same flow
// value and the same minimum cut as Edmonds-Karp, and on the Capacity DAGs
// the Perseus optimizer builds it is no faster, because a warm-started
// step pushes less than one path, and unlike Edmonds-Karp it searches from
// s on every solve instead of growing the last cut's S side: in
// BenchmarkAblationMaxFlowSolver, ten interleaved runs on a 2-vCPU Xeon,
// Edmonds-Karp takes a median 1.52 ms (quartiles 1.46–1.63) and Dinic
// 1.71 ms (1.63–1.78), about 13 % slower at the median. The paper uses
// Edmonds-Karp (§4.3), so that is the default solver; Dinic, sharing no
// search with the grown path, is the from-s reference the benchmark's
// table check compares it with.
func (g *graph) dinic(s, t int) float64 {
	g.build()
	var total float64
	for g.levels(s, t) {
		copy(g.iter, g.start)
		for {
			pushed := g.blocking(int32(s), int32(t), math.Inf(1))
			if pushed <= 0 {
				break
			}
			total += pushed
			g.paths++
		}
		reset(g.level, g.queue)
	}
	reset(g.level, g.queue)
	return total
}

// levels labels every node with its BFS distance from s in the residual
// graph and reports whether t was reached. The nodes it reached stay in
// g.queue.
func (g *graph) levels(s, t int) bool {
	g.searches++
	level := g.level
	level[s] = 0
	queue := append(g.queue[:0], int32(s))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, id := range g.searched(u) {
			v := g.to[id]
			if level[v] < 0 && g.residual(id) > eps {
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	g.queue = queue
	return level[t] >= 0
}

// blocking pushes up to limit along one path of the level graph from u to
// t, resuming each node's arc scan at iter.
func (g *graph) blocking(u, t int32, limit float64) float64 {
	if u == t {
		return limit
	}
	for ; g.iter[u] < g.stop[u]; g.iter[u]++ {
		id := g.adj[g.iter[u]]
		v := g.to[id]
		if g.level[v] != g.level[u]+1 {
			continue
		}
		r := g.residual(id)
		if r <= eps {
			continue
		}
		pushed := g.blocking(v, t, min(limit, r))
		if pushed > 0 {
			g.flow[id] += pushed
			g.flow[id^1] -= pushed
			return pushed
		}
	}
	return 0
}

// Solver selects the maximum-flow algorithm used by MinCutWithBounds.
type Solver int

const (
	// EdmondsKarp is the paper's solver (§4.3): BFS augmenting paths.
	EdmondsKarp Solver = iota
	// Dinic is the level-graph solver; identical cuts, searched from s
	// on every solve, and slower on these networks
	// (BenchmarkAblationMaxFlowSolver; see dinic).
	Dinic
)

// maxFlows holds each Solver's routine. The package's tests add the
// full-scan Edmonds-Karp reference past the exported solvers.
var maxFlows = []func(g *graph, s, t int) float64{EdmondsKarp: (*graph).edmondsKarp, Dinic: (*graph).dinic}

// maxFlow runs the solver's routine; an unknown solver runs Edmonds-Karp.
// The others replace queue without reading prev, so the search tree an
// Edmonds-Karp search left in prev over queue is cleared first;
// Edmonds-Karp clears it itself.
func (g *graph) maxFlow(solver Solver, s, t int) float64 {
	if uint(solver) >= uint(len(maxFlows)) {
		solver = EdmondsKarp
	}
	if solver != EdmondsKarp {
		reset(g.prev, g.queue)
	}
	return maxFlows[solver](g, s, t)
}
