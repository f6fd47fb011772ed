// Package dag represents one training iteration as a directed acyclic
// graph of forward and backward computations (paper §3.2): nodes are
// pipeline instructions, edges are dependencies — both cross-stage
// activation/gradient flows and same-GPU program order. It provides the
// critical-path analysis (earliest/latest start times, slack) that the
// Perseus optimizer uses to find and remove non-critical computations
// (paper Algorithm 2, steps 2-3).
//
// Durations are integers in units of the optimizer's unit time τ
// (paper §4.2), making critical-path arithmetic exact.
package dag

import (
	"fmt"

	"perseus/internal/sched"
)

// Graph is a computation DAG with mutable integer durations. The first
// len(Ops) nodes are real computations; two virtual zero-duration nodes,
// Source and Sink, bracket the iteration.
type Graph struct {
	// Ops are the pipeline instructions, copied from the schedule.
	// Node i (for i < len(Ops)) executes Ops[i].
	Ops []sched.Op

	// Dur is the planned duration of each node in τ units. Virtual
	// nodes have duration 0. The Perseus optimizer mutates real nodes'
	// durations as it walks the frontier.
	Dur []int64

	// Succ and Pred are adjacency lists over all nodes including the
	// virtual ones.
	Succ, Pred [][]int32

	// Source and Sink are the virtual boundary nodes.
	Source, Sink int

	topo []int32 // cached topological order
}

// Build constructs the DAG for a schedule. Edges are the schedule's
// cross-stage dependencies plus same-stage program order (consecutive
// instructions on one GPU execute serially). dur gives each op's initial
// duration in τ units and must be positive for real computations.
func Build(s *sched.Schedule, dur func(op sched.Op) int64) (*Graph, error) {
	n := len(s.Ops)
	g := &Graph{
		Ops:    append([]sched.Op(nil), s.Ops...),
		Dur:    make([]int64, n+2),
		Succ:   make([][]int32, n+2),
		Pred:   make([][]int32, n+2),
		Source: n,
		Sink:   n + 1,
	}
	for i, op := range s.Ops {
		d := dur(op)
		if d <= 0 {
			return nil, fmt.Errorf("dag: op %v has non-positive duration %d", op, d)
		}
		g.Dur[i] = d
	}
	addEdge := func(from, to int) {
		g.Succ[from] = append(g.Succ[from], int32(to))
		g.Pred[to] = append(g.Pred[to], int32(from))
	}
	for _, ids := range s.PerStage {
		for i := 1; i < len(ids); i++ {
			addEdge(ids[i-1], ids[i])
		}
	}
	for _, e := range s.Deps {
		addEdge(e[0], e[1])
	}
	for i := 0; i < n; i++ {
		if len(g.Pred[i]) == 0 {
			addEdge(g.Source, i)
		}
		if len(g.Succ[i]) == 0 {
			addEdge(i, g.Sink)
		}
	}
	if err := g.computeTopo(); err != nil {
		return nil, err
	}
	return g, nil
}

// computeTopo caches a topological order via Kahn's algorithm and reports
// cycles (which indicate an invalid schedule: program order inconsistent
// with dataflow).
func (g *Graph) computeTopo() error {
	n := len(g.Dur)
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(g.Pred[v])
	}
	queue := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, int32(v))
		}
	}
	order := make([]int32, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range g.Succ[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != n {
		return fmt.Errorf("dag: schedule graph has a cycle (%d of %d nodes ordered)", len(order), n)
	}
	g.topo = order
	return nil
}

// Topo returns the cached topological order over all nodes.
func (g *Graph) Topo() []int32 { return g.topo }

// EarliestStarts returns each node's earliest start time under the current
// durations: the time the node begins when every computation starts as
// soon as its dependencies complete. This equals the execution timeline of
// the schedule, because same-GPU serialization is encoded as edges.
func (g *Graph) EarliestStarts() []int64 {
	return g.EarliestStartsInto(nil)
}

// EarliestStartsInto is EarliestStarts writing into est, which is grown
// only if it is shorter than the node count, and returned. The optimizer
// calls it once per step that rebuilds the Critical DAG, and not on the
// steps that keep it.
func (g *Graph) EarliestStartsInto(est []int64) []int64 {
	est = sized(est, len(g.Dur))
	clear(est)
	for _, v := range g.topo {
		for _, w := range g.Succ[v] {
			if t := est[v] + g.Dur[v]; t > est[w] {
				est[w] = t
			}
		}
	}
	return est
}

// Makespan returns the iteration time in τ units under the current
// durations: the length of the longest Source→Sink path.
func (g *Graph) Makespan() int64 {
	est := g.EarliestStarts()
	return est[g.Sink]
}

// LatestStarts returns each node's latest start time that keeps the given
// makespan, computed by a reverse pass.
func (g *Graph) LatestStarts(makespan int64) []int64 {
	return g.LatestStartsInto(nil, makespan)
}

// LatestStartsInto is LatestStarts writing into lst, as
// EarliestStartsInto does.
func (g *Graph) LatestStartsInto(lst []int64, makespan int64) []int64 {
	lst = sized(lst, len(g.Dur))
	for i := len(g.topo) - 1; i >= 0; i-- {
		v := g.topo[i]
		min := makespan
		for _, w := range g.Succ[v] {
			if lst[w] < min {
				min = lst[w]
			}
		}
		lst[v] = min - g.Dur[v]
	}
	return lst
}

// sized returns buf with length n, reallocating only when it is too short.
func sized(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	return buf[:n]
}

// Critical returns, for each node, whether it lies on a critical path:
// its earliest and latest start coincide (zero slack). Paper Algorithm 2,
// lines 2-5. It also returns the makespan.
func (g *Graph) Critical() (critical []bool, makespan int64) {
	est := g.EarliestStarts()
	makespan = est[g.Sink]
	lst := g.LatestStarts(makespan)
	critical = make([]bool, len(g.Dur))
	for v := range critical {
		critical[v] = est[v] == lst[v]
	}
	return critical, makespan
}

// Slack returns each node's total float: latest start − earliest start.
func (g *Graph) Slack() []int64 {
	est := g.EarliestStarts()
	lst := g.LatestStarts(est[g.Sink])
	sl := make([]int64, len(g.Dur))
	for v := range sl {
		sl[v] = lst[v] - est[v]
	}
	return sl
}

// NumReal returns the number of real (non-virtual) computations.
func (g *Graph) NumReal() int { return len(g.Ops) }

// Clone returns a deep copy sharing no mutable state.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Ops:    g.Ops,
		Dur:    append([]int64(nil), g.Dur...),
		Succ:   g.Succ,
		Pred:   g.Pred,
		Source: g.Source,
		Sink:   g.Sink,
		topo:   g.topo,
	}
	return c
}
