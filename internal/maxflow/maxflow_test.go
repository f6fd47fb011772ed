package maxflow

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// reached marks the nodes g's last search reached from its source: after a
// maximum flow, the S side of a minimum cut.
func reached(g *graph) []bool {
	side := make([]bool, g.n)
	for _, v := range g.queue {
		side[v] = true
	}
	return side
}

func TestMaxFlowClassic(t *testing.T) {
	// CLRS figure: max flow 23.
	g := newGraph(6)
	g.addEdge(0, 1, 16)
	g.addEdge(0, 2, 13)
	g.addEdge(1, 2, 10)
	g.addEdge(2, 1, 4)
	g.addEdge(1, 3, 12)
	g.addEdge(3, 2, 9)
	g.addEdge(2, 4, 14)
	g.addEdge(4, 3, 7)
	g.addEdge(3, 5, 20)
	g.addEdge(4, 5, 4)
	if got := g.edmondsKarp(0, 5); math.Abs(got-23) > 1e-9 {
		t.Fatalf("max flow = %v, want 23", got)
	}
	side := reached(g)
	if !side[0] || side[5] {
		t.Fatal("cut does not separate source from sink")
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := newGraph(4)
	g.addEdge(0, 1, 5)
	g.addEdge(2, 3, 5)
	if got := g.edmondsKarp(0, 3); got != 0 {
		t.Fatalf("disconnected max flow = %v, want 0", got)
	}
}

func TestMaxFlowParallelPaths(t *testing.T) {
	g := newGraph(4)
	g.addEdge(0, 1, 3)
	g.addEdge(1, 3, 3)
	g.addEdge(0, 2, 5)
	g.addEdge(2, 3, 4)
	if got := g.edmondsKarp(0, 3); math.Abs(got-7) > 1e-9 {
		t.Fatalf("max flow = %v, want 7", got)
	}
}

func TestMinCutValueEqualsFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(6)
		g := newGraph(n)
		type e struct {
			u, v int
			c    float64
		}
		var es []e
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.4 {
					c := rng.Float64() * 10
					g.addEdge(u, v, c)
					es = append(es, e{u, v, c})
				}
			}
		}
		flow := g.edmondsKarp(0, n-1)
		side := reached(g)
		var cut float64
		for _, ed := range es {
			if side[ed.u] && !side[ed.v] {
				cut += ed.c
			}
		}
		if math.Abs(flow-cut) > 1e-6 {
			t.Fatalf("trial %d: flow %v != cut %v", trial, flow, cut)
		}
	}
}

func TestBoundedSimpleChain(t *testing.T) {
	// s(0) -> a(1) -> t(2); both edges cuttable with small uppers.
	edges := []BoundedEdge{
		{From: 0, To: 1, Lower: 0, Upper: 5},
		{From: 1, To: 2, Lower: 0, Upper: 3},
	}
	res, err := MinCutWithBounds(3, edges, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-3) > 1e-9 {
		t.Fatalf("cut value = %v, want 3", res.Value)
	}
	if !res.SSide[0] || res.SSide[2] {
		t.Fatal("cut does not separate s from t")
	}
}

func TestBoundedLowerRewardsBackEdge(t *testing.T) {
	// Diamond where one forward edge is uncuttable (upper=inf, lower=2):
	//   s -> a (upper 10), a -> t (inf, lower 2)
	//   s -> b (upper 4),  b -> t (upper 6)
	// plus a cross edge b -> a with lower 1, upper 9.
	// Any finite cut must avoid a->t. Candidate cuts:
	//   {s}: 10+4 = 14
	//   {s,b}: 10+6 = 16 (b->a becomes S->T: +9) = 25
	//   {s,a}: inf (a->t)
	// So min cut is {s} with 14? But lower bounds subtract for T->S
	// edges: cut {s} has no T->S edges. Check the algorithm agrees.
	inf := math.Inf(1)
	edges := []BoundedEdge{
		{0, 1, 0, 10},
		{1, 3, 2, inf},
		{0, 2, 0, 4},
		{2, 3, 0, 6},
		{2, 1, 1, 9},
	}
	res, err := MinCutWithBounds(4, edges, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-14) > 1e-6 {
		t.Fatalf("cut value = %v, want 14 (S side %v)", res.Value, res.SSide)
	}
}

func TestBoundedInfiniteCut(t *testing.T) {
	// Single uncuttable chain: every s-t cut crosses an infinite edge.
	inf := math.Inf(1)
	edges := []BoundedEdge{
		{0, 1, 0, inf},
		{1, 2, 1, inf},
	}
	res, err := MinCutWithBounds(3, edges, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Value, 1) {
		t.Fatalf("cut value = %v, want +inf", res.Value)
	}
}

func TestBoundedInfeasible(t *testing.T) {
	// Lower bound 5 on an edge whose only continuation has upper 1:
	// no feasible flow.
	edges := []BoundedEdge{
		{0, 1, 5, 10},
		{1, 2, 0, 1},
	}
	_, err := MinCutWithBounds(3, edges, 0, 2)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestBoundedRejectsBadBounds(t *testing.T) {
	if _, err := MinCutWithBounds(2, []BoundedEdge{{0, 1, 5, 2}}, 0, 1); err == nil {
		t.Error("upper < lower should error")
	}
	if _, err := MinCutWithBounds(2, []BoundedEdge{{0, 1, -1, 2}}, 0, 1); err == nil {
		t.Error("negative lower should error")
	}
	if _, err := MinCutWithBounds(2, nil, 1, 1); err == nil {
		t.Error("s == t should error")
	}
}

func TestBoundedFlowRespectsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 80; trial++ {
		n := 4 + rng.Intn(4)
		var edges []BoundedEdge
		// Random DAG (edges only forward) so feasibility is plausible;
		// layer it s=0 ... t=n-1. Give generous uppers.
		for u := 0; u < n-1; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.6 {
					lo := 0.0
					if rng.Float64() < 0.3 {
						lo = rng.Float64() * 2
					}
					up := lo + 5 + rng.Float64()*10
					if rng.Float64() < 0.2 {
						up = math.Inf(1)
					}
					edges = append(edges, BoundedEdge{u, v, lo, up})
				}
			}
		}
		// Ensure a backbone path exists.
		for u := 0; u < n-1; u++ {
			edges = append(edges, BoundedEdge{u, u + 1, 0, 20})
		}
		res, err := MinCutWithBounds(n, edges, 0, n-1)
		if errors.Is(err, ErrInfeasible) {
			continue // random lower bounds may be unsatisfiable
		}
		if err != nil {
			t.Fatal(err)
		}
		// Bounds respected.
		for i, e := range edges {
			f := res.Flow[i]
			if f < e.Lower-1e-6 {
				t.Fatalf("trial %d: edge %d flow %v below lower %v", trial, i, f, e.Lower)
			}
			if !math.IsInf(e.Upper, 1) && f > e.Upper+1e-6 {
				t.Fatalf("trial %d: edge %d flow %v above upper %v", trial, i, f, e.Upper)
			}
		}
		// Conservation at interior nodes.
		net := make([]float64, n)
		for i, e := range edges {
			net[e.From] -= res.Flow[i]
			net[e.To] += res.Flow[i]
		}
		for v := 1; v < n-1; v++ {
			if math.Abs(net[v]) > 1e-6 {
				t.Fatalf("trial %d: node %d violates conservation by %v", trial, v, net[v])
			}
		}
		// Cut optimality: the returned value must not exceed any
		// enumerated cut (for small n).
		if n <= 8 {
			best := math.Inf(1)
			for mask := 0; mask < 1<<n; mask++ {
				if mask&1 == 0 || mask&(1<<(n-1)) != 0 {
					continue
				}
				var val float64
				ok := true
				for _, e := range edges {
					sIn := mask&(1<<e.From) != 0
					tIn := mask&(1<<e.To) != 0
					if sIn && !tIn {
						if math.IsInf(e.Upper, 1) {
							ok = false
							break
						}
						val += e.Upper
					} else if !sIn && tIn {
						val -= e.Lower
					}
				}
				if ok && val < best {
					best = val
				}
			}
			if res.Value > best+1e-6 {
				t.Fatalf("trial %d: cut value %v exceeds enumerated best %v", trial, res.Value, best)
			}
		}
	}
}

// TestDinicMatchesEdmondsKarp checks both solvers compute identical max
// flows on random graphs.
func TestDinicMatchesEdmondsKarp(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 150; trial++ {
		n := 4 + rng.Intn(8)
		type e struct {
			u, v int
			c    float64
		}
		var es []e
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.35 {
					es = append(es, e{u, v, rng.Float64() * 10})
				}
			}
		}
		g1, g2 := newGraph(n), newGraph(n)
		for _, ed := range es {
			g1.addEdge(ed.u, ed.v, ed.c)
			g2.addEdge(ed.u, ed.v, ed.c)
		}
		f1 := g1.edmondsKarp(0, n-1)
		f2 := g2.dinic(0, n-1)
		if math.Abs(f1-f2) > 1e-6 {
			t.Fatalf("trial %d: Edmonds-Karp %v != Dinic %v", trial, f1, f2)
		}
	}
}

// TestBoundedCutSolverEquivalence checks both solvers produce equal-value
// cuts through the lower-bounds reduction.
func TestBoundedCutSolverEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(4)
		var edges []BoundedEdge
		for u := 0; u < n-1; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.55 {
					lo := 0.0
					if rng.Float64() < 0.3 {
						lo = rng.Float64()
					}
					edges = append(edges, BoundedEdge{u, v, lo, lo + 3 + rng.Float64()*8})
				}
			}
		}
		for u := 0; u < n-1; u++ {
			edges = append(edges, BoundedEdge{u, u + 1, 0, 15})
		}
		r1, err1 := MinCutWithBoundsUsing(EdmondsKarp, n, edges, 0, n-1)
		r2, err2 := MinCutWithBoundsUsing(Dinic, n, edges, 0, n-1)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: feasibility disagreement: %v vs %v", trial, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if math.Abs(r1.Value-r2.Value) > 1e-6 {
			t.Fatalf("trial %d: cut values differ: %v vs %v", trial, r1.Value, r2.Value)
		}
	}
}

// warmTestNetwork is the fixed topology the warm-start tests perturb: a
// random layered DAG over n nodes with a backbone path, every bound a
// multiple of 1/4 so that flow arithmetic is exact and cuts never tie
// within rounding.
func warmTestNetwork() (n int, edges []BoundedEdge) {
	rng := rand.New(rand.NewSource(41))
	n = 10
	for u := 0; u < n-1; u++ {
		for v := u + 1; v < n; v++ {
			if v == u+1 || rng.Float64() < 0.4 {
				edges = append(edges, BoundedEdge{From: u, To: v, Upper: float64(4+rng.Intn(40)) / 4})
			}
		}
	}
	return n, edges
}

// FuzzWarmMinCut applies a fuzzed sequence of up to 64 rounds of bound
// changes to one Network and requires, after each, what a fresh
// MinCutWithBounds of the same bounds gives: the same feasibility verdict,
// the same S side, the same value (Solve's finiteness verdict and
// CutValue) — whatever flow the earlier solves
// (failed ones included) left behind. A round moves one to four edges; a
// move may re-issue the bounds the edge already has, which must not count
// as a moved edge, or first set upper below lower, which the next Solve
// must reject without touching anything, and then repair it.
//
// A second Network takes the same rounds with its s→t searches reading
// every arc, the super arcs and the t→s edge included, and its
// Edmonds-Karp solves run by fullScanEdmondsKarp, which searches from s
// every time: the two must agree on every verdict, value, S side and flow
// value. The first grows the last S side where it can, so it augments
// other paths than the full scan does, and its edge flows are held to
// their bounds and to conservation instead of to the full scan's.
func FuzzWarmMinCut(f *testing.F) {
	f.Add([]byte{0, 0, 9, 3, 2, 20, 7, 5, 1})
	f.Add([]byte{1, 7, 0, 1, 7, 250, 4, 0, 240, 4, 1, 3, 2, 6, 2})
	f.Add([]byte{12, 3, 255, 5, 3, 255, 0, 0, 255, 9, 0, 255, 12, 0, 1})
	// Four edges in one solve, then one re-issued, then a bad bound repaired.
	f.Add([]byte{2, 24 + 3, 9, 5, 1, 30, 11, 6, 2, 14, 0, 17, 5, 32, 0, 8, 64 + 2, 12})
	// Infeasible, a bad bound on top of the failed routing, feasible again.
	f.Add([]byte{14, 7, 0, 5, 64 + 1, 3, 14, 0, 40, 3, 32, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		n, edges := warmTestNetwork()
		nw, err := NewNetwork(n, edges, 0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		full, err := NewNetwork(n, edges, 0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		full.real = full.g.start[1:]
		fullSolve := func(solver Solver) (bool, error) {
			if solver == EdmondsKarp {
				solver = fullScan
			}
			return full.Solve(solver)
		}
		// pending marks the edges the next Solve has to re-clamp: all of
		// them at first, then those a SetBounds gave different bounds.
		pending := make([]bool, len(edges))
		for i := range pending {
			pending[i] = true
		}
		set := func(i int, lower, upper float64) {
			if e := &edges[i]; e.Lower != lower || e.Upper != upper {
				e.Lower, e.Upper, pending[i] = lower, upper, true
			}
			nw.SetBounds(i, lower, upper)
			full.SetBounds(i, lower, upper)
		}
		for step := 0; step < 64 && len(ops) >= 3; step++ {
			solver := Solver(ops[1] >> 7)
			for moves := 1 + int(ops[1]>>3&3); moves > 0 && len(ops) >= 3; moves, ops = moves-1, ops[3:] {
				i := int(ops[0]) % len(edges)
				lower := float64(ops[1]%8) / 4
				upper := lower + float64(ops[2]%32)/4
				if ops[2] >= 224 {
					upper = math.Inf(1)
				}
				switch ops[1] >> 5 & 3 {
				case 1:
					lower, upper = edges[i].Lower, edges[i].Upper
				case 2:
					before := nw.EdgesMoved()
					set(i, lower, lower-1)
					if _, err := nw.Solve(solver); err == nil || errors.Is(err, ErrInfeasible) {
						t.Fatalf("step %d: Solve with upper < lower on edge %d: %v", step, i, err)
					}
					if nw.EdgesMoved() != before {
						t.Fatalf("step %d: a rejected Solve moved %d edges", step, nw.EdgesMoved()-before)
					}
					if _, err := fullSolve(solver); err == nil || errors.Is(err, ErrInfeasible) {
						t.Fatalf("step %d: full-scan Solve with upper < lower on edge %d: %v", step, i, err)
					}
				}
				set(i, lower, upper)
			}
			wantMoved := nw.EdgesMoved()
			for i := range pending {
				if pending[i] {
					wantMoved++
					pending[i] = false
				}
			}

			want, wantErr := MinCutWithBoundsUsing(solver, n, edges, 0, n-1)
			got, gotErr := nw.Solve(solver)
			ref, refErr := fullSolve(solver)
			if errors.Is(gotErr, ErrInfeasible) != errors.Is(refErr, ErrInfeasible) || (gotErr == nil) != (refErr == nil) || got != ref {
				t.Fatalf("step %d: trimmed search finite %v, %v; full scan %v, %v", step, got, gotErr, ref, refErr)
			}
			if gotErr == nil && nw.CutValue() != full.CutValue() {
				t.Fatalf("step %d: trimmed search cut %v; full scan %v", step, nw.CutValue(), full.CutValue())
			}
			if v, w := flowValue(edges, 0, nw.Flow), flowValue(edges, 0, full.Flow); gotErr == nil && v != w {
				t.Fatalf("step %d: trimmed search sends %v from s; full scan %v", step, v, w)
			}
			for v, inS := range full.SSide() {
				if nw.SSide()[v] != inS {
					t.Fatalf("step %d: node %d on S side: trimmed %v, full scan %v", step, v, nw.SSide()[v], inS)
				}
			}
			if nw.EdgesMoved() != wantMoved {
				t.Fatalf("step %d: %d edges moved so far, want %d", step, nw.EdgesMoved(), wantMoved)
			}
			if errors.Is(wantErr, ErrInfeasible) != errors.Is(gotErr, ErrInfeasible) || (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("step %d: warm verdict %v, fresh verdict %v", step, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if got != !math.IsInf(want.Value, 1) || nw.CutValue() != want.Value {
				t.Fatalf("step %d: warm finite %v value %v, fresh value %v", step, got, nw.CutValue(), want.Value)
			}
			for v, inS := range want.SSide {
				if nw.SSide()[v] != inS {
					t.Fatalf("step %d: node %d on S side: warm %v, fresh %v", step, v, nw.SSide()[v], inS)
				}
			}
			net := make([]float64, n)
			for i, e := range edges {
				f := nw.Flow(i)
				if f < e.Lower || f > e.Upper {
					t.Fatalf("step %d: warm flow %v on edge %d outside [%v, %v]", step, f, i, e.Lower, e.Upper)
				}
				net[e.From] -= f
				net[e.To] += f
			}
			for v := 1; v < n-1; v++ {
				if math.Abs(net[v]) > 1e-9 {
					t.Fatalf("step %d: warm flow violates conservation at node %d by %v", step, v, net[v])
				}
			}
		}
	})
}

// TestGrowMatchesCold runs random layered networks through rounds of
// bound changes aimed at each of Solve's paths — an arc opened out of the
// last S side (which a growth takes), a tree arc of that side closed, big
// raised, a lower bound no flow meets, a lower bound above the carried
// flow (routed in phase 2), or any move — most solved by Edmonds-Karp and
// some by Dinic, and requires after every Solve what a cold Dinic solve
// of a freshly built network gives: the same verdict, finiteness, S side,
// cut value and, for a finite cut, flow value. Bounds are multiples of
// 1/4, so every sum is exact, and lower bounds stay small beside the
// flows big lets through, so that the unrouted share Solve forgives,
// relative to their sum, is nil. Each kind of round, a raise of big, an
// infeasible verdict and a grown solve must all have happened.
func TestGrowMatchesCold(t *testing.T) {
	const (
		opens = iota
		closes
		raises
		infeasible
		routes
		kinds
	)
	const small = 64 // the largest flow a lower bound is raised to
	rng := rand.New(rand.NewSource(51))
	quarter := func(k int) float64 { return float64(rng.Intn(k)) / 4 }
	var done [kinds + 1]int
	raised, refused := 0, 0
	for trial := 0; trial < 300; trial++ {
		n := 6 + rng.Intn(9)
		var edges []BoundedEdge
		for u := 0; u < n-1; u++ {
			for v := u + 1; v < n; v++ {
				if v == u+1 || rng.Float64() < 0.3 {
					e := BoundedEdge{From: u, To: v, Upper: 1 + quarter(40)}
					if rng.Float64() < 0.1 {
						e.Upper = math.Inf(1)
					}
					edges = append(edges, e)
				}
			}
		}
		nw, err := NewNetwork(n, edges, 0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		set := func(i int, lower, upper float64) {
			edges[i].Lower, edges[i].Upper = lower, upper
			nw.SetBounds(i, lower, upper)
		}
		undo := -1 // the edge an infeasible round gave a lower bound, reset the round after
		for round := 0; round < 30; round++ {
			if undo >= 0 {
				set(undo, 0, edges[undo].Upper)
				undo = -1
			}
			side, g := nw.SSide(), nw.g
			kind := rng.Intn(kinds + 4) // half the rounds open an arc or move any edge
			if kind > kinds {
				kind = opens
			}
			i := rng.Intn(len(edges))
			e, f := edges[i], nw.Flow(i)
			switch kind {
			case opens:
				for k := rng.Intn(len(edges)); k < len(edges); k++ {
					if e := edges[k]; side[e.From] && !side[e.To] && !math.IsInf(e.Upper, 1) {
						set(k, e.Lower, e.Upper+1+quarter(8))
					} else if !side[e.From] && side[e.To] && e.Lower > 0 {
						set(k, quarter(int(4*e.Lower)), e.Upper)
					} else {
						continue
					}
					done[kind]++
					break
				}
			case closes: // bounds that pin a tree arc's edge at its flow
				for k := range edges {
					fwd, bwd, f := int32(2*k), int32(2*k+1), nw.Flow(k)
					if f <= small && g.prev[g.to[fwd]] == fwd {
						set(k, edges[k].Lower, f)
					} else if f <= small && g.prev[g.to[bwd]] == bwd {
						set(k, f, edges[k].Upper)
					} else {
						continue
					}
					done[kind]++
					break
				}
			case raises:
				set(i, e.Lower, max(e.Lower, nw.big))
				done[kind]++
			case infeasible:
				set(i, 1000, math.Inf(1))
				undo = i
				done[kind]++
			case routes:
				if f <= small {
					lower := f + 0.25 + quarter(8)
					set(i, lower, max(e.Upper, lower))
					done[kind]++
				}
			default:
				lower := quarter(8)
				upper := lower + quarter(40)
				if rng.Float64() < 0.1 {
					upper = math.Inf(1)
				}
				set(i, lower, upper)
			}
			solver := EdmondsKarp
			if round%7 == 6 {
				solver = Dinic
			}
			big := nw.big
			want, wantErr := MinCutWithBoundsUsing(Dinic, n, edges, 0, n-1)
			got, gotErr := nw.Solve(solver)
			if nw.big != big {
				raised++
			}
			if errors.Is(gotErr, ErrInfeasible) != errors.Is(wantErr, ErrInfeasible) || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("trial %d round %d: verdict %v, cold %v", trial, round, gotErr, wantErr)
			}
			if gotErr != nil {
				refused++
				continue
			}
			if got != !math.IsInf(want.Value, 1) || nw.CutValue() != want.Value {
				t.Fatalf("trial %d round %d: finite %v value %v, cold value %v", trial, round, got, nw.CutValue(), want.Value)
			}
			for v, inS := range want.SSide {
				if nw.SSide()[v] != inS {
					t.Fatalf("trial %d round %d: node %d on S side %v, cold %v", trial, round, v, nw.SSide()[v], inS)
				}
			}
			cold := func(i int) float64 { return want.Flow[i] }
			if v, w := flowValue(edges, 0, nw.Flow), flowValue(edges, 0, cold); got && v != w {
				t.Fatalf("trial %d round %d: sends %v from s, cold %v", trial, round, v, w)
			}
		}
		done[kinds] += nw.Grown()
	}
	t.Logf("rounds of each kind %v (the last: grown solves), %d raises of big, %d infeasible", done, raised, refused)
	for kind, k := range done {
		if k == 0 {
			t.Errorf("no round of kind %d", kind)
		}
	}
	if raised == 0 || refused == 0 {
		t.Errorf("%d raises of big and %d infeasible solves, want some of each", raised, refused)
	}
}

// flowValue returns what a flow, edge i carrying flow(i), sends out of s.
func flowValue(edges []BoundedEdge, s int, flow func(i int) float64) float64 {
	var out float64
	for i, e := range edges {
		switch s {
		case e.From:
			out += flow(i)
		case e.To:
			out -= flow(i)
		}
	}
	return out
}

// TestMinCutSteadyStateAllocs checks the arena claim: once a Network is
// built, moving bounds and solving again allocates nothing, with either
// solver.
func TestMinCutSteadyStateAllocs(t *testing.T) {
	n, edges := warmTestNetwork()
	nw, err := NewNetwork(n, edges, 0, n-1)
	if err != nil {
		t.Fatal(err)
	}
	for _, solver := range []Solver{EdmondsKarp, Dinic} {
		step := 0
		allocs := testing.AllocsPerRun(50, func() {
			step++
			i := step % len(edges)
			nw.SetBounds(i, float64(step%3)/4, 2+float64(step%7))
			if _, err := nw.Solve(solver); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("solver %d: a warm Solve allocates %v times", solver, allocs)
		}
	}
}

// TestNewNetworkAllocs pins what building a Network costs: every array is
// sized once from the edge and node counts, so the allocation count does
// not grow with the network (the three arc arrays grown edge by edge took
// one more per doubling of each: 46 at 100 nodes, 68 at 1,000).
func TestNewNetworkAllocs(t *testing.T) {
	for _, n := range []int{10, 100, 1000} {
		var edges []BoundedEdge
		for u := 0; u < n-1; u++ {
			edges = append(edges, BoundedEdge{From: u, To: u + 1, Upper: 1})
			if u+2 < n {
				edges = append(edges, BoundedEdge{From: u, To: u + 2, Upper: 2})
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := NewNetwork(n, edges, 0, n-1); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 19 {
			t.Errorf("%d nodes, %d edges: NewNetwork allocates %v times, want 19", n, len(edges), allocs)
		}
	}
}
