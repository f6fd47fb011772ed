package frontier

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"perseus/internal/dag"
	"perseus/internal/gpu"
	"perseus/internal/maxflow"
	"perseus/internal/model"
	"perseus/internal/partition"
	"perseus/internal/profile"
	"perseus/internal/sched"
)

// coldStepper is the reference MinCutStepper is checked against: the same
// Algorithm 2 step with nothing carried from one step to the next. Every
// call rebuilds the critical network with its own node numbering and edge
// list and solves it from zero flow on a fresh maxflow network.
type coldStepper struct {
	fallbacks, reverts int
}

// Step implements Stepper.
func (m *coldStepper) Step(st *state) (bool, error) {
	g := st.g
	est := g.EarliestStarts()
	mk := est[g.Sink]
	lst := g.LatestStarts(mk)
	critical := make([]bool, len(g.Dur))
	for v := range critical {
		critical[v] = est[v] == lst[v]
	}
	critical[g.Source] = true
	critical[g.Sink] = true

	// Split each critical node into in/out; assign flow-network ids.
	nodeID := make([]int32, len(g.Dur))
	for i := range nodeID {
		nodeID[i] = -1
	}
	next := 0
	for v := range critical {
		if critical[v] {
			nodeID[v] = int32(next)
			next += 2 // in = id, out = id+1
		}
	}
	inf := math.Inf(1)
	var edges []maxflow.BoundedEdge
	for v := range critical {
		if !critical[v] {
			continue
		}
		in, out := int(nodeID[v]), int(nodeID[v])+1
		lo, up := 0.0, inf
		if v < st.nReal && !st.info[v].fixed {
			ePlus, eMinus := st.marginals(v)
			d := st.durs[v]
			ci := &st.info[v]
			switch {
			case d == ci.maxU:
				lo, up = 0, ePlus
			case d == ci.minU:
				lo, up = eMinus, inf
			default:
				lo, up = eMinus, ePlus
			}
		}
		edges = append(edges, maxflow.BoundedEdge{From: in, To: out, Lower: lo, Upper: up})
		for _, w := range g.Succ[v] {
			if critical[w] && est[w] == est[v]+g.Dur[v] {
				edges = append(edges, maxflow.BoundedEdge{
					From: out, To: int(nodeID[w]), Lower: 0, Upper: inf,
				})
			}
		}
	}
	s := int(nodeID[g.Source])
	t := int(nodeID[g.Sink]) + 1
	res, err := maxflow.MinCutWithBoundsUsing(st.solver, next, edges, s, t)
	if errors.Is(err, maxflow.ErrInfeasible) {
		m.fallbacks++
		zeroed := make([]maxflow.BoundedEdge, len(edges))
		for i, e := range edges {
			e.Lower = 0
			zeroed[i] = e
		}
		res, err = maxflow.MinCutWithBoundsUsing(st.solver, next, zeroed, s, t)
	}
	if err != nil {
		return false, fmt.Errorf("frontier: min cut: %w", err)
	}
	if math.IsInf(res.Value, 1) {
		return false, nil
	}

	st.moved = st.moved[:0]
	var spedUp, slowed []int
	for v := 0; v < st.nReal; v++ {
		if nodeID[v] < 0 || st.info[v].fixed {
			continue
		}
		inS := res.SSide[nodeID[v]]
		outS := res.SSide[nodeID[v]+1]
		switch {
		case inS && !outS:
			if st.durs[v] <= st.info[v].minU {
				return false, fmt.Errorf("frontier: cut crosses computation %d already at its fastest", v)
			}
			st.durs[v]--
			spedUp = append(spedUp, v)
			st.moved = append(st.moved, int32(v))
		case !inS && outS:
			if st.durs[v] < st.info[v].maxU {
				st.durs[v]++
				slowed = append(slowed, v)
				st.moved = append(st.moved, int32(v))
			}
		}
	}
	if len(spedUp) == 0 {
		return false, fmt.Errorf("frontier: finite cut with no computations to speed up")
	}
	if len(slowed) > 0 && st.g.Makespan() != mk-1 {
		m.reverts++
		for _, v := range slowed {
			st.durs[v]--
		}
	}
	st.durationsMoved()
	return true, nil
}

// warmColdCase builds one small pipeline of the named schedule kind.
func warmColdCase(t *testing.T, kind string) (*sched.Schedule, *profile.Profile) {
	t.Helper()
	stages, micro, chunks := 4, 6, 1
	if kind == "interleaved-1f1b" {
		stages, micro, chunks = 2, 4, 2
	}
	m, err := model.GPT3("1.3b")
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.MinImbalance(m.LayerCosts(), stages*chunks)
	if err != nil {
		t.Fatal(err)
	}
	p, err := profile.FromWorkload(profile.Workload{
		Model: m, GPU: gpu.A100PCIe, Stages: stages, Chunks: chunks,
		Partition: part.Boundaries, MicrobatchSize: 4, TensorParallel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ByName(kind, stages, micro, chunks)
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

// TestWarmMatchesCold is the frontier-level differential: the warm-started
// stepper on its one reused network must walk exactly the steps the
// rebuild-per-step reference walks — the same table of every step, the
// same durations at every step, the same energy sums to the last bit —
// for every schedule kind, both relaxations, three unit times and both
// max-flow solvers. Characterize prunes both walks alike.
func TestWarmMatchesCold(t *testing.T) {
	for _, kind := range []string{"1f1b", "gpipe", "interleaved-1f1b", "early-recompute-1f1b"} {
		s, p := warmColdCase(t, kind)
		for _, piecewise := range []bool{false, true} {
			for _, unit := range []float64{4e-3, 7e-3, 15e-3} {
				for _, solver := range []maxflow.Solver{maxflow.EdmondsKarp, maxflow.Dinic} {
					name := fmt.Sprintf("%s/piecewise=%v/unit=%g/solver=%d", kind, piecewise, unit, solver)
					run := func(stepper Stepper) *Frontier {
						g, err := dag.Build(s, func(sched.Op) int64 { return 1 })
						if err != nil {
							t.Fatal(err)
						}
						return walkOf(t, g, p, Options{Unit: unit, PiecewiseFit: piecewise, Solver: solver, Stepper: stepper})
					}
					cold := &coldStepper{}
					want, got := run(cold), run(MinCutStepper{})
					if len(want.Points()) < 10 {
						t.Fatalf("%s: reference walk has only %d steps", name, len(want.Points()))
					}
					if !reflect.DeepEqual(got.Table(), want.Table()) {
						t.Fatalf("%s: tables differ (%d vs %d steps)", name, len(got.Points()), len(want.Points()))
					}
					if st := got.Stats(); st.Fallbacks != cold.fallbacks {
						t.Fatalf("%s: stats %+v, reference took %d fallbacks", name, st, cold.fallbacks)
					}
					for i, w := range want.Points() {
						g := got.Points()[i]
						if g.EnergyRelaxed != w.EnergyRelaxed || g.RawEnergy != w.RawEnergy {
							t.Fatalf("%s: point %d energy sums differ: %v/%v vs %v/%v", name, i,
								g.EnergyRelaxed, g.RawEnergy, w.EnergyRelaxed, w.RawEnergy)
						}
						if !slices.Equal(g.Durations(), w.Durations()) {
							t.Fatalf("%s: point %d durations differ", name, i)
						}
					}
				}
			}
		}
	}
}

// tableCurve is a fabricated energy curve: the energy at duration d (the
// unit time is 1 in these tests) is e[d]. onEval, when set, runs before
// every evaluation.
type tableCurve struct {
	e      []float64
	onEval *func()
}

func (c tableCurve) Eval(t float64) float64 {
	if *c.onEval != nil {
		(*c.onEval)()
	}
	return c.e[int(math.Round(t))]
}

// handComp is one computation of a hand-built state: its duration range,
// where it starts, and its energy at every duration. A fixed computation
// keeps dur and has no energy curve.
type handComp struct {
	minU, maxU, dur int64
	energy          []float64
	fixed           bool
}

// handState builds a stepper state over explicit dependencies. It returns
// the state and the hook every curve evaluation runs.
func handState(t *testing.T, comps []handComp, deps [][2]int, solver maxflow.Solver) (*state, *func()) {
	t.Helper()
	s := &sched.Schedule{Name: "hand", Stages: len(comps), Microbatches: 1, Chunks: 1, Deps: deps}
	for i := range comps {
		s.Ops = append(s.Ops, sched.Op{Stage: i, Virtual: i})
		s.PerStage = append(s.PerStage, []int{i})
	}
	g, err := dag.Build(s, func(op sched.Op) int64 { return comps[op.Stage].dur })
	if err != nil {
		t.Fatal(err)
	}
	hook := new(func())
	st := &state{g: g, unit: 1, nReal: len(comps), durs: g.Dur[:len(comps)], solver: solver}
	for _, c := range comps {
		ci := compInfo{curve: tableCurve{e: c.energy, onEval: hook}, minU: c.minU, maxU: c.maxU, fixed: c.fixed}
		if c.fixed {
			ci.minU, ci.maxU = c.dur, c.dur
		}
		st.info = append(st.info, ci)
	}
	return st, hook
}

// walkBoth steps a warm and a cold stepper over identical hand-built
// states until neither finds a cut, requiring the same durations after
// every step, and returns the cold stepper's branch counts, the warm
// state's fallback count and the durations after each step.
func walkBoth(t *testing.T, build func() (*state, *func()), arm func(step int, st *state, hook *func())) (cold *coldStepper, warmFallbacks int, trail [][]int64) {
	t.Helper()
	w := walkSteps(t, build, arm)
	return w.cold, w.warm.fallbacks, w.trail
}

// stepTrail is what walkSteps saw: the cold stepper, the warm state, and per
// step taken the durations after it and whether the warm stepper rebuilt
// the Critical DAG for it.
type stepTrail struct {
	cold    *coldStepper
	warm    *state
	trail   [][]int64
	rebuilt []bool
}

// walkSteps is walkBoth recording which steps rebuilt.
func walkSteps(t *testing.T, build func() (*state, *func()), arm func(step int, st *state, hook *func())) stepTrail {
	t.Helper()
	warm, warmHook := build()
	ref, refHook := build()
	w := stepTrail{cold: &coldStepper{}, warm: warm}
	for step := 0; step < 100; step++ {
		arm(step, warm, warmHook)
		arm(step, ref, refHook)
		rebuilds := warm.rebuilds
		okW, errW := MinCutStepper{}.Step(warm)
		okC, errC := w.cold.Step(ref)
		if errW != nil || errC != nil {
			t.Fatalf("step %d: warm error %v, cold error %v", step, errW, errC)
		}
		if okW != okC || !slices.Equal(warm.durs, ref.durs) {
			t.Fatalf("step %d: warm ok=%v durations %v, cold ok=%v durations %v", step, okW, warm.durs, okC, ref.durs)
		}
		if !okW {
			return w
		}
		w.trail = append(w.trail, slices.Clone(warm.durs))
		w.rebuilt = append(w.rebuilt, warm.rebuilds > rebuilds)
	}
	t.Fatal("walk did not end in 100 steps")
	return stepTrail{}
}

// TestStepFallbackWarmMatchesCold forces the ErrInfeasible branch. Chain
// A→B has A at its fastest with a slow-down credit (50) larger than what
// its only continuation B can carry (5, then 15): no circulation meets the
// lower bound, and the step must fall back to the speed-up-only cut. A
// parallel chain C→D of ordinary computations rides along, so the warm
// stepper goes into and out of the failed attempts carrying flow.
func TestStepFallbackWarmMatchesCold(t *testing.T) {
	for _, solver := range []maxflow.Solver{maxflow.EdmondsKarp, maxflow.Dinic} {
		build := func() (*state, *func()) {
			return handState(t, []handComp{
				{minU: 2, maxU: 4, dur: 2, energy: []float64{0, 0, 100, 50, 40}}, // A
				{minU: 2, maxU: 4, dur: 4, energy: []float64{0, 0, 30, 15, 10}},  // B
				{minU: 1, maxU: 3, dur: 3, energy: []float64{0, 20, 12, 8}},      // C
				{minU: 1, maxU: 3, dur: 3, energy: []float64{0, 26, 14, 9}},      // D
			}, [][2]int{{0, 1}, {2, 3}}, solver)
		}
		cold, warmFallbacks, trail := walkBoth(t, build, func(int, *state, *func()) {})
		if cold.fallbacks < 2 || warmFallbacks != cold.fallbacks {
			t.Fatalf("solver %d: fallbacks warm %d, cold %d, want the same and at least 2", solver, warmFallbacks, cold.fallbacks)
		}
		// A never leaves its fastest duration and B is driven to its own:
		// the fallback cut speeds B although A's credit is unpaid.
		last := trail[len(trail)-1]
		if last[0] != 2 || last[1] != 2 {
			t.Fatalf("solver %d: final durations %v, want A and B at 2", solver, last)
		}
	}
}

// TestStepSlowdownRevertWarmMatchesCold forces the slowdown revert.
//
// A step's own cut cannot trip it: moving every start on the cut's T side
// one unit earlier is still a valid timeline under the new durations
// (durations are integers, and a dependency out of a non-critical
// computation has at least one unit of slack), so the makespan lands on
// mk−1 exactly. The check guards against durations that are no longer the
// ones the step analysed. The test makes that happen: the first curve
// evaluation of the first step — after the critical-path analysis —
// stretches non-critical N from 2 to 3 units, as a late profile update
// would.
//
// Critical paths X→U→Y, X→Q and R→Y (9 units each): the cheapest cut
// speeds X and Y (1 J each) and slows U, which no other critical path
// shares, for a 0.5 J credit. N→U→Y was one unit short of critical; with
// N stretched and U slowed it is 9 units again, so the slowdown must be
// undone and the speed-ups kept. Three more steps follow on the warm
// state the reverted step left.
func TestStepSlowdownRevertWarmMatchesCold(t *testing.T) {
	const x, u, y, q, r, n = 0, 1, 2, 3, 4, 5
	for _, solver := range []maxflow.Solver{maxflow.EdmondsKarp, maxflow.Dinic} {
		build := func() (*state, *func()) {
			return handState(t, []handComp{
				x: {minU: 1, maxU: 4, dur: 3, energy: []float64{0, 14, 12, 11, 10.5}},
				u: {minU: 2, maxU: 6, dur: 3, energy: []float64{0, 0, 30, 25, 24.5, 24.2, 24}},
				y: {minU: 1, maxU: 4, dur: 3, energy: []float64{0, 15, 13, 12, 11.5}},
				q: {minU: 4, maxU: 6, dur: 6, energy: []float64{0, 0, 0, 0, 60, 40, 30}},
				r: {minU: 4, maxU: 6, dur: 6, energy: []float64{0, 0, 0, 0, 62, 41, 31}},
				n: {minU: 1, maxU: 7, dur: 2, energy: []float64{0, 9, 8, 7, 6, 5, 4, 3}},
			}, [][2]int{{x, u}, {u, y}, {x, q}, {r, y}, {n, u}}, solver)
		}
		arm := func(step int, st *state, hook *func()) {
			*hook = nil
			if step == 0 {
				*hook = func() { st.durs[n] = 3; *hook = nil }
			}
		}
		cold, _, trail := walkBoth(t, build, arm)
		if cold.reverts != 1 {
			t.Fatalf("solver %d: reference reverted %d times, want once (on the first step)", solver, cold.reverts)
		}
		first := trail[0]
		if first[x] != 2 || first[y] != 2 || first[u] != 3 {
			t.Fatalf("solver %d: after the reverted step X, U, Y = %d, %d, %d, want 2, 3, 2", solver, first[x], first[u], first[y])
		}
		if len(trail) < 3 {
			t.Fatalf("solver %d: walk ended after %d steps; the warm state was not carried past the revert", solver, len(trail))
		}
	}
}

// TestSolverReachesExplicitStepper checks Options.Solver is not dropped
// when the caller also names the stepper.
func TestSolverReachesExplicitStepper(t *testing.T) {
	g, p, opts := buildCase(t, "gpt3-1.3b", gpu.A100PCIe, 2, 3, 4, "1f1b")
	spy := &solverSpy{}
	opts.Solver, opts.Stepper = maxflow.Dinic, spy
	characterize(t, g, p, opts)
	if spy.seen != maxflow.Dinic || spy.calls == 0 {
		t.Fatalf("explicit stepper saw solver %d over %d calls, want Dinic", spy.seen, spy.calls)
	}
}

// solverSpy is MinCutStepper recording the solver the state hands it.
type solverSpy struct {
	seen  maxflow.Solver
	calls int
}

func (s *solverSpy) Step(st *state) (bool, error) {
	s.seen = st.solver
	s.calls++
	return MinCutStepper{}.Step(st)
}

// gpt3Shape400 builds the GPT-3 1.3B 1F1B pipeline (4 stages, 16
// microbatches) with τ picked for about 400 frontier points, as
// experiments.Scale.TargetSteps does.
func gpt3Shape400(t *testing.T) (*dag.Graph, *profile.Profile, Options, int) {
	t.Helper()
	m, err := model.GPT3("1.3b")
	if err != nil {
		t.Fatal(err)
	}
	const stages, micro = 4, 16
	part, err := partition.MinImbalance(m.LayerCosts(), stages)
	if err != nil {
		t.Fatal(err)
	}
	p, err := profile.FromWorkload(profile.Workload{
		Model: m, GPU: gpu.A100PCIe, Stages: stages, Chunks: 1,
		Partition: part.Boundaries, MicrobatchSize: 4, TensorParallel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.OneFOneB(stages, micro)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dag.Build(s, func(sched.Op) int64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	coarse := characterize(t, g, p, Options{Unit: 20e-3})
	opts := Options{Unit: (coarse.TStar() - coarse.Tmin()) / 400}
	points := len(characterize(t, g, p, opts).Points())
	if points < 350 || points > 450 {
		t.Fatalf("shape has %d points, want about 400", points)
	}
	return g, p, opts, points
}

// TestCharacterizeAllocsPerPoint is the machine-independent gate on the
// optimizer's cost: a 400-point GPT-3 frontier may allocate at most 16
// times per point (the point's delta list, amortized growth of the point
// and delta slices, a keyframe every 256 points, and the one-time network
// and buffers spread over all of them). Rebuilding the network every step
// cost about 900.
func TestCharacterizeAllocsPerPoint(t *testing.T) {
	g, p, opts, points := gpt3Shape400(t)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Characterize(g, p, opts); err != nil {
			t.Fatal(err)
		}
	})
	if perPoint := allocs / float64(points); perPoint > 16 {
		t.Errorf("%.0f allocations for %d points = %.1f per point, budget 16", allocs, points, perPoint)
	} else {
		t.Logf("%.0f allocations for %d points = %.1f per point", allocs, points, perPoint)
	}
}

// TestCharacterizeWorkCounts is the machine-independent gate on what a
// step costs: on the same 400-point frontier the network re-clamps, per
// step, a small share of its edges (all of them on the first step, a
// handful on and around the previous cut afterwards: 3.51 of 368
// measured, pinned with half again as much headroom), each solve either
// grows the last S side or searches from s, at most one search per phase
// and augmenting path, at least seven solves in ten grow (295 of 355
// measured), and about four steps in five keep the previous step's
// Critical DAG (rebuilds: 69 of 355 steps measured, pinned at 0.25 per
// step). The counts repeat exactly, and the edges moved and the rebuilds
// do not depend on the max-flow solver.
func TestCharacterizeWorkCounts(t *testing.T) {
	g, p, opts, _ := gpt3Shape400(t)
	edges := 0
	for v := range g.Dur {
		edges += 1 + len(g.Succ[v])
	}
	ek := characterize(t, g, p, opts).Stats()
	t.Logf("%d network edges, %+v", edges, ek)
	if perStep := float64(ek.EdgesMoved) / float64(ek.Steps); perStep > 5.3 || perStep >= float64(edges)/4 {
		t.Errorf("%.2f of %d edges moved per step, want at most 5.3", perStep, edges)
	}
	if ek.Searches+ek.Grown < ek.Steps || ek.Searches > 3*ek.Steps+ek.AugmentingPaths {
		t.Errorf("%d searches and %d grown solves for %d steps and %d augmenting paths", ek.Searches, ek.Grown, ek.Steps, ek.AugmentingPaths)
	}
	if float64(ek.Grown) < 0.7*float64(ek.Steps) {
		t.Errorf("%d of %d steps grew the last S side, want at least 0.7 of them", ek.Grown, ek.Steps)
	}
	if perStep := float64(ek.Rebuilds) / float64(ek.Steps); ek.Rebuilds < 1 || perStep > 0.25 {
		t.Errorf("%d of %d steps rebuilt the Critical DAG (%.2f), want at least the first and at most 0.25", ek.Rebuilds, ek.Steps, perStep)
	}
	if again := characterize(t, g, p, opts).Stats(); again != ek {
		t.Errorf("second run counted %+v, first %+v", again, ek)
	}
	opts.Solver = maxflow.Dinic
	if dinic := characterize(t, g, p, opts).Stats(); dinic.EdgesMoved != ek.EdgesMoved || dinic.Steps != ek.Steps || dinic.Rebuilds != ek.Rebuilds {
		t.Errorf("Dinic moved %d edges and rebuilt %d times in %d steps, Edmonds-Karp %d and %d in %d",
			dinic.EdgesMoved, dinic.Rebuilds, dinic.Steps, ek.EdgesMoved, ek.Rebuilds, ek.Steps)
	}
}
