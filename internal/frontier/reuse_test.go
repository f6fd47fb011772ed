package frontier

import (
	"fmt"
	"slices"
	"testing"

	"perseus/internal/maxflow"
)

// TestStepRebuilds walks, warm against cold, one hand-built state per
// reason a step must rebuild the Critical DAG, and pins which steps
// rebuilt. Each trigger fires while every other condition for keeping the
// Critical DAG holds, so the rebuild after it is the trigger's alone.
func TestStepRebuilds(t *testing.T) {
	// cheap costs one joule per unit near its slowest duration, and dear
	// at least ten.
	cheap := []float64{0, 19, 18, 17, 16}
	dear := []float64{0, 0, 90, 70, 60, 50, 40}
	const x, m, y, q, r, n = 0, 1, 2, 3, 4, 5
	cases := []struct {
		name      string
		comps     []handComp
		deps      [][2]int
		arm       func(step int, st *state, hook *func()) // nil: none
		fallbacks int                                     // steps that fall back
		first     []int64                                 // the durations the first step leaves
		want      []bool                                  // per step: rebuilt the Critical DAG
	}{{
		// X→M→Y, X→Q and R→Y, 9 units each, M fixed. The cheapest cut
		// speeds X and Y: X→M→Y gets two units shorter and M leaves the
		// Critical DAG. The cut crosses M→Y from T to S, not M itself: a
		// computation without a slow-down credit (fixed, or at its
		// slowest) is never cut T→S, because the S side is what the
		// residual graph reaches from s, and reaching out(M) takes flow
		// on M's dependencies, hence through M, which leaves in(M)
		// reachable too.
		name: "fixed computation's dependency cut T→S",
		comps: []handComp{
			x: {minU: 1, maxU: 4, dur: 3, energy: cheap},
			m: {dur: 3, fixed: true},
			y: {minU: 1, maxU: 4, dur: 3, energy: cheap},
			q: {minU: 2, maxU: 6, dur: 6, energy: dear},
			r: {minU: 2, maxU: 6, dur: 6, energy: dear},
		},
		deps:  [][2]int{{x, m}, {m, y}, {x, q}, {r, y}},
		first: []int64{2, 3, 2, 6, 6},
		want:  []bool{true, true, false, false},
	}, {
		// X→Y, X→Q and R→Y, 6 units each (M is Q here). The cheapest cut
		// speeds X and Y and so crosses the tight X→Y from T to S, which
		// turns loose.
		name: "tight dependency cut T→S",
		comps: []handComp{
			x: {minU: 1, maxU: 4, dur: 3, energy: cheap},
			m: {minU: 2, maxU: 3, dur: 3, energy: dear},
			y: {minU: 1, maxU: 4, dur: 3, energy: cheap},
			q: {minU: 2, maxU: 3, dur: 3, energy: dear},
		},
		deps:  [][2]int{{x, y}, {x, m}, {q, y}},
		first: []int64{2, 3, 2, 3},
		want:  []bool{true, true, false},
	}, {
		// TestStepSlowdownRevertWarmMatchesCold's state without N: the
		// cut speeds X and Y and slows M, which no other critical path
		// shares.
		name: "slowdown",
		comps: []handComp{
			x: {minU: 1, maxU: 4, dur: 3, energy: []float64{0, 14, 12, 11, 10.5}},
			m: {minU: 2, maxU: 6, dur: 3, energy: []float64{0, 0, 30, 25, 24.5, 24.2, 24}},
			y: {minU: 1, maxU: 4, dur: 3, energy: []float64{0, 15, 13, 12, 11.5}},
			q: {minU: 4, maxU: 6, dur: 6, energy: []float64{0, 0, 0, 0, 60, 40, 30}},
			r: {minU: 4, maxU: 6, dur: 6, energy: []float64{0, 0, 0, 0, 62, 41, 31}},
		},
		deps:  [][2]int{{x, m}, {m, y}, {x, q}, {r, y}},
		first: []int64{2, 4, 2, 6, 6},
		want:  []bool{true, true, true, false},
	}, {
		// TestStepSlowdownRevertWarmMatchesCold's state with N two units
		// shorter: N stretched by two under the first step, after its
		// critical-path analysis, makes the slowdown of M lengthen
		// N→M→Y, so the slowdown is reverted.
		name: "reverted slowdown",
		comps: []handComp{
			x: {minU: 1, maxU: 4, dur: 3, energy: []float64{0, 14, 12, 11, 10.5}},
			m: {minU: 2, maxU: 6, dur: 3, energy: []float64{0, 0, 30, 25, 24.5, 24.2, 24}},
			y: {minU: 1, maxU: 4, dur: 3, energy: []float64{0, 15, 13, 12, 11.5}},
			q: {minU: 4, maxU: 6, dur: 6, energy: []float64{0, 0, 0, 0, 60, 40, 30}},
			r: {minU: 4, maxU: 6, dur: 6, energy: []float64{0, 0, 0, 0, 62, 41, 31}},
			n: {minU: 1, maxU: 7, dur: 1, energy: []float64{0, 9, 8, 7, 6, 5, 4, 3}},
		},
		deps: [][2]int{{x, m}, {m, y}, {x, q}, {r, y}, {n, m}},
		arm: func(step int, st *state, hook *func()) {
			*hook = nil
			if step == 0 {
				*hook = func() { st.durs[n] = 3; *hook = nil }
			}
		},
		first: []int64{2, 3, 2, 6, 6, 3},
		want:  []bool{true, true, false, false},
	}, {
		// A→B→C and N, 12 and 6 units: N is far, with more than
		// nearSlack units of slack, so the first step's Critical DAG
		// lasts six steps on N's slack alone, after which N may be
		// critical (and is).
		name: "far computation's slack runs out",
		comps: []handComp{
			{minU: 1, maxU: 4, dur: 4, energy: cheap},
			{minU: 1, maxU: 4, dur: 4, energy: cheap},
			{minU: 1, maxU: 4, dur: 4, energy: cheap},
			{minU: 1, maxU: 6, dur: 6, energy: dear},
		},
		deps:  [][2]int{{0, 1}, {1, 2}},
		first: []int64{3, 4, 4, 6},
		want:  []bool{true, false, false, false, false, false, true, false, false},
	}, {
		// A→B and C, 6 and 3 units: C is near, with three units of slack,
		// tracked exactly: two steps keep the first one's Critical DAG,
		// and the third leaves C critical with B.
		name: "slack-1 computation turns critical",
		comps: []handComp{
			{minU: 1, maxU: 3, dur: 3, energy: []float64{0, 30, 20, 15}},
			{minU: 1, maxU: 3, dur: 3, energy: []float64{0, 31, 21, 16}},
			{minU: 1, maxU: 3, dur: 3, energy: []float64{0, 40, 25, 20}},
		},
		deps:  [][2]int{{0, 1}},
		first: []int64{2, 3, 3},
		want:  []bool{true, false, false, true},
	}, {
		// A→B and C→D, 6 units each, and A→D, one unit loose. The
		// cheapest cut speeds B and C, so D starts a unit earlier and
		// A→D turns tight.
		name: "loose dependency turns tight",
		comps: []handComp{
			{minU: 2, maxU: 3, dur: 3, energy: []float64{0, 0, 100, 50}},
			{minU: 1, maxU: 3, dur: 3, energy: []float64{0, 20, 12, 10}},
			{minU: 1, maxU: 4, dur: 4, energy: []float64{0, 20, 14, 11, 10}},
			{minU: 1, maxU: 2, dur: 2, energy: []float64{0, 100, 50}},
		},
		deps:  [][2]int{{0, 1}, {2, 3}, {0, 3}},
		first: []int64{3, 2, 3, 2},
		want:  []bool{true, true, false},
	}, {
		// TestStepFallbackWarmMatchesCold's state: A's slow-down credit
		// cannot be carried, so both steps fall back.
		name: "infeasible fallback",
		comps: []handComp{
			{minU: 2, maxU: 4, dur: 2, energy: []float64{0, 0, 100, 50, 40}},
			{minU: 2, maxU: 4, dur: 4, energy: []float64{0, 0, 30, 15, 10}},
			{minU: 1, maxU: 3, dur: 3, energy: []float64{0, 20, 12, 8}},
			{minU: 1, maxU: 3, dur: 3, energy: []float64{0, 26, 14, 9}},
		},
		deps:      [][2]int{{0, 1}, {2, 3}},
		fallbacks: 2,
		first:     []int64{2, 3, 2, 3},
		want:      []bool{true, true},
	}}
	for _, c := range cases {
		arm := c.arm
		if arm == nil {
			arm = func(int, *state, *func()) {}
		}
		for _, solver := range []maxflow.Solver{maxflow.EdmondsKarp, maxflow.Dinic} {
			name := fmt.Sprintf("%s/solver=%d", c.name, solver)
			w := walkSteps(t, func() (*state, *func()) { return handState(t, c.comps, c.deps, solver) }, arm)
			if w.warm.fallbacks != c.fallbacks {
				t.Errorf("%s: %d steps fell back, want %d", name, w.warm.fallbacks, c.fallbacks)
			}
			if !slices.Equal(w.trail[0], c.first) {
				t.Errorf("%s: the first step left %v, want %v", name, w.trail[0], c.first)
			}
			if !slices.Equal(w.rebuilt, c.want) {
				t.Errorf("%s: rebuilt %v, want %v", name, w.rebuilt, c.want)
			}
		}
	}
}
