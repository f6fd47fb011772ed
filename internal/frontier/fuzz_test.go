package frontier

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"perseus/internal/dag"
	"perseus/internal/gpu"
	"perseus/internal/maxflow"
	"perseus/internal/profile"
	"perseus/internal/sched"
)

// fuzzMergeInputs derives a random fleet of convex lookup tables
// (E(t) = a + b/t, the convexity premise of the merge's optimality
// claim) with random scales, weights, and start points from one seed.
func fuzzMergeInputs(seed int64) []MergeInput {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(4)
	inputs := make([]MergeInput, n)
	for i := range inputs {
		tmin := int64(30 + rng.Intn(120))
		span := int64(2 + rng.Intn(20))
		a := 500 + 5000*rng.Float64()
		b := 20 + 500*rng.Float64()
		lt := &LookupTable{Unit: 0.002 + 0.02*rng.Float64(), TminUnits: tmin, TStarUnits: tmin + span}
		for u := tmin; u <= tmin+span; u++ {
			t := float64(u) * lt.Unit
			lt.Points = append(lt.Points, TablePoint{TimeUnits: u, Energy: a + b/t})
		}
		inputs[i] = MergeInput{
			Table:      lt,
			PowerScale: float64(1 + rng.Intn(3)),
			LossWeight: 0.5 + rng.Float64(),
			Start:      rng.Intn(len(lt.Points)),
		}
	}
	return inputs
}

// FuzzMerge checks the structural invariants of a merged fleet descent
// on seed-derived random convex fleets:
//
//  1. the start power is the sum of the scaled start-point powers;
//  2. cumulative power is strictly decreasing across steps and never
//     dips below the sum of the min-point (T*) powers, which the final
//     step reaches exactly;
//  3. steps are sorted by non-decreasing marginal cost — the
//     watts-saved-per-loss slope never increases (each job's slope
//     sequence is non-increasing under convexity, and the merge always
//     takes the global steepest next step);
//  4. every job descends its own frontier one point at a time from its
//     start to its last point.
func FuzzMerge(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		inputs := fuzzMergeInputs(seed)
		startPower, steps := Merge(inputs)

		var wantStart, minSum float64
		wantSteps := 0
		for _, in := range inputs {
			lt := in.Table
			wantStart += in.PowerScale * lt.AvgPower(in.Start)
			minSum += in.PowerScale * lt.AvgPower(len(lt.Points)-1)
			wantSteps += len(lt.Points) - 1 - in.Start
		}
		tol := 1e-9 * (1 + math.Abs(wantStart))
		if math.Abs(startPower-wantStart) > tol {
			t.Fatalf("start power %v, want sum of start points %v", startPower, wantStart)
		}
		if len(steps) != wantSteps {
			t.Fatalf("got %d steps, want every one-point slowdown: %d", len(steps), wantSteps)
		}

		cur := make([]int, len(inputs))
		for i, in := range inputs {
			cur[i] = in.Start
		}
		prevPower := startPower
		prevSlope := math.Inf(1)
		for i, st := range steps {
			if st.Table < 0 || st.Table >= len(inputs) {
				t.Fatalf("step %d targets table %d of %d", i, st.Table, len(inputs))
			}
			if st.Point != cur[st.Table]+1 {
				t.Fatalf("step %d jumps table %d from point %d to %d", i, st.Table, cur[st.Table], st.Point)
			}
			cur[st.Table] = st.Point
			if st.Power >= prevPower-0 {
				t.Fatalf("step %d power %v does not decrease from %v", i, st.Power, prevPower)
			}
			if st.Power < minSum-tol {
				t.Fatalf("step %d power %v dips below the min-point sum %v", i, st.Power, minSum)
			}
			if st.Slope > prevSlope*(1+1e-9)+1e-9 {
				t.Fatalf("step %d slope %v exceeds previous %v: steps not sorted by marginal cost", i, st.Slope, prevSlope)
			}
			if st.Loss <= 0 || st.Slope <= 0 {
				t.Fatalf("step %d has non-positive loss %v or slope %v", i, st.Loss, st.Slope)
			}
			prevPower, prevSlope = st.Power, st.Slope
		}
		if len(steps) > 0 {
			final := steps[len(steps)-1].Power
			if math.Abs(final-minSum) > tol {
				t.Fatalf("final power %v, want min-point sum %v", final, minSum)
			}
		}
		for i, in := range inputs {
			if cur[i] != len(in.Table.Points)-1 {
				t.Fatalf("table %d ends at point %d, want last point %d", i, cur[i], len(in.Table.Points)-1)
			}
		}
	})
}

// lockstep is the Stepper FuzzStepMatchesCold characterizes with: it steps
// MinCutStepper on Characterize's state and coldStepper on a copy of it,
// and fails the test unless after every step both found a cut or neither
// did and they left the same durations.
type lockstep struct {
	t    *testing.T
	ref  *state
	cold coldStepper
}

// Step implements Stepper.
func (l *lockstep) Step(st *state) (bool, error) {
	if l.ref == nil {
		g := st.g.Clone()
		l.ref = &state{g: g, unit: st.unit, info: st.info, nReal: st.nReal, durs: g.Dur[:st.nReal], solver: st.solver}
	}
	ok, err := MinCutStepper{}.Step(st)
	okC, errC := l.cold.Step(l.ref)
	if err != nil || errC != nil {
		l.t.Fatalf("warm error %v, cold error %v", err, errC)
	}
	if ok != okC || !slices.Equal(st.durs, l.ref.durs) {
		l.t.Fatalf("warm ok=%v durations %v, cold ok=%v durations %v", ok, st.durs, okC, l.ref.durs)
	}
	return ok, err
}

// FuzzStepMatchesCold characterizes a small random pipeline — any of the
// four schedule kinds, 2–4 stages, 2–8 microbatches, stage times jittered
// per stage, a random unit time, the piecewise fit on or off — with both
// max-flow solvers, and requires MinCutStepper, which keeps the Critical
// DAG across clean steps, to leave the durations the rebuild-per-step
// coldStepper leaves after every step.
func FuzzStepMatchesCold(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		kinds := []string{"1f1b", "gpipe", "interleaved-1f1b", "early-recompute-1f1b"}
		kind := kinds[rng.Intn(len(kinds))]
		stages, micro, chunks := 2+rng.Intn(3), 2+rng.Intn(7), 1
		if kind == "interleaved-1f1b" {
			chunks = 2
			micro = (micro + stages - 1) / stages * stages
		}
		refs := make([]float64, stages*chunks)
		base := 0.02 + 0.04*rng.Float64()
		for i := range refs {
			refs[i] = base * (0.7 + 0.6*rng.Float64())
		}
		p, err := profile.FromStageTimes(gpu.A100PCIe, refs, 1.5+rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.ByName(kind, stages, micro, chunks)
		if err != nil {
			t.Fatal(err)
		}
		unit := 1e-3 * math.Pow(16, rng.Float64()) // 1 to 16 ms
		piecewise := rng.Intn(2) == 0
		for _, solver := range []maxflow.Solver{maxflow.EdmondsKarp, maxflow.Dinic} {
			g, err := dag.Build(s, func(sched.Op) int64 { return 1 })
			if err != nil {
				t.Fatal(err)
			}
			_, err = Characterize(g, p, Options{Unit: unit, PiecewiseFit: piecewise, Solver: solver, Stepper: &lockstep{t: t}})
			if err != nil {
				t.Fatalf("%s %d×%d unit %g piecewise=%v solver %d: %v", kind, stages, micro, unit, piecewise, solver, err)
			}
		}
	})
}
