package grid

import (
	"math"
	"math/rand"
	"testing"

	"perseus/internal/frontier"
)

// fuzzInstance derives a random planning instance from fuzzed inputs:
// a convex lookup table, a signal with optional per-interval caps, and
// normalized target/deadline fractions.
func fuzzInstance(seed int64, targetFrac, deadlineFrac float64) (*frontier.LookupTable, *Signal, Options, bool) {
	rng := rand.New(rand.NewSource(seed))
	lt, sig := randomInstance(rng, seed%2 == 0)
	if math.IsNaN(targetFrac) || math.IsInf(targetFrac, 0) {
		return nil, nil, Options{}, false
	}
	if math.IsNaN(deadlineFrac) || math.IsInf(deadlineFrac, 0) {
		return nil, nil, Options{}, false
	}
	// Clamp the fuzzed fractions into meaningful planning ranges.
	targetFrac = math.Mod(math.Abs(targetFrac), 1.4) // may exceed max coverage
	deadlineFrac = 0.3 + math.Mod(math.Abs(deadlineFrac), 0.7)
	opts := Options{
		Objective:  []Objective{ObjectiveCarbon, ObjectiveCost, ObjectiveEnergy}[rng.Intn(3)],
		PowerScale: float64(1 + rng.Intn(2)),
		DeadlineS:  deadlineFrac * sig.Horizon(),
	}
	// Max coverage under the deadline and caps (the fastest allowed
	// point per interval, idle where the cap excludes every point).
	var maxCover float64
	for _, iv := range sig.Truncate(opts.DeadlineS).Intervals {
		lo := 0
		if iv.CapW > 0 {
			lo = lt.FirstUnderPower(iv.CapW / opts.PowerScale)
		}
		if lo >= 0 {
			maxCover += iv.Duration() / lt.PointTime(lo)
		}
	}
	if maxCover == 0 {
		return nil, nil, Options{}, false
	}
	opts.Target = targetFrac * maxCover
	if !(opts.Target > 0) {
		return nil, nil, Options{}, false
	}
	return lt, sig, opts, true
}

// FuzzOptimize fuzzes signal, frontier, target, and deadline inputs
// and asserts the temporal planner's invariants on every instance:
//
//  0. the solver agrees bit for bit with the scan reference (scanSolve),
//     on the instance and over a non-convex table; and
//     with the greedy it replaced (solveGreedy) every total agrees
//     within 1e-12 relative where the two make the same decisions, the
//     objective at equal iterations where a tie lets them differ
//     (greedyDecisions);
//  1. feasibility is decided correctly — the plan is feasible exactly
//     when the target fits under the deadline at the fastest allowed
//     points, and a feasible plan completes the target by the deadline;
//  2. per-interval facility caps are respected by every planned slice;
//  3. slice time fits its interval and the accounting identities hold
//     (energy = Σ seconds × scale × power; carbon/cost = energy ×
//     interval rate);
//  4. the plan's price certifies it (checkPrice), over a non-convex
//     table too;
//  5. the plan's accrued objective never exceeds either signal-blind
//     Fixed baseline (always-Tmin and static min-energy): both
//     baselines are feasible points of the continuous time-sharing
//     space the greedy fill solves exactly (see Optimize), so losing
//     to either at all would break exactness;
//  6. the runs of every plan above and of both baselines are maximal,
//     in order and cover the intervals before the deadline, a run with
//     slices is one interval its slices fit (checkRuns), and each plan
//     expands to the reference assembly's intervals and totals bit for
//     bit (checkExpansion).
func FuzzOptimize(f *testing.F) {
	for seed := int64(1); seed <= 10; seed++ {
		f.Add(seed, 0.6, 0.9)
	}
	f.Add(int64(3), 1.2, 0.5)  // infeasible target
	f.Add(int64(4), 0.05, 0.4) // tiny target
	f.Fuzz(func(t *testing.T, seed int64, targetFrac, deadlineFrac float64) {
		lt, sig, opts, ok := fuzzInstance(seed, targetFrac, deadlineFrac)
		if !ok {
			t.Skip()
		}
		// (0) Exact agreement with the scan reference and the greedy's
		// cost, and (4) the price certificate.
		var sol solution
		var solver Solver
		bumpy := bumpyTable(rand.New(rand.NewSource(seed)), 40+seed&31, 2+int(seed&7))
		for _, table := range []*frontier.LookupTable{lt, bumpy} {
			checkAgainstScan(t, &sol, table, sig, opts)
			p, err := solver.Optimize(table, sig, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := greedyDecisions(&solver, table, sig, opts, p); err != nil {
				t.Fatal(err)
			}
			checkPrice(t, table, sig, opts, p)
			// (6) the runs and their expansion.
			checkRuns(t, p, sig)
			checkExpansion(t, table, sig, p, referenceOptimize(t, table, sig, opts))
			for _, point := range []int{0, len(table.Points) - 1} {
				base, err := Fixed(table, point, sig, opts)
				if err != nil {
					t.Fatal(err)
				}
				checkRuns(t, base, sig)
				checkExpansion(t, table, sig, base, referenceFixed(t, table, point, sig, opts))
			}
		}

		plan, err := Optimize(lt, sig, opts)
		if err != nil {
			t.Fatalf("optimize failed on valid instance: %v", err)
		}

		// (1) Feasibility decided correctly.
		var maxCover float64
		for _, iv := range sig.Truncate(opts.DeadlineS).Intervals {
			lo := 0
			if iv.CapW > 0 {
				lo = lt.FirstUnderPower(iv.CapW / opts.PowerScale)
			}
			if lo >= 0 {
				maxCover += iv.Duration() / lt.PointTime(lo)
			}
		}
		wantFeasible := maxCover >= opts.Target-1e-9
		if plan.Feasible != wantFeasible {
			t.Fatalf("feasible=%v, want %v (target %v, max coverage %v)",
				plan.Feasible, wantFeasible, opts.Target, maxCover)
		}
		if plan.Feasible {
			if plan.Iterations < opts.Target-1e-6*(1+opts.Target) {
				t.Fatalf("feasible plan covers %v < target %v", plan.Iterations, opts.Target)
			}
			if plan.FinishS < 0 || plan.FinishS > plan.DeadlineS+1e-9 {
				t.Fatalf("finish %v outside [0, deadline %v]", plan.FinishS, plan.DeadlineS)
			}
		} else if plan.FinishS != -1 {
			t.Fatalf("infeasible plan finish %v, want -1", plan.FinishS)
		}

		// (2) + (3) per-interval invariants.
		var totalIter, totalEnergy, totalCarbon, totalCost float64
		for ip := range plan.Intervals(lt, sig) {
			iv := sig.Intervals[ip.Index]
			var run, energy, iters float64
			for _, sl := range ip.Slices {
				if sl.Point < 0 || sl.Point >= len(lt.Points) {
					t.Fatalf("interval %d slice point %d out of range", ip.Index, sl.Point)
				}
				if sl.Seconds < -1e-9 {
					t.Fatalf("interval %d negative slice %v", ip.Index, sl.Seconds)
				}
				if iv.CapW > 0 && opts.PowerScale*lt.AvgPower(sl.Point) > iv.CapW+1e-9 {
					t.Fatalf("interval %d runs point %d above cap %v W", ip.Index, sl.Point, iv.CapW)
				}
				run += sl.Seconds
				energy += sl.Seconds * opts.PowerScale * lt.AvgPower(sl.Point)
				iters += sl.Seconds / lt.PointTime(sl.Point)
			}
			dur := ip.EndS - ip.StartS
			if run > dur+1e-6*(1+dur) {
				t.Fatalf("interval %d runs %v s in a %v s window", ip.Index, run, dur)
			}
			if math.Abs(ip.IdleS-(dur-run)) > 1e-6*(1+dur) {
				t.Fatalf("interval %d idle %v, want %v", ip.Index, ip.IdleS, dur-run)
			}
			if math.Abs(ip.EnergyJ-energy) > 1e-6*(1+energy) {
				t.Fatalf("interval %d energy %v, want %v", ip.Index, ip.EnergyJ, energy)
			}
			wantCarbon := energy / JoulesPerKWh * iv.CarbonGPerKWh
			if math.Abs(ip.CarbonG-wantCarbon) > 1e-6*(1+wantCarbon) {
				t.Fatalf("interval %d carbon %v, want %v", ip.Index, ip.CarbonG, wantCarbon)
			}
			totalIter += iters
			totalEnergy += ip.EnergyJ
			totalCarbon += ip.CarbonG
			totalCost += ip.CostUSD
		}
		if math.Abs(totalIter-plan.Iterations) > 1e-6*(1+plan.Iterations) ||
			math.Abs(totalEnergy-plan.EnergyJ) > 1e-6*(1+plan.EnergyJ) ||
			math.Abs(totalCarbon-plan.CarbonG) > 1e-6*(1+plan.CarbonG) ||
			math.Abs(totalCost-plan.CostUSD) > 1e-6*(1+plan.CostUSD) {
			t.Fatalf("totals do not add up: %+v", plan)
		}

		// (5) never above a feasible Fixed baseline. Fixed ignores
		// interval caps (it models a signal-blind operator), so the
		// comparison only binds when the baseline's point fits under
		// every cap in the planning window — otherwise the baseline has
		// freedom the planner is denied.
		if plan.Feasible {
			for _, point := range []int{0, len(lt.Points) - 1} {
				capped := false
				for _, iv := range sig.Truncate(opts.DeadlineS).Intervals {
					if iv.CapW > 0 && opts.PowerScale*lt.AvgPower(point) > iv.CapW {
						capped = true
					}
				}
				if capped {
					continue
				}
				base, err := Fixed(lt, point, sig, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !base.Feasible {
					continue
				}
				got, want := planCost(plan), planCost(base)
				if got > want+1e-6*(1+want) {
					t.Fatalf("plan %s %v above fixed-point-%d baseline %v",
						plan.Objective, got, point, want)
				}
			}
		}
	})
}
