package region

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"perseus/internal/grid"
	pln "perseus/internal/plan"
)

// FuzzPlan fuzzes the joint spatio-temporal planner on random
// instances (reusing the brute-force test's generator) and asserts its
// structural invariants, matching internal/grid's FuzzOptimize:
//
//  1. GPU feasibility per (region, cell): the jobs placed in a region
//     during a cell never exceed its capacity;
//  2. slices only run where the job is placed — paused cells and
//     migration-downtime spans never execute work;
//  3. accounting identities: each job's totals equal its temporal plan
//     plus its migration charges, migration counts match the marked
//     arrival cells, and the plan totals are the per-job sums;
//  4. on capacity-unconstrained instances the planner is never worse
//     than BestFixed — every single-region placement is one of its
//     descent starts, so losing to one would break the construction;
//  5. the plan is the reference planner's (memo dropped before every
//     use, every order run, nothing pruned), bit for bit — on the
//     instance as drawn, again with power caps drawn onto it, where a
//     memo entry can go stale, again with origins, deadlines inside a
//     cell and long downtime drawn on top, and again with a transfer in
//     flight at the start (memo_test.go);
//  6. each job's Temporal plan is grid.Optimize's over its Signal, and
//     its runs expand over that signal to intervals whose accounting,
//     summed in order, is the plan's totals bit for bit;
//  7. with a transfer in flight, no job runs before it ends.
func FuzzPlan(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(seed%3), uint8(seed%2), uint8(seed%3), seed%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, nr, nj, nc uint8, contended bool) {
		rng := rand.New(rand.NewSource(seed))
		nRegions := 2 + int(nr)%2
		nJobs := 1 + int(nj)%2
		nCells := 2 + int(nc)%3
		capacity := 0
		if contended {
			capacity = 1
		}
		inst := randomBruteInstance(rng, nRegions, nJobs, nCells, capacity)
		plan, err := Optimize(inst.regions, inst.jobs, inst.opts)
		if err != nil {
			t.Fatalf("optimize failed on valid instance: %v", err)
		}

		// (1) GPU feasibility per (region, cell).
		for k := range plan.Cells {
			used := make([]int, len(inst.regions))
			for ji, jp := range plan.Jobs {
				if r := jp.Assignments[k].Region; r >= 0 {
					used[r] += inst.jobs[ji].gpus()
				}
			}
			for r := range inst.regions {
				if cap := inst.regions[r].GPUs; cap > 0 && used[r] > cap {
					t.Fatalf("cell %d region %s: %d GPUs used, capacity %d", k, inst.regions[r].Name, used[r], cap)
				}
			}
		}

		var sumEnergy, sumCarbon, sumCost float64
		for ji, jp := range plan.Jobs {
			// (6) the temporal plan and its expansion.
			j := &inst.jobs[ji]
			again, err := grid.Optimize(j.Table, jp.Signal, grid.Options{
				Target: j.Target, DeadlineS: j.DeadlineS, Objective: plan.Objective, PowerScale: j.scale(),
			})
			if err != nil || !reflect.DeepEqual(again, jp.Temporal) {
				t.Fatalf("job %s: Temporal is not grid.Optimize over its Signal (err %v)", jp.JobID, err)
			}
			var sum pln.Account
			var iters float64
			for ip := range jp.Temporal.Intervals(j.Table, jp.Signal) {
				iters += ip.Iterations
				sum.Accumulate(ip.Account)
			}
			if iters != jp.Temporal.Iterations || sum != jp.Temporal.Account {
				t.Fatalf("job %s: expansion sums to %v / %+v, plan %v / %+v", jp.JobID, iters, sum, jp.Temporal.Iterations, jp.Temporal.Account)
			}

			// (2) slices only run in placed cells, outside downtime.
			arrivalDowntime := map[int]float64{} // cell -> downtime end
			for _, a := range jp.Assignments {
				if a.Migrate {
					arrivalDowntime[a.Cell] = a.StartS + inst.opts.Migration.DowntimeS
				}
			}
			cellAt := func(t float64) *Assignment {
				for i := range jp.Assignments {
					a := &jp.Assignments[i]
					if t >= a.StartS-1e-9 && t < a.EndS-1e-9 {
						return a
					}
				}
				return nil
			}
			for ip := range jp.Temporal.Intervals(inst.jobs[ji].Table, jp.Signal) {
				run := 0.0
				for _, sl := range ip.Slices {
					run += sl.Seconds
				}
				if run <= 1e-9 {
					continue
				}
				a := cellAt(ip.StartS)
				if a == nil || a.Region < 0 {
					t.Fatalf("job %s runs %v s at t=%v outside any placed cell", jp.JobID, run, ip.StartS)
				}
				// Slices run back-to-back from the interval start, so an
				// interval overlapping a downtime prefix must not start
				// inside it.
				if end, ok := arrivalDowntime[a.Cell]; ok && ip.StartS < end-1e-9 && run > 1e-9 {
					t.Fatalf("job %s runs during migration downtime [%v, %v) at t=%v",
						jp.JobID, a.StartS, end, ip.StartS)
				}
			}

			// (3) accounting identities.
			if jp.Migrations != len(migrations(Paused, placementOf(jp))) {
				t.Fatalf("job %s migration count %d does not match its placement", jp.JobID, jp.Migrations)
			}
			marked := 0
			for _, a := range jp.Assignments {
				if a.Migrate {
					marked++
				}
			}
			if marked != jp.Migrations {
				t.Fatalf("job %s marks %d arrival cells but counts %d migrations", jp.JobID, marked, jp.Migrations)
			}
			if math.Abs(jp.EnergyJ-(jp.Temporal.EnergyJ+jp.MigrationEnergyJ)) > 1e-6*(1+jp.EnergyJ) ||
				math.Abs(jp.CarbonG-(jp.Temporal.CarbonG+jp.MigrationCarbonG)) > 1e-6*(1+jp.CarbonG) ||
				math.Abs(jp.CostUSD-(jp.Temporal.CostUSD+jp.MigrationCostUSD)) > 1e-9*(1+jp.CostUSD) {
				t.Fatalf("job %s totals do not decompose into temporal + migration: %+v", jp.JobID, jp)
			}
			if want := float64(jp.Migrations) * inst.opts.Migration.DowntimeS; math.Abs(jp.MigrationDowntimeS-want) > 1e-9 {
				t.Fatalf("job %s downtime %v, want %v", jp.JobID, jp.MigrationDowntimeS, want)
			}
			sumEnergy += jp.EnergyJ
			sumCarbon += jp.CarbonG
			sumCost += jp.CostUSD
		}
		if math.Abs(sumEnergy-plan.EnergyJ) > 1e-6*(1+plan.EnergyJ) ||
			math.Abs(sumCarbon-plan.CarbonG) > 1e-6*(1+plan.CarbonG) ||
			math.Abs(sumCost-plan.CostUSD) > 1e-9*(1+plan.CostUSD) {
			t.Fatalf("plan totals are not the per-job sums")
		}

		// (4) never worse than BestFixed on uncontended instances.
		if capacity == 0 && plan.Feasible {
			bestFixed, err := BestFixed(inst.regions, inst.jobs, inst.opts)
			if err != nil {
				t.Fatal(err)
			}
			if bestFixed.Feasible && plan.Total() > bestFixed.Total()+1e-6*(1+bestFixed.Total()) {
				t.Fatalf("planner %v above BestFixed %v", plan.Total(), bestFixed.Total())
			}
		}

		// (5) same plan as the reference planner: uncapped, capped, then
		// capped and moved.
		requireSamePlan(t, "as drawn", plan, optimizeReference(t, inst))
		withCaps(rng, &inst)
		capped, err := Optimize(inst.regions, inst.jobs, inst.opts)
		if err != nil {
			t.Fatalf("optimize failed on valid capped instance: %v", err)
		}
		requireSamePlan(t, "capped", capped, optimizeReference(t, inst))
		withMoves(rng, &inst)
		moved, err := Optimize(inst.regions, inst.jobs, inst.opts)
		if err != nil {
			t.Fatalf("optimize failed on valid moved instance: %v", err)
		}
		requireSamePlan(t, "capped and moved", moved, optimizeReference(t, inst))

		// (7) the transfer in flight, and (5) on it.
		withPause(rng, &inst)
		paused, err := Optimize(inst.regions, inst.jobs, inst.opts)
		if err != nil {
			t.Fatalf("optimize failed on valid paused instance: %v", err)
		}
		requireSamePlan(t, "capped, moved and paused", paused, optimizeReference(t, inst))
		for ji, jp := range paused.Jobs {
			j := &inst.jobs[ji]
			for ip := range jp.Temporal.Intervals(j.Table, jp.Signal) {
				if ip.StartS < j.PausedUntilS && ip.Iterations != 0 {
					t.Fatalf("job %s runs %v iterations at %v, inside its pause until %v", jp.JobID, ip.Iterations, ip.StartS, j.PausedUntilS)
				}
			}
		}
	})
}

// placementOf reconstructs a job's placement sequence from its
// assignments.
func placementOf(jp JobPlan) []int {
	out := make([]int, len(jp.Assignments))
	for i, a := range jp.Assignments {
		out[i] = a.Region
	}
	return out
}
