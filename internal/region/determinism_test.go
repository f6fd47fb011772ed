package region

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// TestOptimizeDeterministicAcrossWorkers pins the fan-out's contract:
// where nothing binds, the jobs' first descents run on up to GOMAXPROCS
// goroutines, and the plan and its work counts are the same, bit for
// bit, however many there are. Run under -race it also exercises the
// fan-out for data races.
func TestOptimizeDeterministicAcrossWorkers(t *testing.T) {
	ltA := convexTable(0.01, 80, 110, 3000, 120)
	ltB := convexTable(0.012, 70, 100, 3200, 140)
	pair := bruteInstance{
		regions: PhaseShiftedPair(16),
		jobs: []Job{
			{ID: "a", Table: ltA, GPUs: 8, Target: math.Floor(0.5 * 86400 / ltA.TStar())},
			{ID: "b", Table: ltB, GPUs: 8, Target: math.Floor(0.4 * 86400 / ltB.TStar())},
		},
		opts: Options{Migration: MigrationCost{DowntimeS: 600, EnergyJ: 5e6}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		name string
		inst bruteInstance
	}{{"jobs-8", benchShapedCase(8)}, {"pair", pair}} {
		p, err := newPlanner(c.inst.regions, c.inst.jobs, c.inst.opts)
		if err != nil {
			t.Fatal(err)
		}
		if !p.independent(c.inst.jobs) {
			t.Fatalf("%s binds: its descents would not fan out", c.name)
		}
		var first *Plan
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			plan, err := Optimize(c.inst.regions, c.inst.jobs, c.inst.opts)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = plan
				continue
			}
			requireSamePlan(t, fmt.Sprintf("%s at GOMAXPROCS %d", c.name, procs), plan, first)
			if plan.Stats != first.Stats {
				t.Fatalf("%s at GOMAXPROCS %d counts %+v, at 1 %+v", c.name, procs, plan.Stats, first.Stats)
			}
		}
	}
}
