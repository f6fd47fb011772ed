package region

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"perseus/internal/grid"
)

// optimizeReference is Optimize on the reference planner: every memo
// is dropped before each use — each descent starts empty, each
// incumbent and swap lookup is solved against the usage in force — and
// every job order is run. It is what the planner did before the memo
// outlived a descent, and it cannot read a stale entry because it never
// reads an old one.
func optimizeReference(t testing.TB, inst bruteInstance) *Plan {
	t.Helper()
	p, err := newPlanner(inst.regions, inst.jobs, inst.opts)
	if err != nil {
		t.Fatal(err)
	}
	p.resetPerDescent = true
	plan, err := p.solveAll(inst.jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// requireSamePlan compares two joint plans assignment for assignment
// and Account for Account, bit for bit.
func requireSamePlan(t testing.TB, what string, got, want *Plan) {
	t.Helper()
	if got.Account != want.Account || got.Feasible != want.Feasible {
		t.Fatalf("%s: totals %+v feasible=%v, reference %+v feasible=%v",
			what, got.Account, got.Feasible, want.Account, want.Feasible)
	}
	for i := range want.Jobs {
		g, w := got.Jobs[i], want.Jobs[i]
		if !slices.Equal(g.Assignments, w.Assignments) {
			t.Fatalf("%s: job %s placed %v, reference %v", what, w.JobID, placementOf(g), placementOf(w))
		}
		if g.Account != w.Account || g.Feasible != w.Feasible || g.Temporal.Iterations != w.Temporal.Iterations {
			t.Fatalf("%s: job %s totals %+v, reference %+v", what, w.JobID, g.Account, w.Account)
		}
	}
}

// withCaps draws power caps onto a brute instance: each region gets a
// facility cap with probability 1/2 and each interval its own with
// probability 1/3, sized between half of and two and a half times the
// first job's peak draw — so that some caps never bind, some squeeze a
// second job onto slower points, and some leave it only idling. (Kept
// apart from randomBruteInstance: the brute-force tests enumerate
// cap-free instances, and their seeds must keep drawing the same ones.)
func withCaps(rng *rand.Rand, inst *bruteInstance) {
	peak := inst.jobs[0].scale() * inst.jobs[0].Table.AvgPower(0)
	draw := func() float64 { return peak * (0.5 + 2*rng.Float64()) }
	for r := range inst.regions {
		if rng.Intn(2) == 0 {
			inst.regions[r].CapW = draw()
		}
		ivs := inst.regions[r].Signal.Intervals
		for k := range ivs {
			if rng.Intn(3) == 0 {
				ivs[k].CapW = draw()
			}
		}
	}
}

// withMoves draws onto a brute instance what a rolling re-plan's
// placements meet when compiled: each job already runs in a random
// region (Origin) with probability 1/2 and is due inside one of the
// last two cells with probability 1/2, and a migration's downtime is
// anything up to two and a half cells, so it can spill across cells
// and past a deadline. (Kept apart from randomBruteInstance, like
// withCaps, so the brute-force seeds keep drawing the same instances.)
func withMoves(rng *rand.Rand, inst *bruteInstance) {
	ivs := inst.regions[0].Signal.Intervals
	cellS := ivs[0].Duration()
	for i := range inst.jobs {
		if rng.Intn(2) == 0 {
			inst.jobs[i].Origin = inst.regions[rng.Intn(len(inst.regions))].Name
		}
		if rng.Intn(2) == 0 {
			k := len(ivs) - 1 - rng.Intn(min(2, len(ivs)-1))
			inst.jobs[i].DeadlineS = (float64(k) + 0.1 + 0.8*rng.Float64()) * cellS
		}
	}
	inst.opts.Migration.DowntimeS = 2.5 * cellS * rng.Float64()
}

// withPause draws onto a brute instance the transfer a rolling re-plan
// inherits from the plan before it: every job is paused from the start
// for a random part of the migration downtime, the most a transfer
// begun before the window can have left. (Kept apart from
// randomBruteInstance, like withCaps.)
func withPause(rng *rand.Rand, inst *bruteInstance) {
	for i := range inst.jobs {
		inst.jobs[i].PausedUntilS = inst.opts.Migration.DowntimeS * rng.Float64()
	}
}

// TestMemoMatchesResetPerDescent is the differential test that licenses
// keeping the memo for the whole solve, skipping replayed orders and
// pruning by the Lagrangian bound: over the brute-force test's shapes —
// uncontended, capacity-1 contended, one to three jobs — with and
// without power caps, and with and without origins, deadlines inside a
// cell and long downtime (withMoves), Optimize returns exactly the
// reference planner's plan. The capped half is the part that exercises
// cap-view invalidation: there an outcome depends on what the others
// draw, and a memo that missed a view change would answer with another
// usage's cost. The moved half walks every branch of the bound's
// compile walk.
func TestMemoMatchesResetPerDescent(t *testing.T) {
	shapes := []struct{ regions, jobs, cells, capacity int }{
		{2, 1, 4, 0}, {3, 1, 4, 0},
		{2, 2, 3, 0}, {3, 3, 3, 0},
		{2, 2, 3, 1}, {2, 3, 2, 1}, {3, 2, 3, 1}, {3, 3, 4, 2},
	}
	instances, capped, moved, resets, pruned := 0, 0, 0, 0, 0
	for _, sh := range shapes {
		for seed := int64(1); seed <= 36; seed++ {
			for _, caps := range []bool{false, true} {
				for _, moves := range []bool{false, true} {
					rng := rand.New(rand.NewSource(seed*1000 + int64(sh.regions*100+sh.jobs*10+sh.cells)))
					inst := randomBruteInstance(rng, sh.regions, sh.jobs, sh.cells, sh.capacity)
					if caps {
						withCaps(rng, &inst)
						capped++
					}
					if moves {
						withMoves(rng, &inst)
						moved++
					}
					got, err := Optimize(inst.regions, inst.jobs, inst.opts)
					if err != nil {
						t.Fatal(err)
					}
					requireSamePlan(t, "memo vs reset-per-descent", got, optimizeReference(t, inst))
					if !caps && got.Stats.MemoResets != 0 {
						t.Fatalf("shape %+v seed %d: %d memo resets with no cap to invalidate a view", sh, seed, got.Stats.MemoResets)
					}
					resets += got.Stats.MemoResets
					pruned += got.Stats.Pruned
					instances++
				}
			}
		}
	}
	if instances < 1000 || capped < 500 || moved < 500 {
		t.Fatalf("compared %d instances (%d capped, %d moved), want at least 1000 (500, 500)", instances, capped, moved)
	}
	if resets == 0 {
		t.Fatal("no capped instance ever changed a cap view: invalidation went untested")
	}
	if pruned == 0 {
		t.Fatal("the bound never pruned a candidate: pruning went untested")
	}
}

// twoCells builds a flat two-cell signal (two cells so swaps have
// ranges to exchange).
func twoCells(name string, carbon float64) *grid.Signal {
	return &grid.Signal{Name: name, Intervals: []grid.Interval{
		{StartS: 0, EndS: 1800, CarbonGPerKWh: carbon, PriceUSDPerKWh: 0.1},
		{StartS: 1800, EndS: 3600, CarbonGPerKWh: carbon, PriceUSDPerKWh: 0.1},
	}}
}

// TestStaleMemoEntryWouldMisplace is the hand-built case behind the cap
// view: a clean region whose cap feeds one job but not two, a dirty
// uncapped one, and two identical jobs. Planned alone, job a takes the
// clean region and its memo says so. Once b is committed there, what is
// left of the cap is below a's slowest point: the same placement now
// only idles. The memo's answer from before — feasible and cheap — is
// strictly better than anything a can really get, so a planner that
// read it would keep a in the clean region and miss its target.
func TestStaleMemoEntryWouldMisplace(t *testing.T) {
	lt := convexTable(0.01, 80, 110, 3000, 120)
	inst := bruteInstance{
		regions: []Region{
			{Name: "clean", Signal: twoCells("clean", 50), CapW: 1.2 * lt.AvgPower(0)},
			{Name: "dirty", Signal: twoCells("dirty", 500)},
		},
		jobs: []Job{
			{ID: "a", Table: lt, Target: 0.7 * 3600 / lt.TStar()},
			{ID: "b", Table: lt, Target: 0.7 * 3600 / lt.TStar()},
		},
	}
	p := emptyPlanner(t, inst)
	p.memos = make([]jobMemo, 2)
	a, b := &inst.jobs[0], &inst.jobs[1]

	alone, err := p.desc.planJob(p, 0, a)
	if err != nil {
		t.Fatal(err)
	}
	if !alone.feasible || !slices.Equal(alone.placement, []int{0, 0}) {
		t.Fatalf("alone, a should take the clean region: %+v", alone)
	}
	evB, err := p.desc.planJob(p, 1, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.commit(b, evB); err != nil {
		t.Fatal(err)
	}
	if evB.plan == nil {
		t.Fatal("a commit at a capped cell must build the plan whose power it records")
	}

	beside, err := p.desc.planJob(p, 0, a)
	if err != nil {
		t.Fatal(err)
	}
	if p.stats.MemoResets != 1 {
		t.Fatalf("b's draw changed a's cap view: want 1 memo reset, got %d", p.stats.MemoResets)
	}
	if !beside.feasible || !slices.Equal(beside.placement, []int{1, 1}) {
		t.Fatalf("beside b, a should take the dirty region: %+v", beside)
	}
	if !betterOutcome(alone.outcome, beside.outcome, true) {
		t.Fatal("the stale outcome should look better than a's real best — otherwise reading it would be harmless")
	}
	fresh, err := p.lookup(0, a, alone.placement)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.feasible {
		t.Fatalf("beside b the clean region cannot feed a, yet its lookup reads %+v", fresh)
	}

	got, err := Optimize(inst.regions, inst.jobs, inst.opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSamePlan(t, "capped pair", got, optimizeReference(t, inst))
	if !got.Feasible || got.Jobs[0].Assignments[0].Region == got.Jobs[1].Assignments[0].Region {
		t.Fatalf("the pair should split across the regions and both finish: %+v", got.Jobs)
	}
}

// benchShapedCase mirrors the root package's benchRegionCase: the
// bundled phase-shifted pair sized so every job fits either region (so
// nothing binds), n distinct 8-GPU jobs, migration friction. Odd jobs
// are due at three quarters of the day, so placements differ and swaps
// have something to exchange.
func benchShapedCase(n int) bruteInstance {
	inst := bruteInstance{
		regions: PhaseShiftedPair(8 * n),
		opts:    Options{Migration: MigrationCost{DowntimeS: 600, EnergyJ: 5e6}},
	}
	for i := 0; i < n; i++ {
		lt := convexTable(0.01, int64(70+5*i), int64(100+5*i), 3000+200*float64(i), 120+10*float64(i))
		horizon := inst.regions[0].Signal.Horizon()
		inst.jobs = append(inst.jobs, Job{
			ID: string(rune('a' + i)), Table: lt, GPUs: 8,
			Target: 0.4 * horizon / lt.TStar(), DeadlineS: float64(i%2) * 0.75 * horizon,
		})
	}
	return inst
}

// seedsOf turns a plan into the next solve's warm-start seeds, as the
// MPC loop does tick to tick.
func seedsOf(p *Plan) map[string][]SeedSpan {
	seeds := map[string][]SeedSpan{}
	for _, jp := range p.Jobs {
		for _, a := range jp.Assignments {
			name := ""
			if a.Region >= 0 {
				name = p.Regions[a.Region]
			}
			seeds[jp.JobID] = append(seeds[jp.JobID], SeedSpan{StartS: a.StartS, EndS: a.EndS, Region: name})
		}
	}
	return seeds
}

// TestStatsCounts pins, in counts rather than milliseconds, what the
// solve-long memo, the warm start and the Lagrangian bound buy on a
// benchRegionCase(4)-shaped instance: the counts do not depend on
// GOMAXPROCS, a seeded solve runs strictly fewer inner solves than the
// cold solve that seeded it, an n-job solve in which nothing binds runs
// no more inner solves than its n jobs solved alone plus whatever the
// swaps missed, temporal plans are built for winners only, and the
// bound prunes most moves.
func TestStatsCounts(t *testing.T) {
	inst := benchShapedCase(4)
	cold, err := Optimize(inst.regions, inst.jobs, inst.opts)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		p, err := Optimize(inst.regions, inst.jobs, inst.opts)
		if err != nil {
			t.Fatal(err)
		}
		if p.Stats != cold.Stats {
			t.Fatalf("GOMAXPROCS %d counts %+v, default %+v", procs, p.Stats, cold.Stats)
		}
	}

	opts := inst.opts
	opts.Seeds = seedsOf(cold)
	seeded, err := Optimize(inst.regions, inst.jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Total() > cold.Total() {
		t.Fatalf("seeded solve %v worse than its seed %v", seeded.Total(), cold.Total())
	}
	if seeded.Stats.InnerSolves >= cold.Stats.InnerSolves {
		t.Fatalf("seeded solve ran %d inner solves, the cold solve that seeded it %d",
			seeded.Stats.InnerSolves, cold.Stats.InnerSolves)
	}

	alone := 0
	for i := range inst.jobs {
		p, err := Optimize(inst.regions, inst.jobs[i:i+1], inst.opts)
		if err != nil {
			t.Fatal(err)
		}
		alone += p.Stats.InnerSolves
	}
	s := cold.Stats
	if s.InnerSolves > alone+s.SwapSolves {
		t.Fatalf("%d inner solves for 4 jobs; solved alone they take %d, swaps missed %d", s.InnerSolves, alone, s.SwapSolves)
	}
	if s.Materialized > 2*len(inst.jobs) {
		t.Fatalf("%d plans materialized for %d jobs", s.Materialized, len(inst.jobs))
	}
	if s.MemoResets != 0 || s.MemoHits() <= s.InnerSolves || s.SwapsTried == 0 {
		t.Fatalf("uncapped 4-job solve should never reset, mostly hit, and try swaps: %+v", s)
	}
	// The Lagrangian bound rules out most moves before they are solved
	// (2,980 inner solves without it).
	if s.Pruned == 0 || s.InnerSolves > 400 {
		t.Fatalf("the bound should prune and keep the cold solve to 400 inner solves: %+v", s)
	}
	t.Logf("cold %+v", cold.Stats)
	t.Logf("seeded %+v", seeded.Stats)
}

// TestOrderSkipIsExact pins the argument on planner.binds: where
// nothing binds every job order replays the first evaluation for
// evaluation, so running one is exact, and a Gauss-Seidel round right
// after the first pass moves nothing, so skipping it is exact; where
// capacity does bind every order still runs.
func TestOrderSkipIsExact(t *testing.T) {
	inst := benchShapedCase(4)
	var first []*eval
	for _, order := range orders(len(inst.jobs), true) {
		p, err := newPlanner(inst.regions, inst.jobs, inst.opts)
		if err != nil {
			t.Fatal(err)
		}
		if p.binds(inst.jobs) {
			t.Fatal("every job fits every region and nothing is capped: nothing binds")
		}
		p.memos = make([]jobMemo, len(inst.jobs))
		evals, err := p.runOrder(inst.jobs, order, nil)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = evals
			continue
		}
		for i := range evals {
			if !slices.Equal(evals[i].placement, first[i].placement) || evals[i].outcome != first[i].outcome {
				t.Fatalf("order %v: job %d ends at %v %+v, identity order %v %+v", order, i,
					evals[i].placement, evals[i].outcome, first[i].placement, first[i].outcome)
			}
		}
	}
	plan, err := Optimize(inst.regions, inst.jobs, inst.opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stats.Orders != 1 {
		t.Fatalf("non-binding solve ran %d orders", plan.Stats.Orders)
	}

	requireStillRound(t, "bench-shaped", inst)
	infeasible := 0
	for _, sh := range [][3]int{{2, 2, 3}, {3, 3, 3}, {2, 4, 4}} {
		for seed := int64(1); seed <= 30; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(sh[0]*100+sh[1]*10+sh[2])))
			free := randomBruteInstance(rng, sh[0], sh[1], sh[2], 0)
			withMoves(rng, &free)
			infeasible += requireStillRound(t, fmt.Sprintf("shape %v seed %d", sh, seed), free)
		}
	}
	if infeasible == 0 {
		t.Fatal("no job ended infeasible: the coverage comparison went untested")
	}

	// One GPU short of seating everyone in one region: orders matter.
	tight := benchShapedCase(4)
	for r := range tight.regions {
		tight.regions[r].GPUs = 8*4 - 1
	}
	plan, err = Optimize(tight.regions, tight.jobs, tight.opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(orders(4, true)); plan.Stats.Orders != want {
		t.Fatalf("binding solve ran %d of %d orders", plan.Stats.Orders, want)
	}
	rng := rand.New(rand.NewSource(7))
	contended := randomBruteInstance(rng, 2, 3, 2, 1)
	plan, err = Optimize(contended.regions, contended.jobs, contended.opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(orders(3, true)); plan.Stats.Orders != want {
		t.Fatalf("capacity-1 solve ran %d of %d orders", plan.Stats.Orders, want)
	}
}

// requireStillRound plans inst's first pass in input order, as runOrder
// does where nothing binds, runs one Gauss-Seidel round over it, and
// requires the round to report no improvement and to leave every job's
// placement and outcome as they were. It returns how many of the jobs
// are infeasible.
func requireStillRound(t *testing.T, what string, inst bruteInstance) int {
	t.Helper()
	p, err := newPlanner(inst.regions, inst.jobs, inst.opts)
	if err != nil {
		t.Fatal(err)
	}
	if !p.independent(inst.jobs) {
		t.Fatalf("%s: the instance binds", what)
	}
	p.memos = make([]jobMemo, len(inst.jobs))
	order := orders(len(inst.jobs), true)[0]
	evals, err := p.firstPass(inst.jobs, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := slices.Clone(evals)
	improved, err := p.gaussSeidel(inst.jobs, order, evals)
	if err != nil {
		t.Fatal(err)
	}
	if improved {
		t.Fatalf("%s: a Gauss-Seidel round after the first pass improved a job", what)
	}
	infeasible := 0
	for i, ev := range evals {
		if !slices.Equal(ev.placement, first[i].placement) || ev.outcome != first[i].outcome {
			t.Fatalf("%s: job %d moved from %v %+v to %v %+v", what, i,
				first[i].placement, first[i].outcome, ev.placement, ev.outcome)
		}
		if !ev.feasible {
			infeasible++
		}
	}
	return infeasible
}
