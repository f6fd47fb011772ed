package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"perseus/internal/frontier"
)

// convexTable hand-builds a lookup table whose energy curve is
// E(t) = a + b/t on a unit grid from tmin to tstar units: average power
// P(t) = a/t + b/t² is strictly decreasing and convex in t, so the
// per-step watts-saved-per-second slopes are non-increasing — the
// convexity premise of the allocator's optimality claim.
func convexTable(unit float64, tminU, tstarU int64, a, b float64) *frontier.LookupTable {
	lt := &frontier.LookupTable{Unit: unit, TminUnits: tminU, TStarUnits: tstarU}
	for u := tminU; u <= tstarU; u++ {
		t := float64(u) * unit
		lt.Points = append(lt.Points, frontier.TablePoint{
			TimeUnits: u,
			Energy:    a + b/t,
		})
	}
	return lt
}

// lossOf computes the weighted relative slowdown of job j at point idx.
func lossOf(j *Job, idx int) float64 {
	ft := j.Table.PointTime(j.floorIndex())
	return j.weight() * (j.Table.PointTime(idx) - ft) / ft
}

// powerOf computes job j's scaled power at point idx.
func powerOf(j *Job, idx int) float64 {
	return float64(j.pipelines()) * j.Table.AvgPower(idx)
}

// bruteForce enumerates every combination of operating points at or
// above each job's floor and returns the minimum total loss meeting the
// cap, or ok=false when no combination does.
func bruteForce(jobs []Job, capW float64) (bestLoss float64, ok bool) {
	bestLoss = math.Inf(1)
	idx := make([]int, len(jobs))
	for i := range jobs {
		idx[i] = jobs[i].floorIndex()
	}
	// The cap comparison carries a relative tolerance: summing powers in
	// a different order than the allocator's sequential descent differs
	// by a few ULPs, which must not exclude the boundary combination.
	slack := 1e-12 * (1 + math.Abs(capW))
	var walk func(i int, power, loss float64)
	walk = func(i int, power, loss float64) {
		if i == len(jobs) {
			if power <= capW+slack && loss < bestLoss {
				bestLoss, ok = loss, true
			}
			return
		}
		j := &jobs[i]
		for p := j.floorIndex(); p < len(j.Table.Points); p++ {
			walk(i+1, power+powerOf(j, p), loss+lossOf(j, p))
		}
	}
	walk(0, 0, 0)
	return bestLoss, ok
}

// hullWalk lists the fleet draws at the breakpoints of the allocator's
// hull walk — every job's power-hull segments from its floor, sorted
// steepest watts-saved-per-loss first, each draw summed directly at the
// state after one more whole segment — and the largest segment loss.
// It sorts where Allocate keeps a heap, so ties may order differently;
// every state it lists is still a breakpoint.
func hullWalk(jobs []Job) (caps []float64, maxSegLoss float64) {
	type seg struct {
		job, to     int
		slope, loss float64
	}
	var segs []seg
	cur := make([]int, len(jobs))
	for i := range jobs {
		j := &jobs[i]
		cur[i] = j.floorIndex()
		h := j.Table.PowerHullFrom(cur[i])
		for k := 1; k < len(h); k++ {
			loss := lossOf(j, h[k]) - lossOf(j, h[k-1])
			dp := powerOf(j, h[k-1]) - powerOf(j, h[k])
			segs = append(segs, seg{job: i, to: h[k], slope: dp / loss, loss: loss})
			maxSegLoss = max(maxSegLoss, loss)
		}
	}
	sort.SliceStable(segs, func(a, b int) bool { return segs[a].slope > segs[b].slope })
	for _, sg := range segs {
		cur[sg.job] = sg.to
		var p float64
		for i := range jobs {
			p += powerOf(&jobs[i], cur[i])
		}
		// The allocator's running draw may round a few ULPs above the
		// direct sum; the slack keeps it from taking one more step.
		caps = append(caps, p*(1+1e-12))
	}
	return caps, maxSegLoss
}

// TestAllocateOptimalConvex is the proof-style optimality check of the
// acceptance criteria: for a 3-job fleet with convex frontiers, the
// hull-walk allocation's total throughput loss matches brute-force
// enumeration over all frontier-point combinations at every hull
// breakpoint, with a certified gap of zero there, and for caps between
// breakpoints LossBound ≤ optimum ≤ Loss with Loss − LossBound at most
// one hull segment's loss — the guarantees Allocate documents.
func TestAllocateOptimalConvex(t *testing.T) {
	jobs := []Job{
		{ID: "a", Table: convexTable(0.01, 80, 95, 3000, 120), Pipelines: 1, Weight: 1},
		{ID: "b", Table: convexTable(0.01, 50, 67, 5000, 300), Pipelines: 2, Weight: 1},
		{ID: "c", Table: convexTable(0.01, 120, 139, 2000, 90), Pipelines: 1, Weight: 2},
	}
	checkAgainstBruteForce(t, jobs)
}

// TestAllocateOptimalConvexRandom repeats the brute-force comparison
// (exact with zero gap at every hull breakpoint, a certified gap of at
// most one hull segment's loss between them) on seeded random convex
// fleets, so the claim doesn't hinge on one lucky instance.
func TestAllocateOptimalConvexRandom(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var jobs []Job
		for i := 0; i < 3; i++ {
			tmin := int64(40 + rng.Intn(100))
			span := int64(8 + rng.Intn(10))
			a := 1000 + 4000*rng.Float64()
			b := 50 + 400*rng.Float64()
			jobs = append(jobs, Job{
				ID:        string(rune('a' + i)),
				Table:     convexTable(0.01, tmin, tmin+span, a, b),
				Pipelines: 1 + rng.Intn(3),
				Weight:    1 + rng.Float64(),
			})
		}
		checkAgainstBruteForce(t, jobs)
	}
}

// checkAgainstBruteForce holds Allocate to its documented guarantees
// by exhaustive enumeration: at every breakpoint of the hull walk the
// allocation's loss is the optimum and its certified gap is zero, and
// at caps between breakpoints LossBound ≤ optimum ≤ Loss with
// Loss − LossBound at most one hull segment's loss.
func checkAgainstBruteForce(t *testing.T, jobs []Job) {
	t.Helper()
	caps, maxSegLoss := hullWalk(jobs)
	if len(caps) == 0 {
		t.Fatal("degenerate fleet: no hull segments")
	}
	tol := func(v float64) float64 { return 1e-9 * (1 + math.Abs(v)) }

	for _, capW := range caps {
		got := Allocate(jobs, capW)
		want, feasible := bruteForce(jobs, capW)
		if !feasible || !got.Feasible {
			t.Fatalf("breakpoint cap %.3fW: unexpectedly infeasible", capW)
		}
		if got.PowerW > capW+tol(capW) {
			t.Fatalf("breakpoint cap %.3fW: allocation draws %v W over cap", capW, got.PowerW)
		}
		if math.Abs(got.Loss-want) > tol(want) {
			t.Fatalf("breakpoint cap %.3fW: greedy loss %.9f != brute-force optimum %.9f",
				capW, got.Loss, want)
		}
		if gap := got.Loss - got.LossBound; gap > tol(want) {
			t.Fatalf("breakpoint cap %.3fW: certified gap %v, want 0", capW, gap)
		}
	}

	lo, hi := caps[len(caps)-1], Allocate(jobs, 0).PowerW
	for i := 0; i <= 120; i++ {
		capW := lo*0.95 + (hi*1.02-lo*0.95)*float64(i)/120
		got := Allocate(jobs, capW)
		want, feasible := bruteForce(jobs, capW)
		if got.Feasible != feasible {
			t.Fatalf("cap %.3fW: feasible=%v, brute force %v", capW, got.Feasible, feasible)
		}
		if !feasible {
			// Infeasible: the allocator settles at fleet minimum power.
			if math.Abs(got.PowerW-lo) > 1e-9*lo || got.Price != -1 {
				t.Fatalf("cap %.3fW infeasible: power %v price %v, want fleet minimum %v and -1", capW, got.PowerW, got.Price, lo)
			}
			continue
		}
		if got.PowerW > capW+tol(capW) {
			t.Fatalf("cap %.3fW: allocation draws %v W over cap", capW, got.PowerW)
		}
		if got.Loss < want-tol(want) {
			t.Fatalf("cap %.3fW: greedy loss %.9f beats brute-force optimum %.9f — brute force is broken",
				capW, got.Loss, want)
		}
		if got.LossBound > want+tol(want) {
			t.Fatalf("cap %.3fW: loss bound %.9f above the optimum %.9f", capW, got.LossBound, want)
		}
		if got.Loss-got.LossBound > maxSegLoss+tol(maxSegLoss) {
			t.Fatalf("cap %.3fW: certified gap %.9f exceeds one hull segment (%.9f)",
				capW, got.Loss-got.LossBound, maxSegLoss)
		}
	}
}

// TestAllocateExactNonConvex runs the brute-force comparison on tables
// that are not convex, where only the hull walk is exact at its
// breakpoints: two characterized frontiers, healthy and with one job
// straggling (its floor off the hull), and seeded bumpy tables.
func TestAllocateExactNonConvex(t *testing.T) {
	a := buildSimJob(t, "a", 2, 3).Job
	b := buildSimJob(t, "b", 2, 4).Job
	b.Pipelines, b.Weight = 2, 1.5
	if h := a.Table.PowerHull(); len(h) == len(a.Table.Points) {
		t.Fatal("characterized table is convex")
	}
	t.Run("characterized", func(t *testing.T) { checkAgainstBruteForce(t, []Job{a, b}) })
	a.TPrime = 1.1 * a.Table.Tmin()
	if fi := a.floorIndex(); slices.Contains(a.Table.PowerHull(), fi) {
		t.Fatalf("straggler floor %d is a hull vertex", fi)
	}
	t.Run("straggler", func(t *testing.T) { checkAgainstBruteForce(t, []Job{a, b}) })
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var jobs []Job
		for i := 0; i < 3; i++ {
			jobs = append(jobs, Job{
				ID:        string(rune('a' + i)),
				Table:     bumpyTable(rng, int64(40+rng.Intn(80)), 6+rng.Intn(10)),
				Pipelines: 1 + rng.Intn(3),
				Weight:    0.5 + rng.Float64(),
			})
		}
		t.Run(fmt.Sprint("bumpy-", seed), func(t *testing.T) { checkAgainstBruteForce(t, jobs) })
	}
}

// bumpyTable builds a non-convex Pareto table: time strictly rising,
// energy strictly falling by uneven decrements, so average power falls
// at a rate that is not monotone.
func bumpyTable(rng *rand.Rand, tminU int64, points int) *frontier.LookupTable {
	lt := &frontier.LookupTable{Unit: 0.01, TminUnits: tminU, TStarUnits: tminU + int64(points) - 1}
	e := 3000 + 4000*rng.Float64()
	for u := tminU; u <= lt.TStarUnits; u++ {
		lt.Points = append(lt.Points, frontier.TablePoint{TimeUnits: u, Energy: e})
		e -= e * (0.001 + 0.03*rng.Float64()*rng.Float64())
	}
	return lt
}

// TestStragglerFloor checks the extrinsic-bloat generalization: a
// straggler-bound job starts its descent at T_opt = min(T*, T'), has
// zero loss there, and the power it frees spares the other jobs.
func TestStragglerFloor(t *testing.T) {
	mk := func(tp float64) []Job {
		return []Job{
			{ID: "straggling", Table: convexTable(0.01, 80, 95, 3000, 120), TPrime: tp},
			{ID: "healthy", Table: convexTable(0.01, 50, 67, 5000, 300)},
		}
	}
	// Without a straggler both jobs share the cap's pain.
	jobs := mk(0)
	capW := Allocate(jobs, 0).PowerW * 0.97
	before := Allocate(jobs, capW)
	if before.Jobs[0].Loss == 0 && before.Jobs[1].Loss == 0 {
		t.Fatal("cap at 97% should force some loss")
	}
	// A straggler at 1.1× Tmin raises job 0's floor for free.
	slow := mk(1.1 * 0.01 * 80)
	after := Allocate(slow, capW)
	if after.Jobs[0].FloorTime <= before.Jobs[0].FloorTime {
		t.Fatalf("straggler floor %v not above Tmin %v", after.Jobs[0].FloorTime, before.Jobs[0].FloorTime)
	}
	if after.Jobs[0].Time < after.Jobs[0].FloorTime {
		t.Fatalf("allocation %v plans faster than the straggler floor %v", after.Jobs[0].Time, after.Jobs[0].FloorTime)
	}
	if after.Loss > before.Loss+1e-12 {
		t.Fatalf("straggler freed power but fleet loss rose: %v -> %v", before.Loss, after.Loss)
	}
	// T' beyond T* clamps to T* (Eq. 2).
	far := mk(1e9)
	a := Allocate(far, 0)
	if a.Jobs[0].FloorTime != far[0].Table.TStar() {
		t.Fatalf("floor %v, want clamp at T* %v", a.Jobs[0].FloorTime, far[0].Table.TStar())
	}
}

func TestInfeasibleCap(t *testing.T) {
	jobs := []Job{
		{ID: "a", Table: convexTable(0.01, 80, 95, 3000, 120)},
		{ID: "b", Table: convexTable(0.01, 50, 67, 5000, 300)},
	}
	// The fleet's minimum power: every job at its T* point.
	var minP float64
	for i := range jobs {
		minP += powerOf(&jobs[i], len(jobs[i].Table.Points)-1)
	}
	got := Allocate(jobs, minP*0.5)
	if got.Feasible {
		t.Fatal("cap at half the fleet minimum power cannot be feasible")
	}
	for i, ja := range got.Jobs {
		if ja.Point != len(jobs[i].Table.Points)-1 {
			t.Fatalf("infeasible cap: job %s not at T* (point %d)", ja.ID, ja.Point)
		}
	}
}

func TestUncappedRunsAtFloor(t *testing.T) {
	jobs := []Job{
		{ID: "a", Table: convexTable(0.01, 80, 95, 3000, 120)},
		{ID: "b", Table: convexTable(0.01, 50, 67, 5000, 300), TPrime: 0.55},
	}
	got := Allocate(jobs, 0)
	if !got.Feasible {
		t.Fatal("uncapped allocation must be feasible")
	}
	if got.Jobs[0].Time != jobs[0].Table.Tmin() {
		t.Fatalf("healthy job at %v, want Tmin %v", got.Jobs[0].Time, jobs[0].Table.Tmin())
	}
	if got.Jobs[1].Time < 0.55-0.01 {
		t.Fatalf("straggling job at %v, want its T_opt floor near 0.55", got.Jobs[1].Time)
	}
	if got.Loss != 0 {
		t.Fatalf("uncapped loss %v, want 0", got.Loss)
	}
}

func TestAllocateEmpty(t *testing.T) {
	got := Allocate(nil, 100)
	if !got.Feasible || got.PowerW != 0 || len(got.Jobs) != 0 {
		t.Fatalf("empty fleet allocation: %+v", got)
	}
}
