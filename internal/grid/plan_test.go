package grid

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"perseus/internal/frontier"
	"perseus/internal/plan"
)

// convexTable hand-builds a lookup table whose energy curve is
// E(t) = a + b/t on a unit grid from tmin to tstar units — the same
// convex family internal/fleet verifies its allocator on. Per-interval
// plan cost is the perspective function of E, so convex E makes the
// planner's per-interval marginal sequence non-decreasing.
func convexTable(unit float64, tminU, tstarU int64, a, b float64) *frontier.LookupTable {
	lt := &frontier.LookupTable{Unit: unit, TminUnits: tminU, TStarUnits: tstarU}
	for u := tminU; u <= tstarU; u++ {
		t := float64(u) * unit
		lt.Points = append(lt.Points, frontier.TablePoint{TimeUnits: u, Energy: a + b/t})
	}
	return lt
}

// bruteForce enumerates every per-interval choice — idle or one allowed
// frontier point, full-interval occupancy — and returns the minimum
// objective cost covering the target, or ok=false when none does.
// bruteForceContinuous extends it with time-sharing.
func bruteForce(lt *frontier.LookupTable, sig *Signal, opts Options) (best float64, ok bool) {
	scale := opts.PowerScale
	if scale <= 0 {
		scale = 1
	}
	obj := opts.Objective
	if obj == "" {
		obj = ObjectiveCarbon
	}
	d := opts.DeadlineS
	if d <= 0 {
		d = sig.Horizon()
	}
	win := sig.Truncate(d)
	best = math.Inf(1)
	n := len(lt.Points)
	var walk func(k int, cover, cost float64)
	walk = func(k int, cover, cost float64) {
		if k == len(win.Intervals) {
			if cover >= opts.Target-1e-9 && cost < best {
				best, ok = cost, true
			}
			return
		}
		iv := win.Intervals[k]
		d := iv.Duration()
		lo := 0
		if iv.CapW > 0 {
			lo = lt.FirstUnderPower(iv.CapW / scale)
		}
		walk(k+1, cover, cost) // idle
		if lo >= 0 {
			for p := lo; p < n; p++ {
				walk(k+1, cover+d/lt.PointTime(p),
					cost+PerJoule(obj, iv)*scale*lt.AvgPower(p)*d)
			}
		}
	}
	walk(0, 0, 0)
	return best, ok
}

// bruteForceContinuous enumerates the continuous (time-sharing)
// optimum exactly: every combination of whole per-interval choices,
// plus — for each interval and each adjacent state pair along its
// marginal chain (idle → minimum-energy point → … → fastest allowed) —
// the unique fraction that completes the target exactly while the
// other intervals hold whole choices. For separable convex allocation
// the optimum has at most one time-shared interval between adjacent
// states, so this enumeration contains it.
func bruteForceContinuous(lt *frontier.LookupTable, sig *Signal, opts Options) (best float64, ok bool) {
	scale := opts.PowerScale
	if scale <= 0 {
		scale = 1
	}
	obj := opts.Objective
	if obj == "" {
		obj = ObjectiveCarbon
	}
	d := opts.DeadlineS
	if d <= 0 {
		d = sig.Horizon()
	}
	win := sig.Truncate(d)
	best, ok = bruteForce(lt, sig, opts)
	n := len(lt.Points)
	K := len(win.Intervals)

	// states per interval: -1 (idle) then n-1 down to lo.
	lo := make([]int, K)
	for k, iv := range win.Intervals {
		lo[k] = 0
		if iv.CapW > 0 {
			lo[k] = lt.FirstUnderPower(iv.CapW / scale)
		}
	}
	wc := func(k, p int) (w, c float64) { // whole-interval occupancy of point p
		if p < 0 {
			return 0, 0
		}
		dur := win.Intervals[k].Duration()
		return dur / lt.PointTime(p), PerJoule(obj, win.Intervals[k]) * scale * lt.AvgPower(p) * dur
	}
	// For each fractional (interval fk, from, to): enumerate the other
	// intervals' whole choices and solve the fraction.
	for fk := 0; fk < K; fk++ {
		if lo[fk] < 0 {
			continue
		}
		pairs := [][2]int{{-1, n - 1}}
		for p := n - 1; p > lo[fk]; p-- {
			pairs = append(pairs, [2]int{p, p - 1})
		}
		for _, pr := range pairs {
			wFrom, cFrom := wc(fk, pr[0])
			wTo, cTo := wc(fk, pr[1])
			var walk func(k int, cover, cost float64)
			walk = func(k int, cover, cost float64) {
				if k == fk {
					walk(k+1, cover, cost)
					return
				}
				if k >= K {
					// Solve f so cover + (1-f)·wFrom + f·wTo == target.
					need := opts.Target - cover
					if wTo == wFrom {
						return
					}
					f := (need - wFrom) / (wTo - wFrom)
					if f < -1e-12 || f > 1+1e-12 {
						return
					}
					total := cost + (1-f)*cFrom + f*cTo
					if total < best {
						best, ok = total, true
					}
					return
				}
				iv := win.Intervals[k]
				walk(k+1, cover, cost)
				if lo[k] >= 0 {
					dur := iv.Duration()
					for p := lo[k]; p < n; p++ {
						walk(k+1, cover+dur/lt.PointTime(p),
							cost+PerJoule(obj, iv)*scale*lt.AvgPower(p)*dur)
					}
				}
			}
			walk(0, 0, 0)
		}
	}
	return best, ok
}

// randomInstance builds a small random signal and convex table.
func randomInstance(rng *rand.Rand, withCaps bool) (*frontier.LookupTable, *Signal) {
	tmin := int64(40 + rng.Intn(60))
	lt := convexTable(0.01, tmin, tmin+int64(3+rng.Intn(3)),
		1000+4000*rng.Float64(), 50+400*rng.Float64())
	nIv := 3 + rng.Intn(2)
	sig := &Signal{}
	for k := 0; k < nIv; k++ {
		iv := Interval{
			StartS:         float64(k) * 600,
			EndS:           float64(k+1) * 600,
			CarbonGPerKWh:  100 + 500*rng.Float64(),
			PriceUSDPerKWh: 0.03 + 0.2*rng.Float64(),
		}
		if withCaps && rng.Intn(3) == 0 {
			// A cap somewhere between the T* and Tmin power draws, or
			// occasionally below everything (forced idle).
			span := lt.AvgPower(0) - lt.AvgPower(len(lt.Points)-1)
			iv.CapW = lt.AvgPower(len(lt.Points)-1) + span*(rng.Float64()*1.4-0.3)
			if iv.CapW < 0 {
				iv.CapW = lt.AvgPower(len(lt.Points)-1) * 0.5
			}
		}
		sig.Intervals = append(sig.Intervals, iv)
	}
	return lt, sig
}

// TestPlannerMatchesBruteForce is the acceptance-criteria check: on
// small randomized instances the discrete greedy descent matches
// brute-force enumeration over per-interval frontier points exactly at
// every coverage breakpoint of its own descent (every exactly
// attainable target), and for arbitrary deadline-feasible targets it is
// never better than the optimum and worse by less than one step's cost.
func TestPlannerMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lt, sig := randomInstance(rng, seed%3 == 0)
		for _, obj := range []Objective{ObjectiveCarbon, ObjectiveCost, ObjectiveEnergy} {
			base := Options{Objective: obj, PowerScale: float64(1 + rng.Intn(2))}

			// Breakpoint targets: probe the instance's max coverage,
			// then run the full descent to collect every step.
			probe := base
			probe.Target = 1e15
			pre, err := solve(lt, sig, probe)
			if err != nil {
				t.Fatal(err)
			}
			full := base
			full.Target = pre.maxCover
			sol, err := solve(lt, sig, full)
			if err != nil {
				t.Fatal(err)
			}
			// The attainable coverage breakpoints are the prefix sums of
			// the descent's whole steps in slope order; the scan reference
			// lists them.
			ref, err := scanSolve(lt, sig, full)
			if err != nil {
				t.Fatal(err)
			}
			var breaks []float64
			cover := 0.0
			sws := append([]scanStep(nil), ref.taken...)
			for i := range sws {
				for j := i + 1; j < len(sws); j++ {
					if sws[j].slope < sws[i].slope {
						sws[i], sws[j] = sws[j], sws[i]
					}
				}
			}
			for _, s := range sws {
				cover += s.dw
				breaks = append(breaks, cover)
			}
			if len(breaks) == 0 {
				t.Fatalf("seed %d: degenerate instance, no steps", seed)
			}

			for _, target := range breaks {
				o := base
				o.Target = target
				got, err := solve(lt, sig, o)
				if err != nil {
					t.Fatal(err)
				}
				want, feasible := bruteForce(lt, sig, o)
				if !feasible || !got.feasible {
					t.Fatalf("seed %d %s target %.4f: unexpectedly infeasible", seed, obj, target)
				}
				if math.Abs(got.cost-want) > 1e-9*(1+want) {
					t.Fatalf("seed %d %s breakpoint target %.4f: greedy cost %.9f != brute force %.9f",
						seed, obj, target, got.cost, want)
				}
			}

			// Arbitrary targets between 0 and max coverage.
			for i := 0; i < 12; i++ {
				o := base
				o.Target = sol.maxCover * (0.05 + 0.93*rng.Float64())
				got, err := solve(lt, sig, o)
				if err != nil {
					t.Fatal(err)
				}
				want, feasible := bruteForce(lt, sig, o)
				if got.feasible != feasible {
					t.Fatalf("seed %d %s target %.4f: feasible=%v, brute force %v",
						seed, obj, o.Target, got.feasible, feasible)
				}
				if !feasible {
					continue
				}
				if got.coverage < o.Target-1e-9 {
					t.Fatalf("seed %d %s: coverage %.6f under target %.6f", seed, obj, got.coverage, o.Target)
				}
				if got.cost > want+1e-9*(1+want) {
					t.Fatalf("seed %d %s target %.4f: greedy %.9f above whole-point brute force %.9f",
						seed, obj, o.Target, got.cost, want)
				}
				// Exactness: the solver matches the continuous optimum
				// (whole-point enumeration extended with every single
				// time-shared interval).
				contWant, contOK := bruteForceContinuous(lt, sig, o)
				if !contOK {
					t.Fatalf("seed %d %s target %.4f: continuous brute force infeasible", seed, obj, o.Target)
				}
				if math.Abs(got.cost-contWant) > 1e-9*(1+contWant) {
					t.Fatalf("seed %d %s target %.4f: greedy %.9f != continuous optimum %.9f",
						seed, obj, o.Target, got.cost, contWant)
				}

				// The public plan completes the target exactly at the
				// solver's cost.
				plan, err := Optimize(lt, sig, o)
				if err != nil {
					t.Fatal(err)
				}
				if !plan.Feasible {
					t.Fatalf("seed %d: plan infeasible where solver feasible", seed)
				}
				if math.Abs(plan.Iterations-o.Target) > 1e-6*(1+o.Target) {
					t.Fatalf("seed %d %s: plan completes %.9f iterations, want exactly %.9f",
						seed, obj, plan.Iterations, o.Target)
				}
				checkPrice(t, lt, sig, o, plan)
				cost := planCost(plan)
				if cost > got.cost+1e-9*(1+got.cost) {
					t.Fatalf("seed %d %s: plan cost %.9f above solver cost %.9f",
						seed, obj, cost, got.cost)
				}
			}
		}
	}
}

// planCost reads the plan total matching its objective.
func planCost(p *Plan) float64 {
	switch p.Objective {
	case ObjectiveCost:
		return p.CostUSD
	case ObjectiveEnergy:
		return p.EnergyJ
	default:
		return p.CarbonG
	}
}

// checkPrice checks a plan's dual certificate. An infeasible plan has
// Price -1. A feasible plan's λ = Price is non-negative, and every
// interval's choice minimizes cost − λ·iterations over the table points
// its cap allows, idle included, within 1e-9 of the
// terms' size. That also puts both states of the time-shared interval
// at the tie. By Lagrangian duality this is an O(points × intervals)
// proof that no plan covering the same iterations costs less.
func checkPrice(t *testing.T, lt *frontier.LookupTable, sig *Signal, opts Options, p *Plan) {
	t.Helper()
	if !p.Feasible {
		if p.Price != -1 {
			t.Fatalf("infeasible plan has price %v, want -1", p.Price)
		}
		return
	}
	lambda := p.Price
	if !(lambda >= 0) || math.IsInf(lambda, 0) {
		t.Fatalf("feasible plan has price %v", lambda)
	}
	scale := opts.PowerScale
	if scale <= 0 {
		scale = 1
	}
	for ip := range p.Intervals(lt, sig) {
		iv := sig.Intervals[ip.Index]
		dur := ip.EndS - ip.StartS
		perJ := PerJoule(p.Objective, iv)
		var size float64
		value := func(q int) float64 { // cost − λ·iterations of q all interval long
			if q < 0 {
				return 0
			}
			c, w := perJ*scale*lt.AvgPower(q)*dur, lambda*dur/lt.PointTime(q)
			size = max(size, c, w)
			return c - w
		}
		lo := 0
		if iv.CapW > 0 {
			lo = lt.FirstUnderPower(iv.CapW / scale)
		}
		best := value(-1)
		for q := max(lo, 0); lo >= 0 && q < len(lt.Points); q++ {
			best = min(best, value(q))
		}
		chosen := []int{-1} // idle
		switch {
		case len(ip.Slices) == 2:
			chosen = []int{ip.Slices[0].Point, ip.Slices[1].Point}
		case len(ip.Slices) == 1 && ip.Slices[0].Seconds < dur:
			chosen = []int{-1, ip.Slices[0].Point}
		case len(ip.Slices) == 1:
			chosen = []int{ip.Slices[0].Point}
		}
		for _, q := range chosen {
			if v := value(q); v > best+1e-9*size {
				t.Fatalf("interval %d: state %d has cost − λ·iterations %v, above the minimum %v at λ %v",
					ip.Index, q, v, best, lambda)
			}
		}
	}
}

// TestBundledTraceBeatsBaselines is the acceptance-criteria demo check:
// on the bundled 24 h trace, with deadline slack, the grid-aware plan's
// total carbon is strictly below both the always-T_min and the static
// min-energy baselines at equal iterations completed.
func TestBundledTraceBeatsBaselines(t *testing.T) {
	lt := convexTable(0.01, 80, 110, 3000, 120)
	sig := Diurnal24h()
	// Target: the static min-energy baseline needs ~60% of the day, so
	// there is real slack to shift into the solar valley.
	target := math.Floor(0.6 * 86400 / lt.TStar())
	opts := Options{Target: target, Objective: ObjectiveCarbon}

	plan, err := Optimize(lt, sig, opts)
	if err != nil {
		t.Fatal(err)
	}
	alwaysFast, err := Fixed(lt, 0, sig, opts)
	if err != nil {
		t.Fatal(err)
	}
	minEnergy, err := Fixed(lt, len(lt.Points)-1, sig, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Plan{plan, alwaysFast, minEnergy} {
		if !p.Feasible {
			t.Fatalf("plan unexpectedly infeasible: %+v", p)
		}
		if math.Abs(p.Iterations-target) > 1e-6*target {
			t.Fatalf("unequal iterations: got %.3f, want %.3f", p.Iterations, target)
		}
	}
	if !(plan.CarbonG < alwaysFast.CarbonG) {
		t.Fatalf("grid-aware carbon %.1f g not strictly below always-Tmin %.1f g",
			plan.CarbonG, alwaysFast.CarbonG)
	}
	if !(plan.CarbonG < minEnergy.CarbonG) {
		t.Fatalf("grid-aware carbon %.1f g not strictly below static min-energy %.1f g",
			plan.CarbonG, minEnergy.CarbonG)
	}
	if plan.FinishS > plan.DeadlineS+1e-9 {
		t.Fatalf("plan finishes at %v, after the deadline %v", plan.FinishS, plan.DeadlineS)
	}
	// The shift is temporal: the plan must idle somewhere dirty and run
	// during the midday valley.
	ivs := expand(plan, lt, sig)
	valley := ivs[13] // 13:00, carbon minimum neighborhood
	if valley.Iterations == 0 {
		t.Fatal("plan does not run during the solar valley")
	}
	peak := ivs[20] // 20:00, evening ramp peak
	if peak.EnergyJ >= valley.EnergyJ {
		t.Fatalf("plan spends as much energy at the evening peak (%v J) as in the valley (%v J)",
			peak.EnergyJ, valley.EnergyJ)
	}
}

// TestPlanCapsAndInfeasible exercises the remaining planner behaviors:
// interval caps bound the chosen points' power, idle-only intervals,
// infeasible targets, and cost-objective planning.
func TestPlanCapsAndInfeasible(t *testing.T) {
	lt := convexTable(0.01, 80, 100, 3000, 120)
	minP, maxP := lt.AvgPower(len(lt.Points)-1), lt.AvgPower(0)
	sig := &Signal{Intervals: []Interval{
		{StartS: 0, EndS: 600, CarbonGPerKWh: 400, PriceUSDPerKWh: 0.1, CapW: (minP + maxP) / 2},
		{StartS: 600, EndS: 1200, CarbonGPerKWh: 100, PriceUSDPerKWh: 0.2},
		{StartS: 1200, EndS: 1800, CarbonGPerKWh: 300, PriceUSDPerKWh: 0.02, CapW: minP * 0.5},
	}}

	// A target just under max coverage forces fast points where allowed.
	maxCover := 600/lt.PointTime(lt.FirstUnderPower((minP+maxP)/2)) + 600/lt.Tmin()
	plan, err := Optimize(lt, sig, Options{Target: maxCover * 0.98})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatal("near-max target should be feasible")
	}
	checkPrice(t, lt, sig, Options{Target: maxCover * 0.98}, plan)
	ivs := expand(plan, lt, sig)
	for _, ip := range ivs {
		cap := sig.Intervals[ip.Index].CapW
		for _, sl := range ip.Slices {
			if cap > 0 && lt.AvgPower(sl.Point) > cap+1e-9 {
				t.Fatalf("interval %d runs point %d above its cap %v W", ip.Index, sl.Point, cap)
			}
		}
	}
	// The third interval's cap excludes every point: forced idle.
	if last := ivs[2]; len(last.Slices) != 0 || last.Iterations != 0 {
		t.Fatalf("cap-excluded interval should idle, got %+v", last)
	}

	// Infeasible: target above max coverage returns best effort.
	plan, err = Optimize(lt, sig, Options{Target: maxCover * 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Feasible {
		t.Fatal("target above max coverage cannot be feasible")
	}
	if math.Abs(plan.Iterations-maxCover) > 1e-6*maxCover {
		t.Fatalf("best effort covers %.4f, want max %.4f", plan.Iterations, maxCover)
	}
	if plan.FinishS != -1 || plan.Price != -1 {
		t.Fatalf("infeasible plan finish %v price %v, want -1 and -1", plan.FinishS, plan.Price)
	}
	// Infeasible plans must survive JSON encoding (the server returns
	// them over HTTP).
	if _, err := json.Marshal(plan); err != nil {
		t.Fatalf("infeasible plan does not marshal: %v", err)
	}

	// Cost objective prefers the cheap third interval... which is
	// capped out; between the first two it prefers the cheaper first.
	costPlan, err := Optimize(lt, sig, Options{Target: 5, Objective: ObjectiveCost})
	if err != nil {
		t.Fatal(err)
	}
	if ivs := expand(costPlan, lt, sig); ivs[1].EnergyJ > 0 && ivs[0].EnergyJ == 0 {
		t.Fatal("cost objective ran the expensive interval before the cheap one")
	}

	// Deadline shorter than the horizon truncates the window.
	short, err := Optimize(lt, sig, Options{Target: 5, DeadlineS: 700})
	if err != nil {
		t.Fatal(err)
	}
	if ivs := expand(short, lt, sig); len(ivs) != 2 || ivs[1].EndS != 700 {
		t.Fatalf("deadline truncation: %d intervals, last ends %v", len(ivs), ivs[len(ivs)-1].EndS)
	}

	// Error paths.
	if _, err := Optimize(lt, sig, Options{Target: -1}); err == nil {
		t.Fatal("negative target should error")
	}
	if _, err := Optimize(lt, sig, Options{Target: 1, DeadlineS: 1e9}); err == nil {
		t.Fatal("deadline beyond horizon should error")
	}
	if _, err := Optimize(lt, sig, Options{Target: 1, DeadlineS: -5}); err == nil {
		t.Fatal("negative deadline should error")
	}
	if _, err := Optimize(lt, sig, Options{Target: 1, DeadlineS: math.NaN()}); err == nil {
		t.Fatal("NaN deadline should error")
	}
	if _, err := Fixed(lt, 0, sig, Options{Target: 1, DeadlineS: 1e9}); err == nil {
		t.Fatal("Fixed with deadline beyond horizon should error")
	}
	if _, err := Optimize(lt, sig, Options{Target: 1, Objective: "vibes"}); err == nil {
		t.Fatal("unknown objective should error")
	}
	if _, err := Optimize(nil, sig, Options{Target: 1}); err == nil {
		t.Fatal("nil table should error")
	}
	if _, err := Optimize(lt, nil, Options{Target: 1}); err == nil {
		t.Fatal("nil signal should error")
	}
	if _, err := Fixed(lt, 99, sig, Options{Target: 1}); err == nil {
		t.Fatal("out-of-range baseline point should error")
	}
}

// TestFixedBaseline pins the always-fast baseline's accounting.
func TestFixedBaseline(t *testing.T) {
	lt := convexTable(0.01, 100, 110, 3000, 120) // Tmin = 1 s
	sig := &Signal{Intervals: []Interval{
		{StartS: 0, EndS: 100, CarbonGPerKWh: 360},
		{StartS: 100, EndS: 200, CarbonGPerKWh: 720},
	}}
	plan, err := Fixed(lt, 0, sig, Options{Target: 150})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible || plan.FinishS != 150 {
		t.Fatalf("feasible %v finish %v, want true and 150", plan.Feasible, plan.FinishS)
	}
	if math.Abs(plan.Iterations-150) > 1e-9 {
		t.Fatalf("iterations %v, want 150", plan.Iterations)
	}
	p := lt.AvgPower(0)
	wantCarbon := 100*p/JoulesPerKWh*360 + 50*p/JoulesPerKWh*720
	if math.Abs(plan.CarbonG-wantCarbon) > 1e-9*wantCarbon {
		t.Fatalf("carbon %v, want %v", plan.CarbonG, wantCarbon)
	}
	// A deadline too tight for the point marks the baseline infeasible.
	tight, err := Fixed(lt, len(lt.Points)-1, sig, Options{Target: 150, DeadlineS: 120})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Feasible {
		t.Fatal("slow baseline cannot meet the tight deadline")
	}
	if tight.FinishS != -1 {
		t.Fatalf("infeasible baseline finish %v, want -1 (same contract as Optimize)", tight.FinishS)
	}
	// Its accounting covers only what fits before the deadline.
	if tight.Iterations >= 150 {
		t.Fatalf("infeasible baseline claims %v iterations, target 150 cannot fit", tight.Iterations)
	}
}

// deepCopyPlan copies a plan through JSON, which reaches every field a
// plan has (all are exported and finite).
func deepCopyPlan(t *testing.T, p *Plan) *Plan {
	t.Helper()
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var out Plan
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestSolverReuseDoesNotAlias pins what the server's pooled solvers rely
// on. A Plan a Solver returned is untouched by whatever that Solver
// solves next (a different table over a different window); and over a
// sequence of shrinking windows with a shrinking target — the access
// pattern of a controller tick rolling one schedule forward — a reused
// Solver and a fresh one per solve return bit-identical plans, for all
// three objectives, through Solver.Optimize as the server calls it.
func TestSolverReuseDoesNotAlias(t *testing.T) {
	full := Generate(GenOptions{Intervals: 48, IntervalS: 900, Jitter: 0.2, Seed: 7})
	full.Intervals[5].CapW = 1 // a forced-idle interval in the early windows
	lt := convexTable(0.01, 60, 75, 3000, 200)
	other := convexTable(0.02, 30, 34, 1500, 90)
	otherSig := Generate(GenOptions{Intervals: 7, IntervalS: 600, Jitter: 0.3, Seed: 8})

	for _, obj := range []Objective{ObjectiveCarbon, ObjectiveCost, ObjectiveEnergy} {
		var reused Solver
		for from := 0; from < len(full.Intervals)-1; from += 5 {
			// The remaining window [from, end), re-based at 0 like
			// forecast's window().
			win := &Signal{Name: full.Name}
			base := full.Intervals[from].StartS
			for _, iv := range full.Intervals[from:] {
				iv.StartS -= base
				iv.EndS -= base
				win.Intervals = append(win.Intervals, iv)
			}
			opts := Options{Target: 0.6 * win.Horizon() / lt.PointTime(0), Objective: obj, PowerScale: 2}

			got, err := reused.Optimize(lt, win, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := new(Solver).Optimize(lt, win, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s window from %d: reused solver's plan differs from a fresh solver's\nreused %+v\nfresh  %+v", obj, from, got, want)
			}

			// Solve something else on the same solver; the plan it
			// returned before must not move.
			kept := deepCopyPlan(t, got)
			if _, err := reused.Optimize(other, otherSig, Options{Target: 0.5 * otherSig.Horizon() / other.PointTime(0), Objective: obj}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, kept) {
				t.Fatalf("%s window from %d: a later solve on the same Solver changed a returned plan", obj, from)
			}
		}
	}
}

// solve runs the solver layer alone on a fresh solution, so tests can
// compare it against brute force and the scan reference.
func solve(lt *frontier.LookupTable, sig *Signal, opts Options) (*solution, error) {
	sol := &solution{}
	if err := sol.solve(lt, sig, opts); err != nil {
		return nil, err
	}
	return sol, nil
}

// scanStep is one whole step the scan reference took.
type scanStep struct{ slope, dw float64 }

// scanResult is everything a solve decides: each interval's point, the
// fractional step, the plan's coverage and cost.
type scanResult struct {
	cur            []int
	frac           refFrac
	coverage, cost float64
	feasible       bool
	steps          int
	price          float64    // slope of the last step taken
	taken          []scanStep // whole steps, in pick order
}

// hullFrom returns the hull a cap with floor lo leaves an interval, as
// table indices, fastest first: the hull of points lo..n-1, built the
// way the solver builds it — the hull of lo..h, where h is the first
// table hull point at or after lo, then the table's hull from h on.
func hullFrom(lt *frontier.LookupTable, lo int) []int {
	hull := lt.Hull()
	j := 0
	for hull[j] < lo {
		j++
	}
	if hull[j] == lo {
		return hull[j:]
	}
	chain := lt.HullOf(nil, lo, hull[j])
	return append(chain, hull[j+1:]...)
}

// scanSolve is the solver's oracle, and the definition of its output.
// Each interval climbs its hull (hullFrom) from idle, one vertex faster
// at a time, and its j-th step has slope rate·σ_j: rate is the
// objective's weight per joule times the power scale, σ_0 is P·t of the
// slowest point and σ_j is ΔP/Δ(1/t) between the vertices, each raised
// to the one before where rounding would put it below — everything
// computed from the table itself. Steps are taken in (slope, interval,
// step) order, picked by a sequential strict-< scan over the intervals'
// next steps, first index winning ties. Before each one the plan's
// coverage — its intervals' iterations, summed in interval order — is
// compared with the target: the scan stops once it is within 1e-9, and
// takes the step fractionally when taking it whole would pass the
// target by more than 1e-12, the fraction being the target less the
// whole steps' coverage (their compensated sum, compensatedSum), over
// the step's iterations. The price is the last step's slope, and the
// steps are the ladder steps in the plan plus one for the fractional
// one. The plan's coverage and cost are its intervals', summed in
// interval order, the fractional step's share added last. The
// solver's price search, ladders, lanes and solver positions are
// licensed by agreeing with it exactly, bit for bit.
func scanSolve(lt *frontier.LookupTable, sig *Signal, opts Options) (scanResult, error) {
	return scanSolveFrom(lt, sig, opts, false)
}

// scanSolveFrom is scanSolve, started awake when awake is set: every
// interval its cap lets run has taken its wake step (it runs its
// slowest allowed point) before the scan begins, and a feasible plan's
// steps count those wake steps too. The plan then overshoots any
// target the awake intervals alone cover, at price 0.
func scanSolveFrom(lt *frontier.LookupTable, sig *Signal, opts Options, awake bool) (scanResult, error) {
	d, scale, obj, err := normalize(lt, sig, opts)
	if err != nil {
		return scanResult{}, err
	}
	type state struct {
		dur, rate float64
		chain     []int     // allowed hull, fastest first; nil when only
		sigma     []float64 // sigma[j]: the j-th step's, waking first
		n         int       // steps taken
	}
	cur := func(st state) int { // the table point after n steps, -1 idle
		if st.n == 0 {
			return -1
		}
		return st.chain[len(st.chain)-st.n]
	}
	iters := func(st state) float64 {
		if c := cur(st); c >= 0 {
			return st.dur / lt.PointTime(c)
		}
		return 0
	}
	res := scanResult{frac: refFrac{k: -1}, price: -1}
	var ivs []state
	var maxCover float64
	for _, iv := range sig.Truncate(d).Intervals {
		st := state{dur: iv.Duration(), rate: PerJoule(obj, iv) * scale}
		lo := 0
		if iv.CapW > 0 {
			lo = lt.FirstUnderPower(iv.CapW / scale)
		}
		if lo >= 0 {
			st.chain = hullFrom(lt, lo)
			for j := len(st.chain) - 1; j >= 0; j-- {
				to := st.chain[j]
				if j == len(st.chain)-1 {
					st.sigma = append(st.sigma, lt.AvgPower(to)*lt.PointTime(to))
					continue
				}
				from := st.chain[j+1]
				sigma := (lt.AvgPower(to) - lt.AvgPower(from)) / (1/lt.PointTime(to) - 1/lt.PointTime(from))
				st.sigma = append(st.sigma, max(sigma, st.sigma[len(st.sigma)-1]))
			}
			maxCover += st.dur / lt.PointTime(lo)
			if awake {
				st.n = 1
			}
		}
		ivs = append(ivs, st)
	}
	coverage := func() float64 {
		var c float64
		for _, st := range ivs {
			c += iters(st)
		}
		return c
	}
	res.feasible = maxCover >= opts.Target-1e-9
	if !res.feasible {
		for k := range ivs {
			ivs[k].n = len(ivs[k].chain)
		}
	} else {
		res.price = 0
		for _, st := range ivs {
			res.steps += st.n
		}
		for cover := coverage(); cover < opts.Target-1e-9; {
			best, bestSlope := -1, 0.0
			for k, st := range ivs {
				if st.n < len(st.chain) {
					if slope := st.rate * st.sigma[st.n]; best < 0 || slope < bestSlope {
						best, bestSlope = k, slope
					}
				}
			}
			if best < 0 {
				break
			}
			res.steps++
			res.price = bestSlope
			was := ivs[best]
			ivs[best].n++
			after := coverage()
			if after > opts.Target+1e-12 {
				ivs[best] = was
				now := ivs[best]
				now.n++
				var whole []float64
				for _, st := range ivs {
					whole = append(whole, iters(st))
				}
				res.frac = refFrac{k: best, from: cur(was), to: cur(now), f: (opts.Target - compensatedSum(whole)) / (iters(now) - iters(was))}
				break
			}
			res.taken = append(res.taken, scanStep{bestSlope, iters(ivs[best]) - iters(was)})
			cover = after
		}
	}
	for _, st := range ivs {
		if c := cur(st); c >= 0 {
			res.coverage += st.dur / lt.PointTime(c)
			res.cost += st.rate * lt.AvgPower(c) * st.dur
		}
		res.cur = append(res.cur, cur(st))
	}
	if fs := res.frac; fs.k >= 0 {
		st := ivs[fs.k]
		dw, dc := st.dur/lt.PointTime(fs.to), st.rate*lt.AvgPower(fs.to)*st.dur
		if fs.from >= 0 {
			dw -= st.dur / lt.PointTime(fs.from)
			dc -= st.rate * lt.AvgPower(fs.from) * st.dur
		}
		res.coverage += fs.f * dw
		res.cost += fs.f * dc
	}
	return res, nil
}

// refFrac is a fractional step as the references state it: fraction f
// of interval k's step from → to, table points (from Idle for a wake).
// k is -1 when every taken step was whole.
type refFrac struct {
	k, from, to int
	f           float64
}

// fracOf reads sol's fractional step as a refFrac.
func fracOf(sol *solution) refFrac {
	fs := sol.frac
	if fs.k < 0 {
		return refFrac{k: -1}
	}
	n := sol.ivs[fs.k].n
	return refFrac{k: fs.k, from: sol.reach(fs.k, n), to: sol.reach(fs.k, n+1), f: fs.f}
}

// pointOf is the table point interval k of sol runs whole, Idle for none.
func pointOf(sol *solution, k int) int { return sol.reach(k, sol.ivs[k].n) }

// checkAgainstScan solves the instance on sol (fresh or reused) and
// requires exact agreement with the scan reference — == on every float
// and every table point, no tolerance.
func checkAgainstScan(t *testing.T, sol *solution, lt *frontier.LookupTable, sig *Signal, opts Options) {
	t.Helper()
	checkAgainstScanFrom(t, sol, lt, sig, opts, false)
}

// solveAwake solves the instance on sol, then searches it again from
// the awake floor, every interval that can run already at its slowest
// allowed point (scanSolveFrom's awake start): the low end the price
// search holds once a probe has woken every interval, here entered
// directly, with the first search's price as the hint. An infeasible
// instance keeps its best-effort plan, which no floor changes.
func solveAwake(sol *solution, lt *frontier.LookupTable, sig *Signal, opts Options) error {
	if err := sol.solve(lt, sig, opts); err != nil || !sol.feasible {
		return err
	}
	k := len(sol.ivs)
	lo, hi, at := sol.counts[:k], sol.counts[k:2*k], sol.counts[2*k:]
	for k := range sol.ivs {
		hi[k] = len(sol.ivs[k].ladder)
		lo[k] = min(1, hi[k])
		at[k] = lo[k]
	}
	hint := sol.price
	sol.frac = fracStep{k: -1}
	sol.steps, sol.price = 0, 0
	sol.finish(sol.search(lo, hi, at, opts.Target, hint))
	return nil
}

// checkAgainstScanFrom is checkAgainstScan, with both the solver and
// the scan started awake when awake is set (solveAwake, scanSolveFrom).
func checkAgainstScanFrom(t *testing.T, sol *solution, lt *frontier.LookupTable, sig *Signal, opts Options, awake bool) {
	t.Helper()
	want, err := scanSolveFrom(lt, sig, opts, awake)
	if err != nil {
		t.Fatal(err)
	}
	solve := sol.solve
	if awake {
		solve = func(lt *frontier.LookupTable, sig *Signal, opts Options) error { return solveAwake(sol, lt, sig, opts) }
	}
	if err := solve(lt, sig, opts); err != nil {
		t.Fatal(err)
	}
	frac := fracOf(sol)
	if sol.feasible != want.feasible || sol.coverage != want.coverage || sol.cost != want.cost ||
		frac != want.frac || sol.steps != want.steps || sol.price != want.price {
		t.Fatalf("solver {feasible %v coverage %v cost %v frac %+v steps %d price %v}\n  scan {feasible %v coverage %v cost %v frac %+v steps %d price %v}",
			sol.feasible, sol.coverage, sol.cost, frac, sol.steps, sol.price,
			want.feasible, want.coverage, want.cost, want.frac, want.steps, want.price)
	}
	if len(sol.ivs) != len(want.cur) {
		t.Fatalf("solver planned %d intervals, scan %d", len(sol.ivs), len(want.cur))
	}
	for k := range sol.ivs {
		if got := pointOf(sol, k); got != want.cur[k] {
			t.Fatalf("interval %d: solver at point %d, scan at %d", k, got, want.cur[k])
		}
	}
}

// bumpyTable builds a non-convex table: time strictly rising, energy
// strictly falling by uneven decrements, so per-interval slopes are not
// monotone and runs end at arbitrary places.
func bumpyTable(rng *rand.Rand, tminU int64, points int) *frontier.LookupTable {
	lt := &frontier.LookupTable{Unit: 0.01, TminUnits: tminU, TStarUnits: tminU + int64(points) - 1}
	e := 3000 + 4000*rng.Float64()
	for u := tminU; u <= lt.TStarUnits; u++ {
		lt.Points = append(lt.Points, frontier.TablePoint{TimeUnits: u, Energy: e})
		e -= e * (0.001 + 0.03*rng.Float64()*rng.Float64())
	}
	return lt
}

// hullTable is the table of lt's hull points alone.
func hullTable(lt *frontier.LookupTable) *frontier.LookupTable {
	h := lt.Hull()
	out := &frontier.LookupTable{Unit: lt.Unit, TminUnits: lt.TminUnits, TStarUnits: lt.TStarUnits}
	for _, i := range h {
		out.Points = append(out.Points, lt.Points[i])
	}
	return out
}

// TestNonConvexTablePlansOnItsHull plans over non-convex tables, where
// stepping one table point at a time is not the slope order: a step
// out of a point above the hull can be dearer than the one after it,
// and time-sharing two adjacent points misses the cheaper mix of the
// hull vertices around them. The plan must reach the continuous
// optimum of the hull points (brute force over the hull-only table).
// The instances are one interval, and three, at targets high enough
// that the time-shared step falls between hull vertices rather than at
// wake-up;
// on most of them that optimum is strictly below the best plan that
// time-shares only adjacent table points, which is where a point-by-
// point greedy lands.
func TestNonConvexTablePlansOnItsHull(t *testing.T) {
	below := 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lt := bumpyTable(rng, 40+seed, 7)
		if len(lt.Hull()) == len(lt.Points) {
			t.Fatalf("seed %d: bumpy table is convex", seed)
		}
		sig := &Signal{}
		for k := 0; k < 3; k++ {
			sig.Intervals = append(sig.Intervals, Interval{
				StartS: float64(k) * 600, EndS: float64(k+1) * 600,
				CarbonGPerKWh: 100 + 500*rng.Float64(), PriceUSDPerKWh: 0.1,
			})
		}
		one := &Signal{Intervals: sig.Intervals[:1]}
		for _, s := range []*Signal{one, sig} {
			maxCover := s.Horizon() / lt.Tmin()
			for _, tf := range []float64{0.72, 0.8, 0.88, 0.96} {
				opts := Options{Target: tf * maxCover}
				p, err := Optimize(lt, s, opts)
				if err != nil {
					t.Fatal(err)
				}
				checkPrice(t, lt, s, opts, p)
				want, ok := bruteForceContinuous(hullTable(lt), s, opts)
				if !ok || !p.Feasible {
					t.Fatalf("seed %d target %v: infeasible", seed, opts.Target)
				}
				if got := p.Total(); math.Abs(got-want) > 1e-9*want {
					t.Fatalf("seed %d %d intervals target %v: plan %.12g, hull optimum %.12g",
						seed, len(s.Intervals), opts.Target, got, want)
				}
				if adjacent, _ := bruteForceContinuous(lt, s, opts); want < adjacent*(1-1e-9) {
					below++
				}
			}
		}
	}
	if below < 16 {
		t.Fatalf("the hull optimum beat adjacent-point time-sharing on %d of 64 instances, want at least 16", below)
	}
}

// TestSolveMatchesScanReference pins the solver to the scan reference
// over the fuzz corpus and the shapes it does not reach: non-convex
// tables, caps that idle or floor intervals, a deadline cutting
// the last interval, one-interval and one-point instances, exact ties,
// and dense many-interval cases — each on a fresh solution and on one
// reused across the whole corpus. Evaluate's totals and Price are
// Optimize's bit for bit, -1 on infeasible instances included. Each
// instance is also searched from the awake floor (solveAwake), a low
// end with every interval woken, which must meet the scan started
// there; those subtests keep the noidle=true ids of the planner's
// former no-idle mode, whose start that floor was, and the others
// keep noidle=false.
func TestSolveMatchesScanReference(t *testing.T) {
	var reused solution
	var evaluator Solver
	infeasible := 0
	referenceCorpus(func(name string, lt *frontier.LookupTable, sig *Signal, opts Options) {
		t.Helper()
		t.Run(name+"/noidle=false", func(t *testing.T) {
			checkAgainstScan(t, &solution{}, lt, sig, opts)
			checkAgainstScan(t, &reused, lt, sig, opts)
			p, err := Optimize(lt, sig, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkPrice(t, lt, sig, opts, p)
			ev, err := evaluator.Evaluate(lt, sig, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := Evaluation{Feasible: p.Feasible, Iterations: p.Iterations, Account: p.Account, Price: p.Price}
			if ev != want || math.Float64bits(ev.Price) != math.Float64bits(p.Price) {
				t.Fatalf("Evaluate %+v, Optimize %+v", ev, want)
			}
			if !p.Feasible {
				infeasible++
			}
		})
		t.Run(name+"/noidle=true", func(t *testing.T) {
			checkAgainstScanFrom(t, &solution{}, lt, sig, opts, true)
			checkAgainstScanFrom(t, &reused, lt, sig, opts, true)
		})
	})
	if infeasible == 0 {
		t.Fatal("no infeasible instance in the corpus: Evaluate's -1 price went untested")
	}

	// Exact ties: intervals with identical durations and rates offer
	// identical slopes at every state; the lower index goes first. Which
	// tied interval the fractional step lands on is the only trace the
	// order of equal steps leaves.
	lt, ties := tiesInstance()
	for tf := 0.01; tf < 1; tf += 0.01 {
		want, err := scanSolve(lt, ties, Options{Target: tf * ties.Horizon() / lt.Tmin()})
		if err != nil {
			t.Fatal(err)
		}
		// Steps taken so far, the fractional one counting half.
		progress := func(k int) float64 {
			p := 0.0
			if c := want.cur[k]; c >= 0 {
				p = float64(len(lt.Points) - c)
			}
			if want.frac.k == k {
				p += 0.5
			}
			return p
		}
		for _, tied := range [][]int{{1, 3, 4}, {0, 2, 5}} {
			a, b, c := progress(tied[0]), progress(tied[1]), progress(tied[2])
			if a < b || b < c || a-c > 1 {
				t.Fatalf("target %v: tied intervals %v must descend in step, lowest index first; progress %v %v %v", tf, tied, a, b, c)
			}
		}
	}
}

// tiesInstance is a table and six intervals whose rates repeat, so
// their slopes tie exactly.
func tiesInstance() (*frontier.LookupTable, *Signal) {
	ties := &Signal{}
	for k := 0; k < 6; k++ {
		ties.Intervals = append(ties.Intervals, Interval{
			StartS: float64(k) * 600, EndS: float64(k+1) * 600,
			CarbonGPerKWh: []float64{300, 200, 300, 200, 200, 300}[k], PriceUSDPerKWh: 0.1,
		})
	}
	return convexTable(0.01, 80, 90, 3000, 120), ties
}

// referenceCorpus calls f on the solver's reference instances: the fuzz
// corpus and the shapes it does not reach — non-convex tables, caps
// that idle or floor intervals, a deadline cutting the last interval,
// one-interval and one-point instances, exact ties swept finely, and
// dense many-interval cases.
func referenceCorpus(f func(name string, lt *frontier.LookupTable, sig *Signal, opts Options)) {
	for seed := int64(1); seed <= 40; seed++ {
		for _, tf := range []float64{0.05, 0.37, 0.6, 0.93, 1, 1.2} {
			for _, df := range []float64{0.31, 0.77, 1} {
				lt, sig, opts, ok := fuzzInstance(seed, tf, df)
				if !ok {
					continue
				}
				f(fmt.Sprintf("fuzz-%d-%v-%v", seed, tf, df), lt, sig, opts)
				rng := rand.New(rand.NewSource(seed))
				f(fmt.Sprintf("bumpy-%d-%v-%v", seed, tf, df), bumpyTable(rng, 40+seed, 3+rng.Intn(9)), sig, opts)
			}
		}
	}

	// Dense: a day of 15-minute intervals over an 80-point table, capped
	// in places, deadline inside the last interval.
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sig := Generate(GenOptions{Intervals: 96, IntervalS: 900, Jitter: 0.2, Seed: seed})
		for _, lt := range []*frontier.LookupTable{convexTable(0.01, 60, 139, 3000, 200), bumpyTable(rng, 60, 80)} {
			for i := 0; i < 8; i++ {
				k := rng.Intn(len(sig.Intervals))
				sig.Intervals[k].CapW = lt.AvgPower(len(lt.Points)-1) * (0.5 + 2*rng.Float64())
			}
			for _, tf := range []float64{0.2, 0.7, 0.999} {
				d := sig.Horizon() - 450
				f(fmt.Sprintf("dense-%d-%d-%v", seed, len(lt.Points), tf), lt, sig,
					Options{Target: tf * 0.8 * d / lt.Tmin(), DeadlineS: d, PowerScale: 2, Objective: ObjectiveCost})
			}
		}
	}

	// Degenerate shapes.
	one := convexTable(0.01, 80, 80, 3000, 120) // a single point: wake steps only
	sig := Generate(GenOptions{Intervals: 6, IntervalS: 600, Jitter: 0.3, Seed: 5})
	f("one-point", one, sig, Options{Target: 0.5 * sig.Horizon() / one.Tmin()})
	lt, ties := tiesInstance()
	single := &Signal{Intervals: sig.Intervals[:1]} // one interval: every run is alone in the heap
	f("one-interval", lt, single, Options{Target: 0.9 * 600 / lt.Tmin()})
	f("one-interval-full", lt, single, Options{Target: 600 / lt.Tmin()})
	for tf := 0.01; tf < 1; tf += 0.01 {
		f(fmt.Sprintf("ties-%v", tf), lt, ties, Options{Target: tf * ties.Horizon() / lt.Tmin()})
	}
}

// expand collects a plan's intervals over sig, each owning its slices.
func expand(p *Plan, lt *frontier.LookupTable, sig *Signal) []IntervalPlan {
	var out []IntervalPlan
	for ip := range p.Intervals(lt, sig) {
		ip.Slices = slices.Clone(ip.Slices)
		out = append(out, ip)
	}
	return out
}

// referencePlan is a plan as the planner built it before plans became
// runs: its totals, its finish and one IntervalPlan per interval.
type referencePlan struct {
	iterations float64
	plan.Account
	finishS   float64
	intervals []IntervalPlan
}

// referenceOptimize is Optimize's assembly from before plans became
// runs, kept as it was: the reference Plan.Intervals and the plan's
// totals must equal bit for bit.
func referenceOptimize(t testing.TB, lt *frontier.LookupTable, sig *Signal, opts Options) referencePlan {
	t.Helper()
	var sol solution
	if err := sol.solve(lt, sig, opts); err != nil {
		t.Fatal(err)
	}
	scale := sol.scale
	out := referencePlan{finishS: math.Inf(1)}
	var slices []Slice
	remaining := opts.Target
	for k := range sol.ivs {
		pi := &sol.ivs[k]
		ip := IntervalPlan{
			Index:          k,
			StartS:         pi.iv.StartS,
			EndS:           pi.iv.StartS + pi.dur,
			CarbonGPerKWh:  pi.iv.CarbonGPerKWh,
			PriceUSDPerKWh: pi.iv.PriceUSDPerKWh,
		}
		base := len(slices)
		for _, st := range sol.stretches(k, nil) {
			slices = append(slices, Slice{Point: st.Point, Seconds: st.seconds})
		}
		if len(slices) > base {
			ip.Slices = slices[base:len(slices):len(slices)]
		}
		var run float64
		for _, sl := range ip.Slices {
			run += sl.Seconds
			ip.Iterations += sl.Seconds / lt.PointTime(sl.Point)
			ip.EnergyJ += sl.Seconds * scale * lt.AvgPower(sl.Point)
		}
		ip.IdleS = pi.dur - run
		ip.CarbonG = ip.EnergyJ / JoulesPerKWh * pi.iv.CarbonGPerKWh
		ip.CostUSD = ip.EnergyJ / JoulesPerKWh * pi.iv.PriceUSDPerKWh

		if math.IsInf(out.finishS, 1) && out.iterations+ip.Iterations >= opts.Target-1e-9 {
			need := remaining
			at := ip.StartS
			for _, sl := range ip.Slices {
				rate := 1 / lt.PointTime(sl.Point)
				if got := sl.Seconds * rate; got < need {
					need -= got
					at += sl.Seconds
				} else {
					at += need / rate
					break
				}
			}
			out.finishS = at
		}
		remaining -= ip.Iterations
		out.iterations += ip.Iterations
		out.EnergyJ += ip.EnergyJ
		out.CarbonG += ip.CarbonG
		out.CostUSD += ip.CostUSD
		out.intervals = append(out.intervals, ip)
	}
	if math.IsInf(out.finishS, 1) {
		out.finishS = -1
	}
	return out
}

// referenceFixed is Fixed's assembly from before plans became runs,
// kept as it was.
func referenceFixed(t testing.TB, lt *frontier.LookupTable, point int, sig *Signal, opts Options) referencePlan {
	t.Helper()
	d, scale, _, err := normalize(lt, sig, opts)
	if err != nil {
		t.Fatal(err)
	}
	tm := lt.PointTime(point)
	finish := opts.Target * tm
	out := referencePlan{finishS: finish}
	if finish > d+1e-9 {
		out.finishS = -1
	}
	power := scale * lt.AvgPower(point)
	for k, iv := range sig.Truncate(d).Intervals {
		run := math.Min(iv.EndS, finish) - iv.StartS
		if run < 0 {
			run = 0
		}
		ip := IntervalPlan{
			Index:          k,
			StartS:         iv.StartS,
			EndS:           math.Min(iv.EndS, d),
			CarbonGPerKWh:  iv.CarbonGPerKWh,
			PriceUSDPerKWh: iv.PriceUSDPerKWh,
		}
		if run > 0 {
			ip.Slices = []Slice{{Point: point, Seconds: run}}
			ip.Iterations = run / tm
			ip.EnergyJ = run * power
			ip.CarbonG = ip.EnergyJ / JoulesPerKWh * iv.CarbonGPerKWh
			ip.CostUSD = ip.EnergyJ / JoulesPerKWh * iv.PriceUSDPerKWh
		}
		ip.IdleS = ip.EndS - ip.StartS - run
		out.iterations += ip.Iterations
		out.EnergyJ += ip.EnergyJ
		out.CarbonG += ip.CarbonG
		out.CostUSD += ip.CostUSD
		out.intervals = append(out.intervals, ip)
	}
	return out
}

// checkExpansion requires p's totals, finish and expansion over sig to
// equal the reference's bit for bit.
func checkExpansion(t testing.TB, lt *frontier.LookupTable, sig *Signal, p *Plan, want referencePlan) {
	t.Helper()
	if p.Iterations != want.iterations || p.Account != want.Account || p.FinishS != want.finishS {
		t.Fatalf("plan totals {%v %+v finish %v}, reference {%v %+v finish %v}",
			p.Iterations, p.Account, p.FinishS, want.iterations, want.Account, want.finishS)
	}
	got := expand(p, lt, sig)
	if len(got) != len(want.intervals) {
		t.Fatalf("plan expands to %d intervals, reference %d", len(got), len(want.intervals))
	}
	for k := range got {
		if !reflect.DeepEqual(got[k], want.intervals[k]) {
			t.Fatalf("interval %d:\n  plan      %+v\n  reference %+v", k, got[k], want.intervals[k])
		}
	}
}

// checkRuns checks a plan's runs against the signal it was planned on:
// they are maximal (no two whole runs in a row share a point), every
// count is positive, together they cover the intervals before the
// deadline in order, a run with slices is one interval long, and its
// slices fit that interval.
func checkRuns(t testing.TB, p *Plan, sig *Signal) {
	t.Helper()
	want := len(sig.Truncate(p.DeadlineS).Intervals)
	k := 0
	for i, r := range p.Runs {
		if r.Count < 1 {
			t.Fatalf("run %d covers %d intervals", i, r.Count)
		}
		if i > 0 && len(r.Slices) == 0 && len(p.Runs[i-1].Slices) == 0 && r.Point == p.Runs[i-1].Point {
			t.Fatalf("runs %d and %d both run point %d: not maximal", i-1, i, r.Point)
		}
		if len(r.Slices) > 0 {
			iv := sig.Intervals[k]
			dur := math.Min(iv.EndS, p.DeadlineS) - iv.StartS
			var run float64
			for _, sl := range r.Slices {
				run += sl.Seconds
			}
			if r.Count != 1 || len(r.Slices) > 2 || run > dur*(1+1e-12) {
				t.Fatalf("run %d (interval %d, %v s) has slices %+v over %d intervals", i, k, dur, r.Slices, r.Count)
			}
		}
		k += r.Count
	}
	if k != want {
		t.Fatalf("runs cover %d intervals, the deadline leaves %d", k, want)
	}
}

// TestIntervalsMatchReference pins plans as runs to the plans the
// planner built before: over the reference corpus, every Optimize plan
// and both Fixed baselines have the runs
// checkRuns asks for, and expand over the signal to the reference's
// intervals with the reference's totals, == on every float.
func TestIntervalsMatchReference(t *testing.T) {
	referenceCorpus(func(name string, lt *frontier.LookupTable, sig *Signal, opts Options) {
		p, err := Optimize(lt, sig, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkRuns(t, p, sig)
		checkExpansion(t, lt, sig, p, referenceOptimize(t, lt, sig, opts))
		for _, point := range []int{0, len(lt.Points) - 1} {
			p, err := Fixed(lt, point, sig, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkRuns(t, p, sig)
			checkExpansion(t, lt, sig, p, referenceFixed(t, lt, point, sig, opts))
		}
	})
}

// TestSolverSteadyStateAllocs pins what the hot callers reuse a Solver
// for: once warmed on an instance's size, Evaluate allocates nothing and
// Optimize only what it returns — the Plan, its runs, the time-shared
// interval's slices.
func TestSolverSteadyStateAllocs(t *testing.T) {
	lt := convexTable(0.01, 60, 99, 3000, 200)
	sig := Generate(GenOptions{Intervals: 96, IntervalS: 900, Jitter: 0.2, Seed: 7})
	sig.Intervals[9].CapW = lt.AvgPower(20) // a floored interval: the cap search must not allocate
	opts := Options{Target: 0.6 * sig.Horizon() / lt.TStar()}
	var s Solver
	if _, err := s.Optimize(lt, sig, opts); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := s.Evaluate(lt, sig, opts); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warmed Evaluate allocates %v times a solve, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := s.Optimize(lt, sig, opts); err != nil {
			t.Fatal(err)
		}
	}); n != 3 {
		t.Fatalf("warmed Optimize allocates %v times a solve, want the plan's 3", n)
	}
	if s.Steps() == 0 {
		t.Fatal("a feasible solve took no steps")
	}
}
