package grid

import (
	"cmp"
	"fmt"
	"iter"
	"math"
	"slices"
	"sync"

	"perseus/internal/frontier"
	"perseus/internal/plan"
)

// Objective selects what a temporal plan minimizes. It is an alias of
// plan.Objective — the shared vocabulary every planning layer uses.
type Objective = plan.Objective

const (
	// ObjectiveCarbon minimizes total gCO₂ emitted.
	ObjectiveCarbon = plan.ObjectiveCarbon

	// ObjectiveCost minimizes total electricity cost in $.
	ObjectiveCost = plan.ObjectiveCost

	// ObjectiveEnergy minimizes total energy in joules, ignoring the
	// signal's rates (useful as a signal-blind control).
	ObjectiveEnergy = plan.ObjectiveEnergy
)

// ParseObjective maps a string to an Objective ("" means carbon).
func ParseObjective(s string) (Objective, error) {
	return plan.ParseObjective(s)
}

// PerJoule returns the objective's weight of one joule consumed during
// the interval.
func PerJoule(o Objective, iv Interval) float64 {
	switch o {
	case ObjectiveCost:
		return iv.PriceUSDPerKWh / JoulesPerKWh
	case ObjectiveEnergy:
		return 1
	default: // carbon
		return iv.CarbonGPerKWh / JoulesPerKWh
	}
}

// Options parameterizes the temporal planner.
type Options struct {
	// Target is the number of iterations to complete; must be positive.
	Target float64

	// DeadlineS is the completion deadline in seconds from trace start;
	// 0 means the signal's horizon. It may not exceed the horizon.
	DeadlineS float64

	// Objective selects what to minimize; "" means carbon.
	Objective Objective

	// PowerScale multiplies the table's per-point average power, e.g.
	// the number of data-parallel pipeline replicas. <= 0 means 1.
	PowerScale float64
}

// Slice is a stretch of one frontier point within an interval.
type Slice struct {
	// Point indexes the job's lookup table.
	Point int `json:"point"`

	// Seconds is the time spent at the point within the interval.
	Seconds float64 `json:"seconds"`
}

// Idle is the Run.Point of a run that pauses the job.
const Idle = -1

// Run is a maximal stretch of consecutive signal intervals that share
// one decision: each interval of the run spends its whole duration at
// table point Point, or pauses (Point == Idle). An interval planned any
// other way — the one interval that time-shares two states, or the one
// a Fixed baseline's finish cuts — is a run of one that spells out its
// Slices. An interval cut by the deadline is still whole: it runs until
// the deadline.
type Run struct {
	// Count is the number of signal intervals the run covers.
	Count int `json:"count"`

	// Point is the table point of a whole-interval run, or Idle.
	Point int `json:"point,omitempty"`

	// Slices, when non-empty, replace Point: the run is one interval
	// that runs them back to back from its start and idles the rest.
	// The optimum time-shares at most two states, in at most one
	// interval.
	Slices []Slice `json:"slices,omitempty"`
}

// appendRun appends one interval's decision — whole at point (or Idle)
// when slices is empty, otherwise slices — extending the last run when
// it is the same whole decision.
func appendRun(runs []Run, point int, slices []Slice) []Run {
	if n := len(runs); n > 0 && len(slices) == 0 && len(runs[n-1].Slices) == 0 && runs[n-1].Point == point {
		runs[n-1].Count++
		return runs
	}
	return append(runs, Run{Count: 1, Point: point, Slices: slices})
}

// IntervalPlan is one signal interval of a plan, as Plan.Intervals
// expands it: the point slices run (at most two) with the remainder
// idle, and what they do.
type IntervalPlan struct {
	// Index is the interval's position in the signal.
	Index int

	// StartS and EndS bound the interval (the last may be cut by the
	// deadline).
	StartS, EndS float64

	// CarbonGPerKWh and PriceUSDPerKWh are the interval's rates.
	CarbonGPerKWh, PriceUSDPerKWh float64

	// Slices are the planned stretches; empty means the job idles
	// throughout.
	Slices []Slice

	// IdleS is the planned pause time within the interval.
	IdleS float64

	// Iterations and the embedded plan.Account are the interval's
	// planned outcomes.
	Iterations float64
	plan.Account
}

// Plan is a temporal frequency-plan schedule: one operating choice per
// signal interval minimizing the objective subject to the deadline,
// stored as runs of intervals sharing a choice. It does not repeat the
// signal: Intervals expands it over the signal it was planned on.
// GET /grid/plan serves it as a PGP1 body (MarshalBinary, wire.go);
// inside JSON bodies — a rollout's remaining plan, a region plan's
// temporal one — it travels in the JSON form its tags spell.
type Plan struct {
	// Objective is what the plan minimizes.
	Objective Objective `json:"objective"`

	// Target, DeadlineS and PowerScale echo the planning inputs (the
	// deadline and scale resolved).
	Target     float64 `json:"target_iterations"`
	DeadlineS  float64 `json:"deadline_s"`
	PowerScale float64 `json:"power_scale"`

	// Feasible reports whether the target fits before the deadline.
	// When it does not, the plan runs every interval at its fastest
	// allowed point (the best-effort maximum).
	Feasible bool `json:"feasible"`

	// Iterations and the embedded plan.Account total the plan.
	Iterations float64 `json:"iterations"`
	plan.Account

	// FinishS is the time the target is reached, assuming each
	// interval's slices run back-to-back from the interval start; -1
	// when the plan never reaches it (infeasible). Kept finite so the
	// plan always survives JSON encoding.
	FinishS float64 `json:"finish_s"`

	// Price is λ, the marginal objective cost of one more iteration: the
	// slope of the plan's last step. Every interval's choice minimizes
	// cost − λ·iterations over its allowed points, idle included, and a
	// time-shared interval's two states tie — the dual certificate that
	// the plan is optimal. 0 when the target is within rounding of zero
	// and needed no step; -1 when the plan has no price (infeasible, or
	// a Fixed baseline), kept finite like FinishS.
	Price float64 `json:"price"`

	// Runs cover the signal's intervals before the deadline in time
	// order.
	Runs []Run `json:"runs"`
}

// Intervals iterates the plan interval by interval over sig, the signal
// it was planned on, with lt the job's lookup table. Each IntervalPlan
// repeats the planner's own arithmetic, so it is bit for bit what the
// plan's totals were summed from. Its Slices alias the plan or a buffer
// the next step reuses: copy them to keep them.
func (p *Plan) Intervals(lt *frontier.LookupTable, sig *Signal) iter.Seq[IntervalPlan] {
	return func(yield func(IntervalPlan) bool) {
		var whole [1]Slice
		k := 0
		for _, r := range p.Runs {
			for end := k + r.Count; k < end && k < len(sig.Intervals); k++ {
				iv := sig.Intervals[k]
				if iv.EndS > p.DeadlineS {
					iv.EndS = p.DeadlineS
				}
				dur := iv.Duration()
				ip := IntervalPlan{
					Index:          k,
					StartS:         iv.StartS,
					EndS:           iv.StartS + dur,
					CarbonGPerKWh:  iv.CarbonGPerKWh,
					PriceUSDPerKWh: iv.PriceUSDPerKWh,
				}
				switch {
				case len(r.Slices) > 0:
					ip.Slices = r.Slices[:len(r.Slices):len(r.Slices)]
				case r.Point != Idle:
					whole[0] = Slice{Point: r.Point, Seconds: dur}
					ip.Slices = whole[:1:1]
				}
				var run float64
				for _, sl := range ip.Slices {
					run += sl.Seconds
					ip.Iterations += sl.Seconds / lt.PointTime(sl.Point)
					ip.EnergyJ += sl.Seconds * p.PowerScale * lt.AvgPower(sl.Point)
				}
				ip.IdleS = dur - run
				ip.CarbonG = ip.EnergyJ / JoulesPerKWh * iv.CarbonGPerKWh
				ip.CostUSD = ip.EnergyJ / JoulesPerKWh * iv.PriceUSDPerKWh
				if !yield(ip) {
					return
				}
			}
		}
	}
}

// Total reads the plan total matching its objective.
func (p *Plan) Total() float64 { return p.Account.Total(p.Objective) }

// planInterval is the solver's working state for one interval. It
// climbs its cap floor's ladder (frontier.LookupTable.Ladder) from idle
// one rung at a time, each rung moving it to a faster table point.
type planInterval struct {
	iv     Interval
	dur    float64
	rate   float64         // objective weight per joule × scale: a step's slope is rate·Sigma
	ladder frontier.Ladder // the steps the cap allows: the last reaches the fastest allowed point; empty forces idle
	n      int             // steps taken
}

// candidate is a step inside the price bracket: the next step of
// interval k, at its slope.
type candidate struct {
	slope float64
	k     int
}

// fracStep is the single partially taken step of a solution: fraction
// f of interval k's next step (f·dur seconds at the step's point, the
// rest where the interval's whole steps leave it, or idle). k is -1
// when every taken step was whole.
type fracStep struct {
	k int
	f float64
}

// solution is the solver outcome, carrying the normalized inputs it
// was solved under: each interval's point and at most one fractional
// step. A solution's buffers are reusable: solving into the same value
// again truncates and refills them instead of re-allocating.
type solution struct {
	win Window // the signal of the last solve, when solve prepared it
	ivs []planInterval
	// The price search's buffers: steps per interval at the bracket's
	// low and high ends and at a probe (three runs of one array), each
	// interval's iterations during the candidate walk, the sorted lanes
	// and the candidates.
	counts   []int
	w        []float64
	order    []uint64 // the window's intervals in rate order, if it has one
	lanes    []uint64 // intervals with steps to decide, by rate
	cands    []candidate
	frac     fracStep
	steps    int     // ladder steps in the plan, the fractional one included
	price    float64 // slope of the last step taken: Plan.Price
	coverage float64
	cost     float64
	feasible bool
	maxCover float64
	deadline float64
	scale    float64
	obj      Objective
}

// reach returns the table point interval k is at after n steps, Idle
// for none.
func (sol *solution) reach(k, n int) int {
	if n == 0 {
		return Idle
	}
	return sol.ivs[k].ladder[n-1].Point
}

// request maps the options to the shared planning request.
func (o Options) request() plan.Request {
	return plan.Request{
		Target:     o.Target,
		DeadlineS:  o.DeadlineS,
		Objective:  o.Objective,
		PowerScale: o.PowerScale,
	}
}

// Optimize plans a job's temporal schedule over the signal: one
// frontier operating point (or pause) per interval, minimizing the
// objective subject to completing opts.Target iterations by the
// deadline and to each interval's facility power cap.
//
// The plan fills the merged per-interval marginal segments in cost
// order: every interval starts idle, and iterations are bought at the
// cheapest marginal objective cost first — waking an interval at its
// minimum-energy point or stepping it one hull vertex faster — with
// the final step taken fractionally (time-sharing the two states
// within the interval) so the plan completes the target exactly.
//
// Optimality: per interval, cost is rate × scale × P(t) × d and
// iterations are d/t, so an interval's attainable (iterations, cost)
// pairs — idle is the origin — are the perspective images of the
// table's (t, E) points, and time-sharing fills in their convex hull.
// The perspective map keeps lines as lines and sides as sides, so the
// lower boundary of that hull runs through idle and the vertices of the
// lower convex hull of (t, E) over the allowed points; and because a
// table is a Pareto set (energy falls as time rises) its slopes, from
// the wake-up step on, are non-decreasing. The solver steps over those
// vertices only (the rungs of the cap floor's LookupTable.Ladder, cached
// on the table), so each interval's cost is a convex
// piecewise-linear function of its iterations, whatever the table's
// shape. The global problem is then a separable convex allocation whose
// exact optimum is the fill in marginal-cost order with at most one
// fractional segment, and the last slope taken is its price λ
// (Plan.Price).
//
// The d cancels out of every slope: waking costs rate × scale × P·t
// per iteration, a step between hull vertices rate × scale × ΔP/Δ(1/t).
// So each slope is an interval's rate × scale times one rung of a
// ladder of σ values shared by every interval on the same hull, and a
// price λ buys, in every interval, the rungs with slope ≤ λ. The solver
// finds the last step's price by probing prices (see solution.search)
// instead of taking the steps one by one, and takes the steps in
// (slope, interval, step) order, each interval's ladder held
// non-decreasing. plan_test.go verifies exactness against continuous
// brute-force enumeration, checks the λ certificate on every plan, and
// holds every solve == to a scan that takes the steps one at a time.
//
// Optimize prepares the signal (see Prepare) and solves on it, on a
// Solver from a package pool; the plan does not alias it. Callers that
// plan many jobs on one signal prepare it once and call
// Solver.OptimizeWindow.
func Optimize(lt *frontier.LookupTable, sig *Signal, opts Options) (*Plan, error) {
	s := solvers.Get().(*Solver)
	defer solvers.Put(s)
	return s.Optimize(lt, sig, opts)
}

// solvers recycles the package Optimize's Solvers.
var solvers = sync.Pool{New: func() any { return new(Solver) }}

// Solver is a reusable temporal-planner instance: repeated Optimize and
// Evaluate calls on one Solver share the price search's working
// buffers, so hot callers — a controller tick's roll-forwards, the
// region planner's candidate descent (thousands of composite signals
// per plan) — avoid re-allocating the per-interval state on every
// solve, and each solve's first probe is the price the last one found.
// The zero value is ready; a Solver is not safe for concurrent use.
type Solver struct {
	sol solution
	buf []stretch
}

// Steps returns the ladder steps in the last solve's plan, plus one
// for its fractional step: the steps a one-at-a-time fill would take (0
// when the solve was infeasible: best effort takes none).
func (s *Solver) Steps() int { return s.sol.steps }

// Evaluation is the totals-only outcome of a solve: what candidate
// comparison needs, computed by the code that totals Optimize's plans
// but without building the plan.
type Evaluation struct {
	// Feasible reports whether the target fits before the deadline.
	Feasible bool

	// Iterations is the planned coverage (the best-effort maximum when
	// infeasible).
	Iterations float64

	// Account totals the plan.
	plan.Account

	// Price is the plan's λ, bit for bit Optimize's Plan.Price: the
	// marginal objective cost of one more iteration, -1 when infeasible.
	// It certifies the totals: no plan of the instance costs less than
	// its Lagrangian value at any λ ≥ 0, and at this λ that value is the
	// plan's own cost.
	Price float64
}

// Evaluate solves the instance and returns only its totals, reusing the
// solver's buffers: no plan, no per-interval slices, no allocations in
// steady state. The totals are Optimize's, from the same code, so a
// descent may compare candidates via Evaluate and re-solve only the
// winner with Optimize.
func (s *Solver) Evaluate(lt *frontier.LookupTable, sig *Signal, opts Options) (Evaluation, error) {
	if err := s.sol.solve(lt, sig, opts); err != nil {
		return Evaluation{}, err
	}
	out, _ := s.account(opts.Target)
	return out, nil
}

// account totals the solution interval by interval — the arithmetic
// Plan.Intervals repeats per interval — and returns with the totals the
// time the target is reached (-1 when it never is), each interval's
// slices running back to back from its start.
func (s *Solver) account(target float64) (out Evaluation, finishS float64) {
	sol := &s.sol
	out.Feasible = sol.feasible
	out.Price = sol.price
	finishS = -1
	finished := false
	remaining := target
	for k := range sol.ivs {
		s.buf = sol.stretches(k, s.buf[:0])
		var iters, energy float64
		for _, st := range s.buf {
			iters += st.seconds / st.Time
			energy += st.seconds * sol.scale * st.Power
		}
		pi := &sol.ivs[k]
		if !finished && out.Iterations+iters >= target-1e-9 {
			// The target lands inside this interval.
			finished = true
			need := remaining
			finishS = pi.iv.StartS
			for _, st := range s.buf {
				rate := 1 / st.Time
				if got := st.seconds * rate; got < need {
					need -= got
					finishS += st.seconds
				} else {
					finishS += need / rate
					break
				}
			}
		}
		remaining -= iters
		out.Iterations += iters
		out.EnergyJ += energy
		out.CarbonG += energy / JoulesPerKWh * pi.iv.CarbonGPerKWh
		out.CostUSD += energy / JoulesPerKWh * pi.iv.PriceUSDPerKWh
	}
	return out, finishS
}

// Optimize plans via the solver's reusable buffers, preparing the
// signal into them; see the package Optimize for semantics. The
// returned Plan is freshly allocated (it does not alias the solver):
// its runs in one array, the time-shared interval's slices in another.
func (s *Solver) Optimize(lt *frontier.LookupTable, sig *Signal, opts Options) (*Plan, error) {
	if err := s.sol.win.prepare(sig, opts.Objective); err != nil {
		return nil, err
	}
	return s.OptimizeWindow(lt, &s.sol.win, opts)
}

// OptimizeWindow plans on a prepared window, which it only reads: the
// plan is bit for bit Optimize's on the window's signal. opts.Objective
// ("" means carbon) must be the one the window was prepared for.
func (s *Solver) OptimizeWindow(lt *frontier.LookupTable, w *Window, opts Options) (*Plan, error) {
	if err := s.sol.solveOn(lt, w, opts); err != nil {
		return nil, err
	}
	sol := &s.sol
	ev, finishS := s.account(opts.Target)
	return &Plan{
		Objective:  sol.obj,
		Target:     opts.Target,
		DeadlineS:  sol.deadline,
		PowerScale: sol.scale,
		Feasible:   sol.feasible,
		Iterations: ev.Iterations,
		Account:    ev.Account,
		FinishS:    finishS,
		Price:      ev.Price,
		Runs:       sol.runs(),
	}, nil
}

// runs renders the solution's decisions as a plan's runs, with table
// indices for points.
func (sol *solution) runs() []Run {
	point := func(k int) int { return sol.reach(k, sol.ivs[k].n) }
	n := 0
	for k := range sol.ivs {
		if k == 0 || k == sol.frac.k || k-1 == sol.frac.k || point(k) != point(k-1) {
			n++
		}
	}
	runs := make([]Run, 0, n)
	for k := range sol.ivs {
		if k != sol.frac.k {
			runs = appendRun(runs, point(k), nil)
			continue
		}
		slices := make([]Slice, 0, 2)
		for _, st := range sol.stretches(k, make([]stretch, 0, 2)) {
			slices = append(slices, Slice{Point: st.Point, Seconds: st.seconds})
		}
		runs = appendRun(runs, 0, slices)
	}
	return runs
}

// stretch is a planned stretch of one rung's point within an interval.
type stretch struct {
	*frontier.Rung
	seconds float64
}

// stretches appends interval k's planned stretches to buf: the
// fractional interval time-shares its step's endpoints — f·dur seconds
// at the faster state, the rest at the slower one (or idle) — and any
// other awake interval runs its descent state for its whole duration.
func (sol *solution) stretches(k int, buf []stretch) []stretch {
	pi := &sol.ivs[k]
	if fs := sol.frac; fs.k == k {
		fast := fs.f * pi.dur
		buf = append(buf, stretch{&pi.ladder[pi.n], fast})
		if pi.n > 0 {
			buf = append(buf, stretch{&pi.ladder[pi.n-1], pi.dur - fast})
		}
	} else if pi.n > 0 {
		buf = append(buf, stretch{&pi.ladder[pi.n-1], pi.dur})
	}
	return buf
}

// solve prepares sig into the solution's own window and solves on it.
func (sol *solution) solve(lt *frontier.LookupTable, sig *Signal, opts Options) error {
	if err := sol.win.prepare(sig, opts.Objective); err != nil {
		return err
	}
	return sol.solveOn(lt, &sol.win, opts)
}

// solveOn finds the plan on a prepared window, filling the solution in
// place: its buffers from any previous run are truncated and reused.
func (sol *solution) solveOn(lt *frontier.LookupTable, w *Window, opts Options) error {
	d, scale, err := w.normalize(lt, opts)
	if err != nil {
		return err
	}

	sol.ivs = slices.Grow(sol.ivs[:0], len(w.sig.Intervals))
	hint := sol.price // the last solve's: the first probe
	sol.frac = fracStep{k: -1}
	sol.steps, sol.price, sol.maxCover = 0, 0, 0
	sol.deadline, sol.scale, sol.obj, sol.order = d, scale, w.obj, w.order
	all := lt.Ladder(0)
	for k, iv := range w.sig.Intervals {
		// Inline Signal.Truncate: cut at the deadline without copying.
		if iv.StartS >= d {
			break
		}
		if iv.EndS > d {
			iv.EndS = d
		}
		sol.ivs = append(sol.ivs, planInterval{})
		pi := &sol.ivs[len(sol.ivs)-1]
		pi.iv, pi.dur, pi.rate, pi.ladder = iv, iv.Duration(), w.rate[k]*scale, all
		if iv.CapW > 0 {
			// A cap allows the points from its floor on: none below the
			// slowest point's draw (forced idle).
			pi.ladder = lt.Ladder(lt.FirstUnderPower(iv.CapW / scale))
		}
		if len(pi.ladder) > 0 {
			sol.maxCover += pi.dur / pi.ladder[len(pi.ladder)-1].Time
		}
	}
	sol.feasible = sol.maxCover >= opts.Target-1e-9
	k := len(sol.ivs)
	sol.counts = slices.Grow(sol.counts[:0], 3*k)[:3*k]
	lo, hi, at := sol.counts[:k], sol.counts[k:2*k], sol.counts[2*k:]
	for k := range sol.ivs {
		lo[k], hi[k], at[k] = 0, len(sol.ivs[k].ladder), 0
	}

	if !sol.feasible {
		// Best effort: everything at the fastest allowed point.
		sol.price = -1
		sol.finish(hi)
		return nil
	}
	sol.finish(sol.search(lo, hi, at, opts.Target, hint))
	return nil
}

// finish fixes each interval at n[k] steps and totals the whole steps'
// iterations and cost in interval order, adding the fractional step's
// share last.
func (sol *solution) finish(n []int) {
	sol.coverage, sol.cost = 0, 0
	for k := range sol.ivs {
		pi := &sol.ivs[k]
		if pi.n = n[k]; pi.n > 0 {
			r := &pi.ladder[pi.n-1]
			sol.coverage += pi.dur / r.Time
			sol.cost += pi.rate * r.Power * pi.dur
		}
		if sol.feasible {
			sol.steps += n[k]
		}
	}
	if fs := sol.frac; fs.k >= 0 {
		pi := &sol.ivs[fs.k]
		to := &pi.ladder[pi.n]
		dw, dc := pi.dur/to.Time, pi.rate*to.Power*pi.dur
		if pi.n > 0 {
			from := &pi.ladder[pi.n-1]
			dw -= pi.dur / from.Time
			dc -= pi.rate * from.Power * pi.dur
		}
		sol.steps++
		sol.coverage += fs.f * dw
		sol.cost += fs.f * dc
	}
}

// compensatedSum sums xs with Neumaier's compensation: within an ulp of
// the exact sum, so in practice the same whatever the terms' order —
// the fraction cut from a signal does not move when it is rotated.
func compensatedSum(xs []float64) float64 {
	var sum, c float64
	for _, x := range xs {
		t := sum + x
		if math.Abs(sum) >= math.Abs(x) {
			c += (sum - t) + x
		} else {
			c += (x - t) + sum
		}
		sum = t
	}
	return sum + c
}

// iterations is what interval k does at n steps.
func (sol *solution) iterations(k, n int) float64 {
	if n == 0 {
		return 0
	}
	pi := &sol.ivs[k]
	return pi.dur / pi.ladder[n-1].Time
}

// cover sums the iterations of the intervals at n steps, in interval
// order.
func (sol *solution) cover(n []int) float64 {
	var c float64
	for k := range sol.ivs {
		c += sol.iterations(k, n[k])
	}
	return c
}

// search finds the feasible plan's steps — those before the cut in
// (slope, interval, step) order — and returns each interval's count.
// lo, hi and at are its count buffers, lo and hi holding each
// interval's first and last allowed counts.
//
// Every interval's slopes climb its ladder (see Optimize), so the steps
// a price λ buys are, per interval, a prefix: those of slope ≤ λ. The
// search brackets the cut between two prices, one short of the target
// and one past it, probing prices in between — the last solve's price
// first, then regula falsi on log λ — until few steps lie between the
// ends. Every step below the bracket is then taken in bulk, and the
// candidates inside it are walked in order: the walk stops at the
// first prefix whose iterations reach the target (within 1e-9), or
// cuts its next step fractionally when taking it whole would pass the
// target by more than 1e-12, by the target less the whole steps'
// iterations (compensatedSum) over the step's. Iterations are summed in
// interval order over the prefix's intervals, so the cut, its fraction
// and the price depend on the instance alone, not on the search's path.
func (sol *solution) search(lo, hi, at []int, target, hint float64) []int {
	coverLo := sol.cover(lo)
	if coverLo >= target-1e-9 {
		sol.price = 0 // a target within rounding of zero
		return lo
	}

	// The bracket's ends: no step taken (short of the target) and every
	// step (past it, since the instance is feasible), span steps apart.
	// loNext is the least slope left at the low end, hiSlope the largest
	// taken at the high end. The lanes are in rate order: the window's,
	// or sorted here when it has none.
	span := 0
	loNext, hiSlope := math.Inf(1), math.Inf(-1)
	for k := range sol.ivs {
		if lo[k] == hi[k] {
			continue
		}
		pi := &sol.ivs[k]
		span += hi[k] - lo[k]
		if s := pi.rate * pi.ladder[lo[k]].Sigma; s < loNext {
			loNext = s
		}
		if s := pi.rate * pi.ladder[hi[k]-1].Sigma; s > hiSlope {
			hiSlope = s
		}
	}
	sol.lanes = sol.lanes[:0]
	if len(sol.order) > 0 {
		for _, k := range sol.order {
			if k < uint64(len(sol.ivs)) && lo[k] != hi[k] {
				sol.lanes = append(sol.lanes, k)
			}
		}
	} else {
		for k := range sol.ivs {
			if lo[k] != hi[k] {
				sol.lanes = append(sol.lanes, uint64(k))
			}
		}
		byRate(sol.lanes, len(sol.ivs), func(k uint64) float64 { return sol.ivs[k].rate })
	}
	// Regula falsi on log λ between the ends' coverages, less the
	// target, the Illinois way: an end kept twice running has its value
	// halved, so the next probe reaches past the target.
	under, over := coverLo-target, sol.maxCover-target
	kept := 0 // > 0: the low end moved last, that many times running; < 0: the high end
	for span > bracketSteps && loNext < hiSlope {
		// A probe in [loNext, hiSlope) buys loNext's step and not
		// hiSlope's, so each one narrows the bracket by a step at least.
		lambda := 0.0 // zero rates: take their free steps first
		switch {
		case kept == 0 && hint > loNext && hint < hiSlope:
			lambda = hint
		case loNext > 0:
			lambda = loNext * math.Exp(under/(under-over)*math.Log(hiSlope/loNext))
		}
		if !(loNext <= lambda && lambda < hiSlope) {
			lambda = loNext
		}
		m, gain, below, above := sol.probe(lambda, lo, hi, at)
		cover := coverLo + gain // an estimate, off by far less than 1e-9·maxCover
		if math.Abs(cover-(target-1e-9)) <= 1e-9*sol.maxCover {
			cover = sol.cover(at) // too close to call on the estimate
		}
		if cover < target-1e-9 {
			lo, at, span, loNext, coverLo, under = at, lo, span-m, above, cover, cover-target
			if kept = max(kept, 0) + 1; kept > 1 {
				over /= 2
			}
		} else {
			hi, at, span, hiSlope, over = at, hi, m, below, cover-target
			if kept = min(kept, 0) - 1; kept < -1 {
				under /= 2
			}
		}
	}

	// The candidates in (slope, interval, step) order: gathered by
	// interval and step, then stably sorted by slope.
	sol.cands = slices.Grow(sol.cands[:0], span)
	for k := range sol.ivs {
		pi := &sol.ivs[k]
		for j := lo[k]; j < hi[k]; j++ {
			sol.cands = append(sol.cands, candidate{slope: pi.rate * pi.ladder[j].Sigma, k: k})
		}
	}
	slices.SortStableFunc(sol.cands, func(a, b candidate) int { return cmp.Compare(a.slope, b.slope) })

	// Walk the candidates on a running estimate of the coverage, then
	// settle the cut on exact sums (each interval's iterations, w, summed
	// in interval order) at the prefixes around it: the estimate is off
	// by rounding alone, so a cut between two ties of a long run costs a
	// few sums, not one per candidate.
	w := slices.Grow(sol.w[:0], len(sol.ivs))[:len(sol.ivs)]
	sol.w = w
	cover := 0.0
	for k := range sol.ivs {
		w[k] = sol.iterations(k, lo[k])
		cover += w[k]
	}
	i := 0 // candidates taken
	for ; i < len(sol.cands) && cover < target-1e-9; i++ {
		k := sol.cands[i].k
		next := sol.iterations(k, lo[k]+1)
		if cover+(next-w[k]) > target+1e-12 {
			break
		}
		cover += next - w[k]
		w[k], lo[k] = next, lo[k]+1
	}
	step := func(i, by int) { // take (+1) or give back (-1) candidate i
		k := sol.cands[i].k
		lo[k] += by
		w[k] = sol.iterations(k, lo[k])
	}
	sum := func() (s float64) {
		for _, x := range w {
			s += x
		}
		return s
	}
	cut := func(i int) bool { // the cut lies at or before prefix i
		if s := sum(); s >= target-1e-9 || i == len(sol.cands) {
			return true
		}
		step(i, 1)
		past := sum() > target+1e-12
		step(i, -1)
		return past
	}
	for ; !cut(i); i++ {
		step(i, 1)
	}
	for ; i > 0; i-- {
		if step(i-1, -1); !cut(i - 1) {
			step(i-1, 1)
			break
		}
	}
	if sum() >= target-1e-9 {
		sol.price = sol.cands[i-1].slope
		return lo
	}
	// Time-share candidate i's endpoints so the target is completed
	// exactly.
	c := sol.cands[i]
	was, next := w[c.k], sol.iterations(c.k, lo[c.k]+1)
	sol.price = c.slope
	sol.frac = fracStep{k: c.k, f: (target - compensatedSum(w)) / (next - was)}
	return lo
}

// bracketSteps is the most candidate steps the price search walks one
// by one: past it a probe costs less than the steps it rules out.
const bracketSteps = 16

// probe counts into n the steps each interval takes at price λ between
// the bracket's ends lo and hi — those of slope ≤ λ — and returns how
// many more than lo that is, the iterations they add (an estimate: the
// rungs' speeds, summed in rate order), the largest slope among them
// and the least slope left below hi. Lanes settled at an earlier probe
// drop out. An interval of a higher rate takes no more steps of a
// ladder, so one pointer, walked both ways over the lanes in rate
// order, finds each count a few rungs from the one before's: exact in
// any order, O(lanes + rungs) in this one.
func (sol *solution) probe(lambda float64, lo, hi, n []int) (m int, gain, below, above float64) {
	below, above = math.Inf(-1), math.Inf(1)
	c := 0
	live := sol.lanes[:0]
	for _, lane := range sol.lanes {
		k := int(lane)
		a, b := lo[k], hi[k]
		if a == b {
			n[k] = a // settled by the last probe
			continue
		}
		live = append(live, lane)
		pi := &sol.ivs[k]
		ladder := pi.ladder[:b]
		c = min(max(c, a), b)
		for c < b && pi.rate*ladder[c].Sigma <= lambda {
			c++
		}
		for c > a && pi.rate*ladder[c-1].Sigma > lambda {
			c--
		}
		n[k] = c
		if c > a {
			m += c - a
			gain += pi.dur * ladder[c-1].Speed
			if a > 0 {
				gain -= pi.dur * ladder[a-1].Speed
			}
			if s := pi.rate * ladder[c-1].Sigma; s > below {
				below = s
			}
		}
		if c < b {
			if s := pi.rate * ladder[c].Sigma; s < above {
				above = s
			}
		}
	}
	sol.lanes = live
	return m, gain, below, above
}

// normalize validates the planning inputs of an unprepared signal and
// resolves the option defaults as Window.normalize does.
func normalize(lt *frontier.LookupTable, sig *Signal, opts Options) (deadline, scale float64, obj Objective, err error) {
	if err := checkSignal(sig); err != nil {
		return 0, 0, "", err
	}
	w := Window{sig: sig}
	w.obj, _ = ParseObjective(string(opts.Objective)) // an unknown one fails below
	deadline, scale, err = w.normalize(lt, opts)
	return deadline, scale, w.obj, err
}

// Fixed plans the signal-blind baseline: run one fixed frontier point
// continuously from trace start until the target is reached (point 0
// is the always-T_min baseline; the last point is static min-energy).
// The returned plan carries the same accounting as Optimize, so the
// two are directly comparable at equal iterations completed.
func Fixed(lt *frontier.LookupTable, point int, sig *Signal, opts Options) (*Plan, error) {
	d, scale, obj, err := normalize(lt, sig, opts)
	if err != nil {
		return nil, err
	}
	if point < 0 || point >= len(lt.Points) {
		return nil, fmt.Errorf("grid: fixed baseline point %d out of range", point)
	}
	t := lt.PointTime(point)
	finish := opts.Target * t
	plan := &Plan{
		Objective:  obj,
		Target:     opts.Target,
		DeadlineS:  d,
		PowerScale: scale,
		Feasible:   finish <= d+1e-9,
		FinishS:    finish,
		Price:      -1,
	}
	if !plan.Feasible {
		// Same contract as Optimize: the plan never reaches the target
		// within the deadline, and its intervals (cut at the deadline)
		// account only the iterations that actually fit.
		plan.FinishS = -1
	}
	power := scale * lt.AvgPower(point)
	for _, iv := range sig.Truncate(d).Intervals {
		run := math.Min(iv.EndS, finish) - iv.StartS
		switch {
		case run <= 0:
			plan.Runs = appendRun(plan.Runs, Idle, nil)
			continue
		case run < iv.Duration(): // the finish cuts this interval
			plan.Runs = appendRun(plan.Runs, 0, []Slice{{Point: point, Seconds: run}})
		default:
			plan.Runs = appendRun(plan.Runs, point, nil)
		}
		energy := run * power
		plan.Iterations += run / t
		plan.EnergyJ += energy
		plan.CarbonG += energy / JoulesPerKWh * iv.CarbonGPerKWh
		plan.CostUSD += energy / JoulesPerKWh * iv.PriceUSDPerKWh
	}
	return plan, nil
}
