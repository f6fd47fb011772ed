package grid

import (
	"fmt"
	"iter"
	"math"
	"slices"

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

	// NoIdle forbids pausing: every interval must run some frontier
	// point (except intervals whose cap excludes every point). Without
	// it the planner may idle the job through dirty hours — temporal
	// load shifting. With it the plan may overshoot Target, since the
	// slowest point still makes progress.
	NoIdle bool
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
	// slope of the greedy's last step. Every interval's choice minimizes
	// cost − λ·iterations over its allowed points (idle included unless
	// NoIdle), and a time-shared interval's two states tie — the dual
	// certificate that the plan is optimal. 0 when the target needed no
	// step (NoIdle alone covers it); -1 when the plan has no price
	// (infeasible, or a Fixed baseline), kept finite like FinishS.
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

// planInterval is the solver's working state for one interval. Its
// states are solver positions (see solution.pts): the descent steps one
// position faster at a time, except that a capped interval whose floor
// is off the table's hull leaves the hull at join for its own prefix,
// entering it at tail.
type planInterval struct {
	iv   Interval
	dur  float64
	perJ float64 // objective weight per joule
	c    float64 // perJ·scale·dur: what every descent step's dc multiplies
	work float64 // dur/tm[cur], carried from the step that reached cur; 0 idle
	lo   int     // fastest allowed position under the interval cap
	join int     // hull position stepped from into tail; -1 when lo is on the hull
	tail int     // slowest position of the interval's own prefix
	only bool    // idle-only: even the slowest point violates the cap
	cur  int     // current descent state; -1 = idle
	next step    // the one pending step out of cur (valid while its key is in the walk)
}

// capPrefix is the hull prefix of one cap floor, the fastest table
// point a cap allows: the vertices of the hull of table points floor..h
// faster than h, the first table hull point after floor (hull position
// join). They sit at solver positions pos..tail, fastest first.
type capPrefix struct {
	floor, pos, join, tail int
}

// step is one marginal segment of an interval's cost-vs-iterations
// frontier: moving the interval from its current state (-1 = idle) to
// state `to` buys dw iterations at cost dc and leaves it doing w
// iterations. Segments are divisible — taking fraction f of a step
// time-shares the two states within the interval.
type step struct {
	to        int
	w, dw, dc float64
}

// fracStep is the single partially taken step of a solution: fraction
// f of interval k's step from → to (f·dur seconds at to, the rest at
// from or idle). k is -1 when every taken step was whole.
type fracStep struct {
	k, from, to int
	f           float64
}

// solution is the solver outcome, carrying the normalized inputs it
// was solved under: each interval's descent state and at most one
// fractional step. A solution's buffers are reusable: solving into the
// same value again truncates and refills them instead of re-allocating.
type solution struct {
	ivs []planInterval
	// pts maps a solver position to its table index: first the table's
	// hull, slowest last, then the cap prefixes. tm and pw hold
	// lt.PointTime and lt.AvgPower of each position.
	pts      []int
	tm, pw   []float64
	slowest  int // the hull's last position: the table's slowest point
	prefixes []capPrefix
	hull     []int // scratch for frontier.LookupTable.HullOf
	heap     []frontier.Key
	frac     fracStep
	steps    int     // greedy steps taken, the fractional one included
	price    float64 // slope of the last step taken: Plan.Price
	coverage float64
	cost     float64
	feasible bool
	maxCover float64
	deadline float64
	scale    float64
	obj      Objective
}

// nextStep sets pi.next to the interval's next marginal step — wake up
// at the slowest point, then one hull vertex faster at a time — and
// returns its key; false once the interval is saturated at its cap
// floor. A step costs the two divisions that are new in it: w and the
// slope.
func (sol *solution) nextStep(k int32) (frontier.Key, bool) {
	pi := &sol.ivs[k]
	if pi.only || pi.cur == pi.lo {
		return frontier.Key{}, false
	}
	st := &pi.next
	if pi.cur < 0 {
		// First step: wake up at the slowest point, the hull's last.
		st.to = sol.slowest
		st.w = pi.dur / sol.tm[st.to]
		st.dw = st.w
		st.dc = pi.perJ * sol.scale * sol.pw[st.to] * pi.dur
	} else {
		st.to = pi.cur - 1
		if pi.cur == pi.join {
			st.to = pi.tail
		}
		st.w = pi.dur / sol.tm[st.to]
		st.dw = st.w - pi.work
		st.dc = pi.c * (sol.pw[st.to] - sol.pw[pi.cur])
	}
	return frontier.Key{Slope: st.dc / st.dw, Lane: k}, true
}

// addPoint appends table point i as the next solver position.
func (sol *solution) addPoint(lt *frontier.LookupTable, i int) {
	sol.pts = append(sol.pts, i)
	sol.tm = append(sol.tm, lt.PointTime(i))
	sol.pw = append(sol.pw, lt.AvgPower(i))
}

// floor maps a cap's floor f (a table index) to the interval's fastest
// allowed solver position. When f is off the hull it also returns the
// interval's detour: stepping faster from hull position join enters the
// floor's prefix at tail. Intervals with one floor share one prefix.
func (sol *solution) floor(lt *frontier.LookupTable, hull []int, f int) (lo, join, tail int) {
	j, _ := slices.BinarySearch(hull, f)
	if hull[j] == f {
		return j, -1, 0
	}
	for _, c := range sol.prefixes {
		if c.floor == f {
			return c.pos, c.join, c.tail
		}
	}
	c := capPrefix{floor: f, pos: len(sol.pts), join: j}
	sol.hull = lt.HullOf(sol.hull[:0], f, hull[j])
	for _, i := range sol.hull[:len(sol.hull)-1] {
		sol.addPoint(lt, i)
	}
	c.tail = len(sol.pts) - 1
	sol.prefixes = append(sol.prefixes, c)
	return c.pos, c.join, c.tail
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

// normalize validates the planning inputs shared by Optimize and Fixed
// and resolves the option defaults through the shared plan.Request
// rules: deadline 0 means the signal horizon (and may not exceed it),
// PowerScale <= 0 means 1, objective "" means carbon.
func normalize(lt *frontier.LookupTable, sig *Signal, opts Options) (deadline, scale float64, obj Objective, err error) {
	if lt == nil || len(lt.Points) == 0 {
		return 0, 0, "", fmt.Errorf("grid: planning needs a characterized frontier table")
	}
	if sig == nil {
		return 0, 0, "", fmt.Errorf("grid: planning needs a signal")
	}
	if err := sig.Validate(); err != nil {
		return 0, 0, "", err
	}
	req := opts.request()
	if err := req.Validate(); err != nil {
		return 0, 0, "", err
	}
	if deadline, err = req.ResolveDeadline(sig.Horizon()); err != nil {
		return 0, 0, "", err
	}
	obj, _ = ParseObjective(string(opts.Objective))
	return deadline, req.Scale(), obj, nil
}

// Optimize plans a job's temporal schedule over the signal: one
// frontier operating point (or pause) per interval, minimizing the
// objective subject to completing opts.Target iterations by the
// deadline and to each interval's facility power cap.
//
// The solver is a greedy ascent over the merged per-interval marginal
// segments, a frontier.Descend like fleet.Allocate's walk down each
// job's power hull: every interval starts at its cheapest state (idle,
// or the minimum-energy point under NoIdle), and the planner repeatedly
// buys iterations at the cheapest marginal objective cost — waking an
// interval at its minimum-energy point or stepping it one point
// faster — taking the final step fractionally (time-sharing the two
// states within the interval) so the plan completes the target
// exactly.
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
// vertices only (LookupTable.Hull, plus a short prefix when a cap's
// floor is off the hull), so each interval's cost is a convex
// piecewise-linear function of its iterations, whatever the table's
// shape. The global problem is then a separable convex allocation whose
// exact optimum is the greedy fill in marginal-cost order with at most
// one fractional segment, and the last slope taken is its price λ
// (Plan.Price). plan_test.go verifies exactness against continuous
// brute-force enumeration and checks the λ certificate on every plan.
func Optimize(lt *frontier.LookupTable, sig *Signal, opts Options) (*Plan, error) {
	var s Solver
	return s.Optimize(lt, sig, opts)
}

// Solver is a reusable temporal-planner instance: repeated Optimize and
// Evaluate calls on one Solver share the greedy's working buffers, so
// hot callers — a controller tick's roll-forwards, the region planner's
// candidate descent (thousands of composite signals per plan) — avoid
// re-allocating the per-interval state on every solve. The zero value
// is ready; a Solver is not safe for concurrent use.
type Solver struct {
	sol solution
	buf []Slice
}

// Steps returns the greedy steps the last solve took (0 when it was
// infeasible: best effort takes none).
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
		s.buf = sol.intervalSlices(k, s.buf[:0])
		var iters, energy float64
		for _, sl := range s.buf {
			iters += sl.Seconds / sol.tm[sl.Point]
			energy += sl.Seconds * sol.scale * sol.pw[sl.Point]
		}
		pi := &sol.ivs[k]
		if !finished && out.Iterations+iters >= target-1e-9 {
			// The target lands inside this interval.
			finished = true
			need := remaining
			finishS = pi.iv.StartS
			for _, sl := range s.buf {
				rate := 1 / sol.tm[sl.Point]
				if got := sl.Seconds * rate; got < need {
					need -= got
					finishS += sl.Seconds
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

// Optimize plans via the solver's reusable buffers; see the package
// Optimize for semantics. The returned Plan is freshly allocated (it
// does not alias the solver): its runs in one array, the time-shared
// interval's slices in another.
func (s *Solver) Optimize(lt *frontier.LookupTable, sig *Signal, opts Options) (*Plan, error) {
	if err := s.sol.solve(lt, sig, opts); err != nil {
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
	point := func(k int) int {
		if cur := sol.ivs[k].cur; cur >= 0 {
			return sol.pts[cur]
		}
		return Idle
	}
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
		slices := sol.intervalSlices(k, make([]Slice, 0, 2))
		for i := range slices {
			slices[i].Point = sol.pts[slices[i].Point]
		}
		runs = appendRun(runs, 0, slices)
	}
	return runs
}

// intervalSlices appends interval k's planned slices to buf, with solver
// positions for points: the fractional interval time-shares its step's
// endpoints — f·dur seconds at the faster state, the rest at the slower
// one (or idle) — and any other awake interval runs its descent state
// for its whole duration.
func (sol *solution) intervalSlices(k int, buf []Slice) []Slice {
	pi := &sol.ivs[k]
	if fs := sol.frac; fs.k == k {
		fast := fs.f * pi.dur
		buf = append(buf, Slice{Point: fs.to, Seconds: fast})
		if fs.from >= 0 {
			buf = append(buf, Slice{Point: fs.from, Seconds: pi.dur - fast})
		}
	} else if pi.cur >= 0 {
		buf = append(buf, Slice{Point: pi.cur, Seconds: pi.dur})
	}
	return buf
}

// solve runs the marginal-cost greedy, filling the solution in place:
// its buffers from any previous run are truncated and reused.
func (sol *solution) solve(lt *frontier.LookupTable, sig *Signal, opts Options) error {
	d, scale, obj, err := normalize(lt, sig, opts)
	if err != nil {
		return err
	}

	// The hull's times and powers, once per solve: each is a multiply and
	// a division away from the table's fields, and read every step. The
	// hull index itself is cached on the table.
	hull := lt.Hull()
	n := len(hull)
	sol.pts, sol.tm, sol.pw = slices.Grow(sol.pts[:0], n), slices.Grow(sol.tm[:0], n), slices.Grow(sol.pw[:0], n)
	for _, i := range hull {
		sol.addPoint(lt, i)
	}
	sol.slowest = len(hull) - 1
	minPow := sol.pw[sol.slowest] // slowest point's draw: any cap below it forces idle
	sol.prefixes = sol.prefixes[:0]
	sol.ivs = slices.Grow(sol.ivs[:0], len(sig.Intervals))
	sol.frac = fracStep{k: -1}
	sol.steps, sol.price = 0, 0
	sol.coverage, sol.cost, sol.maxCover = 0, 0, 0
	sol.deadline, sol.scale, sol.obj = d, scale, obj
	for _, iv := range sig.Intervals {
		// Inline Signal.Truncate: cut at the deadline without copying.
		if iv.StartS >= d {
			break
		}
		if iv.EndS > d {
			iv.EndS = d
		}
		pi := planInterval{iv: iv, dur: iv.Duration(), perJ: PerJoule(obj, iv), cur: -1, lo: 0, join: -1}
		pi.c = pi.perJ * scale * pi.dur
		if iv.CapW > 0 {
			if maxW := iv.CapW / scale; maxW < minPow {
				pi.only = true // cap excludes every point: forced idle
			} else {
				pi.lo, pi.join, pi.tail = sol.floor(lt, hull, lt.FirstUnderPower(maxW))
			}
		}
		if !pi.only {
			sol.maxCover += pi.dur / sol.tm[pi.lo]
			if opts.NoIdle {
				pi.cur = sol.slowest
				pi.work = pi.dur / sol.tm[pi.cur]
				sol.coverage += pi.work
				sol.cost += pi.perJ * scale * sol.pw[pi.cur] * pi.dur
			}
		}
		sol.ivs = append(sol.ivs, pi)
	}
	sol.feasible = sol.maxCover >= opts.Target-1e-9

	if !sol.feasible {
		// Best effort: everything at the fastest allowed point.
		for k := range sol.ivs {
			pi := &sol.ivs[k]
			if pi.only {
				continue
			}
			pi.cur = pi.lo
		}
		sol.coverage = sol.maxCover
		sol.price = -1
		return nil
	}

	// Greedy fill: cheapest marginal objective cost per iteration
	// first. Each interval's available step is its next one — wake up
	// at the minimum-energy point, then one hull vertex faster at a
	// time — and per-interval slopes along a hull are non-decreasing
	// (see Optimize), so the global cheapest-available order is the
	// global slope order. The final step is taken fractionally, so the
	// fill never overshoots the target.
	//
	// An interval's available step only changes when its current one is
	// taken, so the fill is a frontier.Descend over (slope, index) keys,
	// whose strict total order keeps the pick sequence, and hence every
	// float accumulation, bit-identical to a sequential scan. On a
	// characterized table the interval that was cheapest usually still
	// is after its step, and Descend steps it again without a sift.
	sol.heap = slices.Grow(sol.heap[:0], len(sol.ivs))
	for k := range sol.ivs {
		if key, ok := sol.nextStep(int32(k)); ok {
			sol.heap = append(sol.heap, key)
		}
	}
	sol.heap = frontier.Descend(sol.heap, func(key frontier.Key) (frontier.Key, bool, bool) {
		if sol.coverage >= opts.Target-1e-9 {
			return frontier.Key{}, false, true
		}
		pi := &sol.ivs[key.Lane]
		st := pi.next
		sol.steps++
		sol.price = key.Slope
		if need := opts.Target - sol.coverage; st.dw > need+1e-12 {
			// Final fractional take: time-share the step's endpoints so
			// the target is completed exactly. (Under NoIdle every
			// interval is already awake, so the shared states both run —
			// no idle time is introduced.)
			f := need / st.dw
			sol.frac = fracStep{k: int(key.Lane), from: pi.cur, to: st.to, f: f}
			sol.coverage += need
			sol.cost += f * st.dc
			return frontier.Key{}, false, true
		}
		pi.cur, pi.work = st.to, st.w
		sol.coverage += st.dw
		sol.cost += st.dc
		next, ok := sol.nextStep(key.Lane)
		return next, ok, false
	})
	return nil
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
