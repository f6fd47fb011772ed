package forecast

import (
	"fmt"
	"math"

	"perseus/internal/frontier"
	"perseus/internal/grid"
	"perseus/internal/plan"
)

// Options parameterizes a rolling-horizon controller run. It is the
// shared planning request: Target iterations by DeadlineS (0 = the
// provider's forecast horizon, which it may not exceed) minimizing
// Objective at PowerScale, with Quantile selecting the forecast
// quantile the planner sees — 0 or 0.5 plans on the point forecast,
// higher values plan robustly against the pessimistic band (distant
// hours that merely look clean are discounted by their uncertainty).
type Options = plan.Request

// ExecutedInterval is one decision-grid interval the controller
// actually ran: the slices it executed, what the forecast in force
// predicted they would emit, and what they really did under the truth.
type ExecutedInterval struct {
	// StartS and EndS bound the interval in absolute signal seconds.
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`

	// Slices are the executed frontier-point runs, back-to-back from
	// the interval start; IdleS is the remaining pause time.
	Slices []grid.Slice `json:"slices,omitempty"`
	IdleS  float64      `json:"idle_s"`

	// Iterations are exact (they do not depend on rates), as is the
	// account's EnergyJ; CarbonG and CostUSD are realized at the truth
	// signal's rates.
	Iterations float64 `json:"iterations"`
	plan.Account

	// The embedded plan.Predicted is what the forecast in force at
	// planning time predicted for the same slices; the gap between it
	// and the account is the per-interval reconciliation drift.
	plan.Predicted

	// Replanned marks the first interval executed after a fresh plan.
	Replanned bool `json:"replanned,omitempty"`
}

// Outcome is a controller run's realized result, accrued against the
// truth trace (never the forecast).
type Outcome struct {
	// Strategy names the run (provider + mode) for tables.
	Strategy string `json:"strategy"`

	// Target and DeadlineS echo the inputs (deadline resolved).
	Target    float64 `json:"target_iterations"`
	DeadlineS float64 `json:"deadline_s"`

	// Plans counts planner invocations (plan-once runs have exactly 1).
	Plans int `json:"plans"`

	// WarmStarts counts decision ticks that skipped re-optimization
	// because the forecast was unchanged across the remaining window —
	// the previous plan's suffix is still optimal and keeps executing.
	WarmStarts int `json:"warm_starts,omitempty"`

	// Feasible reports whether the target was actually completed by the
	// deadline under the truth.
	Feasible bool `json:"feasible"`

	// FinishS is the time the target was reached (-1 when it never was).
	FinishS float64 `json:"finish_s"`

	// Iterations and the embedded plan.Account total the realized run;
	// the embedded plan.Predicted totals what the forecasts in force
	// predicted for the executed slices.
	Iterations float64 `json:"iterations"`
	plan.Account
	plan.Predicted

	// Intervals holds the executed intervals in time order.
	Intervals []ExecutedInterval `json:"intervals"`
}

// PlanOnce plans on the provider's first forecast (issued at t = 0) and
// executes that plan to the end, come what may — the baseline every
// operational deployment starts from, and the one MPC must beat.
func PlanOnce(lt *frontier.LookupTable, prov Provider, truth *grid.Signal, opts Options) (*Outcome, error) {
	return run(lt, prov, truth, opts, false)
}

// Replan is the rolling-horizon MPC controller: at every interval
// boundary of the forecast grid it fetches the latest forecast,
// freezes everything already executed, and re-runs grid.Optimize over
// the remaining window with the remaining target — so the schedule
// continuously absorbs forecast revisions instead of compounding the
// first forecast's error. With PlanQuantile > 0.5 every re-plan is
// robust: it plans against the pessimistic quantile band.
func Replan(lt *frontier.LookupTable, prov Provider, truth *grid.Signal, opts Options) (*Outcome, error) {
	return run(lt, prov, truth, opts, true)
}

// Oracle runs the perfect-foresight baseline through the same
// executor: plan once on the truth itself. Its realized objective is
// the regret reference for every forecast-driven run.
func Oracle(lt *frontier.LookupTable, truth *grid.Signal, opts Options) (*Outcome, error) {
	out, err := run(lt, &Perfect{Truth: truth, HorizonS: opts.DeadlineS}, truth, opts, false)
	if err != nil {
		return nil, err
	}
	out.Strategy = "oracle"
	return out, nil
}

// Stepper is one job's rolling-horizon state: what it plans (table,
// target, deadline, objective, scale, quantile), the truth it executes
// against, the plan in force, and everything executed so far. The
// offline controllers (PlanOnce, Replan, Oracle) loop over it, the
// region controller holds one per job, and the server one per rolling
// schedule, so all of them execute and account through ExecuteTo.
// Fields other than Table and Scale (which a re-characterization may
// refresh between steps) are read-only outside the stepper, save that
// the region controller installs each joint plan's share itself.
type Stepper struct {
	Table     *frontier.LookupTable
	Truth     *grid.Signal
	Target    float64
	DeadlineS float64
	Objective grid.Objective
	Scale     float64
	Quantile  float64 // planning quantile; 0 plans on the point forecast

	// At is the signal time executed up to.
	At float64

	// Plan is the plan in force (nil when none: target complete, deadline
	// passed, or the last solve failed), planned on a window of the
	// forecast whose times are relative to PlanAt. Remaining is the work
	// still to cover, kept by successive subtraction of each executed
	// interval's iterations.
	Plan      *grid.Plan
	PlanAt    float64
	Remaining float64

	// Intervals are the executed intervals in time order; Iterations
	// and the embedded totals are their running sums. Plans counts
	// solves, WarmStarts the re-plans that kept the plan in force.
	Intervals  []ExecutedInterval
	Iterations float64
	plan.Account
	plan.Predicted
	Plans      int
	WarmStarts int

	view   *grid.Signal // quantile view Plan was solved on (absolute time)
	window *grid.Signal // the window of view Plan was solved on (relative to PlanAt)
	point  *grid.Signal // latest point forecast, what executed slices were predicted at
	place  *placement   // a region controller job's placement; nil runs on Truth and point
}

// NewStepper starts a rolling schedule at signal time startS. The
// request's deadline must already be resolved (positive).
func NewStepper(lt *frontier.LookupTable, truth *grid.Signal, req Options, startS float64) *Stepper {
	return &Stepper{
		Table: lt, Truth: truth, Target: req.Target, DeadlineS: req.DeadlineS,
		Objective: req.Objective, Scale: req.Scale(), Quantile: req.Quantile,
		At: startS, PlanAt: startS, Remaining: req.Target,
	}
}

func (s *Stepper) done() bool { return s.Remaining <= 1e-9*(1+s.Target) }

// Open reports whether there is anything left to plan: work remains
// and the deadline is still ahead.
func (s *Stepper) Open() bool { return !s.done() && s.At < s.DeadlineS-1e-9 }

// Stalled reports an open schedule with no plan in force — the last
// solve failed — so the caller should Replan again even though neither
// time nor forecast moved.
func (s *Stepper) Stalled() bool { return s.Plan == nil && s.Open() }

// Feasible reports whether the target is complete or the plan in force
// still completes it by the deadline.
func (s *Stepper) Feasible() bool { return s.done() || (s.Plan != nil && s.Plan.Feasible) }

// ExecuteTo runs the plan in force over [At, t) against the truth and
// advances At to t, one executed interval per interval of the window
// the plan was solved on. Plan intervals are clipped at both ends: one
// that straddles At (a kept plan whose earlier part already ran and was
// recorded, idle tail included) resumes from At, one that straddles t
// stops there. A region controller's job runs each interval in the
// region its placement names and skips the ones it pauses.
func (s *Stepper) ExecuteTo(t float64) {
	if s.Plan != nil {
		for ip := range s.Plan.Intervals(s.Table, s.window) {
			absStart, absEnd := s.PlanAt+ip.StartS, s.PlanAt+ip.EndS
			if absEnd <= s.At+1e-9 {
				continue // executed by an earlier step
			}
			slices := ip.Slices
			if absStart < s.At {
				slices, _ = clipPaused(slices, absStart, s.At)
				absStart = s.At
			}
			if absStart >= t-1e-9 {
				break
			}
			truth, point := s.Truth, s.point
			if s.place != nil {
				var ok bool
				if truth, point, ok = s.place.run(ip.StartS); !ok {
					continue
				}
			}
			if absEnd > t {
				absEnd = t
			}
			ei := executeSlices(s.Table, truth, point, s.Scale, absStart, absEnd, slices)
			ei.Replanned = len(s.Intervals) == 0 || s.Intervals[len(s.Intervals)-1].EndS <= s.PlanAt
			s.Remaining -= ei.Iterations
			s.Iterations += ei.Iterations
			s.Account.Accumulate(ei.Account)
			s.Predicted.Accumulate(ei.Predicted)
			s.Intervals = append(s.Intervals, ei)
		}
	}
	if t > s.At {
		s.At = t
	}
}

// View is the quantile view the plan in force was solved on, in
// absolute signal time. It may be shared with other steppers: read-only.
func (s *Stepper) View() *grid.Signal { return s.view }

// Replan decides the plan for [At, DeadlineS) under forecast fc, whose
// signal at the stepper's quantile is view — fc.At(s.Quantile), or one
// copy of it serving every stepper that plans fc at that quantile: the
// stepper keeps the pointer and only ever reads it. It reports whether
// the plan is a fresh one. The single warm rule: when view agrees
// exactly with the one the plan in force was solved on over the whole
// remaining window — the revision touched only executed or
// beyond-deadline intervals — the plan's suffix is still the optimum
// for the remaining work and is kept. Otherwise solve plans target
// iterations on Window(view, from, to), the remaining window, and
// returns the plan with that window, which it may likewise share
// between steppers with the same bounds (the solver and the stepper
// only read it); a failed solve leaves no plan in force. A schedule
// that is not Open drops its plan and ignores fc and view.
func (s *Stepper) Replan(fc *Forecast, view *grid.Signal, solve func(view *grid.Signal, from, to, target float64) (*grid.Plan, *grid.Signal, error)) (bool, error) {
	if !s.Open() {
		s.Plan, s.PlanAt = nil, s.At
		return false, nil
	}
	s.point = fc.Signal
	if s.Plan != nil && signalEqualWithin(s.view, view, s.At, s.DeadlineS) {
		s.WarmStarts++
		return false, nil
	}
	s.Plan, s.PlanAt = nil, s.At
	p, window, err := solve(view, s.At, s.DeadlineS, s.Remaining)
	if err != nil {
		return false, err
	}
	s.Plan, s.view, s.window = p, view, window
	s.Plans++
	return true, nil
}

// run drives one Stepper over the decision grid. Forecast intervals
// must align with the truth's cyclic interval grid (all bundled
// providers guarantee this); execution clips slices at decision
// boundaries regardless, so a misaligned provider degrades accounting
// resolution, not correctness.
func run(lt *frontier.LookupTable, prov Provider, truth *grid.Signal, opts Options, replanEvery bool) (*Outcome, error) {
	if prov == nil {
		return nil, fmt.Errorf("forecast: controller needs a provider")
	}
	if truth == nil || truth.Horizon() <= 0 {
		return nil, fmt.Errorf("forecast: controller needs a truth signal")
	}
	if err := truth.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}

	fc, err := prov.At(0)
	if err != nil {
		return nil, err
	}
	if err := fc.Validate(); err != nil {
		return nil, err
	}
	opts.DeadlineS, err = opts.ResolveDeadline(fc.Signal.Horizon())
	if err != nil {
		return nil, err
	}
	if opts.DeadlineS <= 0 {
		return nil, fmt.Errorf("forecast: deadline must be positive, got %v", opts.DeadlineS)
	}

	// Decision times: t = 0, then (under re-planning) every forecast-
	// grid interval boundary before the deadline; the last plan runs to
	// the deadline.
	decisions := []float64{0}
	mode := "plan-once"
	if replanEvery {
		for _, iv := range fc.Signal.Intervals {
			if iv.EndS < opts.DeadlineS {
				decisions = append(decisions, iv.EndS)
			}
		}
		mode = "mpc"
		if q := opts.PlanQuantile(); q > 0.5 {
			mode = fmt.Sprintf("mpc@q%.2f", q)
		}
	}
	decisions = append(decisions, opts.DeadlineS)

	// One solver's buffers serve every decision of the episode.
	var solver grid.Solver
	st := NewStepper(lt, truth, opts, 0)
	solve := func(view *grid.Signal, from, to, target float64) (*grid.Plan, *grid.Signal, error) {
		window := Window(view, from, to)
		p, err := solver.Optimize(st.Table, window, grid.Options{
			Target: target, Objective: st.Objective, PowerScale: st.Scale,
		})
		return p, window, err
	}
	for di, d := range decisions[:len(decisions)-1] {
		if !st.Open() {
			break
		}
		if di > 0 {
			if fc, err = prov.At(d); err != nil {
				return nil, err
			}
			if err := fc.Validate(); err != nil {
				return nil, err
			}
		}
		if _, err := st.Replan(fc, fc.At(st.Quantile), solve); err != nil {
			return nil, err
		}
		st.ExecuteTo(decisions[di+1])
	}
	return &Outcome{
		Strategy:   prov.Name() + "/" + mode,
		Target:     opts.Target,
		DeadlineS:  opts.DeadlineS,
		Plans:      st.Plans,
		WarmStarts: st.WarmStarts,
		Feasible:   st.Iterations >= opts.Target-1e-6*(1+opts.Target),
		FinishS:    finishTime(lt, st.Intervals, opts.Target),
		Iterations: st.Iterations,
		Account:    st.Account,
		Predicted:  st.Predicted,
		Intervals:  st.Intervals,
	}, nil
}

// finishTime locates the instant the executed intervals' cumulative
// iterations reached the target (-1 when they never did).
func finishTime(lt *frontier.LookupTable, intervals []ExecutedInterval, target float64) float64 {
	var done float64
	for _, ei := range intervals {
		if done+ei.Iterations < target-1e-9 {
			done += ei.Iterations
			continue
		}
		need := target - done
		at := ei.StartS
		for _, sl := range ei.Slices {
			rate := 1 / lt.PointTime(sl.Point)
			if got := sl.Seconds * rate; got < need {
				need -= got
				at += sl.Seconds
			} else {
				at += need / rate
				break
			}
		}
		return at
	}
	return -1
}

// signalEqualWithin reports whether two absolute-time signals agree
// exactly (same boundaries, rates, and caps) on every interval
// overlapping (from, to) — the warm-start test: a forecast revision
// that only touched intervals outside the remaining planning window
// leaves the plan built on the old signal optimal. Exact float
// equality is deliberate: anything less re-plans, which is always
// correct, just colder.
func signalEqualWithin(a, b *grid.Signal, from, to float64) bool {
	if a == nil || b == nil {
		return false
	}
	overlapFrom := func(ivs []grid.Interval, k int) int {
		for k < len(ivs) && ivs[k].EndS <= from+1e-9 {
			k++
		}
		return k
	}
	i, j := 0, 0
	for {
		i, j = overlapFrom(a.Intervals, i), overlapFrom(b.Intervals, j)
		aDone := i >= len(a.Intervals) || a.Intervals[i].StartS >= to-1e-9
		bDone := j >= len(b.Intervals) || b.Intervals[j].StartS >= to-1e-9
		if aDone || bDone {
			return aDone && bDone
		}
		if a.Intervals[i] != b.Intervals[j] {
			return false
		}
		i++
		j++
	}
}

// executeSlices runs a planned interval's slices (back-to-back from
// the interval start, clipped at the interval end) against the truth,
// accounting realized emissions at the truth's rates and predicted
// ones at the planning forecast's. It is the accounting primitive of
// ExecuteTo.
func executeSlices(lt *frontier.LookupTable, truth, predicted *grid.Signal, scale, startS, endS float64, slices []grid.Slice) ExecutedInterval {
	ei := ExecutedInterval{StartS: startS, EndS: endS}
	at := startS
	for _, sl := range slices {
		sec := math.Min(sl.Seconds, endS-at)
		if sec <= 0 {
			break
		}
		power := scale * lt.AvgPower(sl.Point)
		_, carbon, cost := grid.Accrue(truth, at, at+sec, power)
		_, pCarbon, pCost := grid.Accrue(predicted, at, at+sec, power)
		ei.Slices = append(ei.Slices, grid.Slice{Point: sl.Point, Seconds: sec})
		ei.Iterations += sec / lt.PointTime(sl.Point)
		ei.EnergyJ += sec * power
		ei.CarbonG += carbon
		ei.CostUSD += cost
		ei.PredCarbonG += pCarbon
		ei.PredCostUSD += pCost
		at += sec
	}
	ei.IdleS = endS - at
	return ei
}
