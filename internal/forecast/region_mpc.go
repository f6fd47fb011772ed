package forecast

import (
	"fmt"
	"math"

	"perseus/internal/grid"
	"perseus/internal/plan"
	"perseus/internal/region"
)

// ForecastRegion couples one datacenter region (whose Signal is the
// *truth* trace) with the forecast provider an operator would actually
// see for that region's grid.
type ForecastRegion struct {
	Region   region.Region
	Provider Provider
}

// RegionOptions parameterizes a multi-region rolling-horizon run.
type RegionOptions struct {
	// Objective selects what to minimize; "" means carbon.
	Objective grid.Objective

	// Migration is the fixed pause-cost of moving a job between
	// regions.
	Migration region.MigrationCost

	// DeadlineS is the run horizon in signal seconds; 0 means the
	// longest truth trace. Per-job deadlines (region.Job.DeadlineS)
	// tighten it per job.
	DeadlineS float64

	// PlanQuantile is the forecast quantile each re-plan sees; 0 or
	// 0.5 plans on the point forecast.
	PlanQuantile float64

	// HysteresisMargin controls the switching-cost rule under forecast
	// revisions: every re-plan after the first sees the migration cost
	// (downtime and transfer energy) scaled by this factor, so it only
	// migrates when the predicted savings exceed the real migration
	// cost times the margin. Execution always charges the real cost.
	// 0 means 1 (the planner's raw behavior). Margins above 1 damp
	// revision-noise flip-flopping; margins below 1 counteract
	// rolling-horizon hesitation — the shrinking remaining window
	// understates a move's value (savings accrue over the rest of the
	// run, but each re-plan only sees to the deadline), so the raw
	// controller systematically under-migrates and can lose per-seed to
	// a lucky plan-once. region_mpc_test.go pins a margin restoring
	// per-seed parity on the bundled pair.
	HysteresisMargin float64
}

// validate applies the single-region controller's rules
// (plan.Request.Validate) to the options, naming the offending field: a
// finite non-negative deadline, a quantile in [0, 1), and a finite
// non-negative margin.
func (o RegionOptions) validate() error {
	if math.IsNaN(o.DeadlineS) || math.IsInf(o.DeadlineS, 0) || o.DeadlineS < 0 {
		return fmt.Errorf("forecast: DeadlineS must be finite and non-negative, got %v", o.DeadlineS)
	}
	if math.IsNaN(o.PlanQuantile) || o.PlanQuantile < 0 || o.PlanQuantile >= 1 {
		return fmt.Errorf("forecast: PlanQuantile must be in [0, 1), got %v", o.PlanQuantile)
	}
	if math.IsNaN(o.HysteresisMargin) || math.IsInf(o.HysteresisMargin, 0) || o.HysteresisMargin < 0 {
		return fmt.Errorf("forecast: HysteresisMargin must be finite and non-negative, got %v", o.HysteresisMargin)
	}
	return nil
}

// planMigration resolves the migration cost a re-plan at decision time
// d sees: the initial plan (d = 0, committing nothing yet) and
// margin 0 keep the real cost.
func (o RegionOptions) planMigration(d float64) region.MigrationCost {
	m := o.Migration
	if d > 0 && o.HysteresisMargin > 0 {
		m.DowntimeS *= o.HysteresisMargin
		m.EnergyJ *= o.HysteresisMargin
	}
	return m
}

// RegionJobOutcome is one job's realized multi-region outcome.
type RegionJobOutcome struct {
	JobID string `json:"job_id"`

	// Iterations and the embedded plan.Account are realized against
	// each region's truth trace (migration transfer energy included);
	// the embedded plan.Predicted is what the forecasts in force
	// predicted for the same execution.
	Iterations float64 `json:"iterations"`
	plan.Account
	plan.Predicted

	// Migrations counts executed region changes; DowntimeS and
	// TransferJ total their pause cost.
	Migrations int     `json:"migrations"`
	DowntimeS  float64 `json:"downtime_s"`
	TransferJ  float64 `json:"transfer_j"`

	// Path is the executed placement per decision span ("" = paused).
	Path []string `json:"path"`

	// Feasible reports whether the job completed its target.
	Feasible bool `json:"feasible"`
}

// RegionOutcome is a multi-region controller run's realized result.
type RegionOutcome struct {
	Strategy string             `json:"strategy"`
	Plans    int                `json:"plans"`
	Jobs     []RegionJobOutcome `json:"jobs"`

	// WarmStarts counts re-plans whose forecasts were unchanged across
	// the remaining window in every region, letting descent seed from
	// the previous tick's placement instead of starting from scratch.
	WarmStarts int `json:"warm_starts,omitempty"`

	plan.Account
	plan.Predicted

	Feasible bool `json:"feasible"`
}

// ReplanRegions is the multi-region rolling-horizon controller: at
// every merged interval boundary it fetches each region's latest
// forecast, re-runs region.Optimize over the remaining window — every
// job's Origin set to the region it currently occupies, so moving away
// is charged as a migration — and executes the first span of the fresh
// joint plan against the regions' truth traces.
func ReplanRegions(regs []ForecastRegion, jobs []region.Job, opts RegionOptions) (*RegionOutcome, error) {
	return runRegions(regs, jobs, opts, true)
}

// PlanOnceRegions plans the joint schedule on the first forecasts and
// executes it to the end — the multi-region plan-once baseline.
func PlanOnceRegions(regs []ForecastRegion, jobs []region.Job, opts RegionOptions) (*RegionOutcome, error) {
	return runRegions(regs, jobs, opts, false)
}

// OracleRegions runs the perfect-foresight multi-region baseline: plan
// once on the truth traces themselves.
func OracleRegions(regions []region.Region, jobs []region.Job, opts RegionOptions) (*RegionOutcome, error) {
	regs := make([]ForecastRegion, len(regions))
	for i, r := range regions {
		regs[i] = ForecastRegion{Region: r, Provider: &Perfect{Truth: r.Signal, HorizonS: opts.DeadlineS}}
	}
	out, err := runRegions(regs, jobs, opts, false)
	if err != nil {
		return nil, err
	}
	out.Strategy = "oracle"
	return out, nil
}

func runRegions(regs []ForecastRegion, jobs []region.Job, opts RegionOptions, replanEvery bool) (*RegionOutcome, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if len(regs) == 0 {
		return nil, fmt.Errorf("forecast: region controller needs at least one region")
	}
	truths := make([]*grid.Signal, len(regs))
	maxH := 0.0
	for i := range regs {
		r := &regs[i]
		if r.Region.Signal == nil || r.Region.Signal.Horizon() <= 0 {
			return nil, fmt.Errorf("forecast: region %q needs a truth signal", r.Region.Name)
		}
		if r.Provider == nil {
			return nil, fmt.Errorf("forecast: region %q needs a forecast provider", r.Region.Name)
		}
		truths[i] = r.Region.Signal
		if h := r.Region.Signal.Horizon(); h > maxH {
			maxH = h
		}
	}
	deadline := opts.DeadlineS
	if deadline == 0 {
		deadline = maxH
	}
	q := opts.PlanQuantile
	if q == 0 {
		q = 0.5
	}

	type jobState struct {
		remaining float64
		deadline  float64
		current   string  // region currently occupied ("" = unplaced)
		pausedTo  float64 // checkpoint transfer in flight until this time
		out       RegionJobOutcome
	}
	states := make([]*jobState, len(jobs))
	for j := range jobs {
		d := jobs[j].DeadlineS
		if d <= 0 || d > deadline {
			d = deadline
		}
		states[j] = &jobState{
			remaining: jobs[j].Target,
			deadline:  d,
			current:   jobs[j].Origin,
			out:       RegionJobOutcome{JobID: jobs[j].ID},
		}
	}

	decisions := []float64{0}
	if replanEvery {
		decisions = append(decisions, grid.MergedBoundaries(truths, deadline)...)
	}

	mode := "plan-once"
	if replanEvery {
		mode = "mpc"
		if q > 0.5 {
			mode = fmt.Sprintf("mpc@q%.2f", q)
		}
	}
	out := &RegionOutcome{Strategy: regs[0].Provider.Name() + "/" + mode}

	var prevPlan *region.Plan    // previous tick's joint plan (for warm-start seeds)
	var prevD float64            // decision time it was planned at
	var prevViews []*grid.Signal // per-region q-views it was planned on (absolute time)
	for di, d := range decisions {
		end := deadline
		if di+1 < len(decisions) {
			end = decisions[di+1]
		}

		// Build the forecast view of every region at this decision time
		// and the remaining planning problem for every unfinished job.
		fregions := make([]region.Region, len(regs))
		fsignals := make([]*grid.Signal, len(regs)) // point forecasts, absolute time
		views := make([]*grid.Signal, len(regs))    // q-views, absolute time
		warm := prevPlan != nil
		for i := range regs {
			fc, err := regs[i].Provider.At(d)
			if err != nil {
				return nil, err
			}
			if err := fc.Validate(); err != nil {
				return nil, err
			}
			if fc.Signal.Horizon() < deadline-1e-9 {
				return nil, fmt.Errorf("forecast: region %q forecast horizon %v below deadline %v",
					regs[i].Region.Name, fc.Signal.Horizon(), deadline)
			}
			fsignals[i] = fc.Signal
			views[i] = fc.At(q)
			warm = warm && signalEqualWithin(prevViews[i], views[i], d, deadline)
			fregions[i] = region.Region{
				Name: regs[i].Region.Name, GPUs: regs[i].Region.GPUs,
				CapW: regs[i].Region.CapW, Signal: Window(views[i], d, deadline),
			}
		}
		var rjobs []region.Job
		var live []int
		for j := range jobs {
			st := states[j]
			if st.remaining <= 1e-9*(1+jobs[j].Target) || st.deadline <= d+1e-9 {
				continue
			}
			rj := jobs[j]
			rj.Target = st.remaining
			rj.DeadlineS = st.deadline - d
			rj.Origin = st.current
			rjobs = append(rjobs, rj)
			live = append(live, j)
		}
		if len(rjobs) == 0 {
			break
		}
		// The switching-cost margin: re-plans see a scaled migration
		// cost (see RegionOptions.HysteresisMargin), while execution
		// below always charges the real one.
		ropts := region.Options{Objective: opts.Objective, Migration: opts.planMigration(d)}
		if warm {
			// Warm start: no forecast moved inside the remaining window,
			// so the previous tick's placement is a near-optimal seed —
			// descent starts there and accepts only strict improvements.
			ropts.Seeds = seedsFromPlan(prevPlan, prevD, d, rjobs)
			out.WarmStarts++
		}
		plan, err := region.Optimize(fregions, rjobs, ropts)
		if err != nil {
			return nil, err
		}
		out.Plans++
		prevPlan, prevD, prevViews = plan, d, views

		span := end - d
		for pi, jp := range plan.Jobs {
			st := states[live[pi]]
			job := &jobs[live[pi]]
			// Residue of a checkpoint transfer begun in an EARLIER span:
			// the plan just built knows nothing about it (it only sees
			// the new Origin), so execution must keep idling through it.
			// In-span migration downtime is handled separately below: the
			// plan encodes it (compile force-idles the arrival), so the
			// cross-span residue alone must not clip work scheduled
			// before the arrival.
			pausePrev := st.pausedTo
			scale := 1.0
			if job.PowerScale > 0 {
				scale = job.PowerScale
			}
			// arrivals lists this span's migration arrival times: under a
			// sub-1 hysteresis margin the plan force-idles less than the
			// real transfer, and the overrun must be clipped at execution.
			var arrivals []float64
			spanRegion := ""
			for _, a := range jp.Assignments {
				if a.StartS >= span-1e-9 {
					break
				}
				rIdx := a.Region
				if rIdx >= 0 {
					spanRegion = plan.Regions[rIdx]
					st.current = spanRegion
				}
				if a.Migrate {
					st.out.Migrations++
					st.out.DowntimeS += opts.Migration.DowntimeS
					st.out.TransferJ += opts.Migration.EnergyJ
					st.out.EnergyJ += opts.Migration.EnergyJ
					at := d + a.StartS
					arrivals = append(arrivals, at)
					// The checkpoint transfer may outlast this decision
					// span; the residue must still pause the job after the
					// next re-plan (which only knows the new Origin).
					if until := at + opts.Migration.DowntimeS; until > st.pausedTo {
						st.pausedTo = until
					}
					if rIdx >= 0 {
						_, c, usd := grid.Accrue(truths[rIdx], at, at+1, opts.Migration.EnergyJ)
						st.out.CarbonG += c
						st.out.CostUSD += usd
						_, pc, pusd := grid.Accrue(fsignals[rIdx], at, at+1, opts.Migration.EnergyJ)
						st.out.PredCarbonG += pc
						st.out.PredCostUSD += pusd
					}
				}
			}
			st.out.Path = append(st.out.Path, spanRegion)

			// Execute the temporal plan's slices within the span, each
			// accrued against the placed region's truth trace, dropping
			// the slice time falling inside an earlier span's transfer
			// residue — the schedule is not re-packed, the work simply
			// does not happen.
			for ip := range jp.Temporal.Intervals(job.Table, jp.Signal) {
				if ip.StartS >= span-1e-9 {
					break
				}
				rIdx := regionAt(jp.Assignments, ip.StartS)
				if rIdx < 0 {
					continue
				}
				slices := ip.Slices
				absStart := d + ip.StartS
				if pausePrev > absStart {
					slices, absStart = clipPaused(slices, absStart, pausePrev)
				}
				// Downtime from migrations inside this span is encoded in
				// the plan itself (compile force-idles the arrival) — but
				// only at the margin-scaled duration. Work the plan put
				// between the scaled and the real transfer end does not
				// physically happen: clip it. Intervals before the arrival
				// are untouched (their absStart precedes it), so this is
				// exact, and a margin >= 1 never clips (the plan already
				// idles at least the real transfer).
				for _, at := range arrivals {
					until := at + opts.Migration.DowntimeS
					if absStart >= at-1e-9 && absStart < until-1e-9 {
						slices, absStart = clipPaused(slices, absStart, until)
					}
				}
				ei := executeSlices(job.Table, truths[rIdx], fsignals[rIdx], scale,
					absStart, d+math.Min(ip.EndS, span), slices)
				st.remaining -= ei.Iterations
				st.out.Iterations += ei.Iterations
				st.out.EnergyJ += ei.EnergyJ
				st.out.CarbonG += ei.CarbonG
				st.out.CostUSD += ei.CostUSD
				st.out.PredCarbonG += ei.PredCarbonG
				st.out.PredCostUSD += ei.PredCostUSD
			}
		}
	}

	out.Feasible = true
	for j, st := range states {
		st.out.Feasible = st.remaining <= 1e-6*(1+jobs[j].Target)
		if !st.out.Feasible {
			out.Feasible = false
		}
		out.EnergyJ += st.out.EnergyJ
		out.CarbonG += st.out.CarbonG
		out.CostUSD += st.out.CostUSD
		out.PredCarbonG += st.out.PredCarbonG
		out.PredCostUSD += st.out.PredCostUSD
		out.Jobs = append(out.Jobs, st.out)
	}
	return out, nil
}

// seedsFromPlan converts the previous tick's joint plan (planned at
// prevD) into warm-start seed spans for the jobs still live at the new
// decision time d: each assignment's span shifted into the new plan's
// relative time, with the already-executed part clipped away. Spans
// are time-based because the common cell grid shifts between ticks.
func seedsFromPlan(prev *region.Plan, prevD, d float64, rjobs []region.Job) map[string][]region.SeedSpan {
	live := make(map[string]bool, len(rjobs))
	for i := range rjobs {
		live[rjobs[i].ID] = true
	}
	seeds := make(map[string][]region.SeedSpan, len(rjobs))
	shift := prevD - d // previous-plan-relative -> new-plan-relative
	for i := range prev.Jobs {
		jp := &prev.Jobs[i]
		if !live[jp.JobID] {
			continue
		}
		var spans []region.SeedSpan
		for _, a := range jp.Assignments {
			start, end := a.StartS+shift, a.EndS+shift
			if end <= 1e-9 {
				continue // fully executed before the new decision time
			}
			if start < 0 {
				start = 0
			}
			name := ""
			if a.Region >= 0 {
				name = prev.Regions[a.Region]
			}
			spans = append(spans, region.SeedSpan{StartS: start, EndS: end, Region: name})
		}
		if len(spans) > 0 {
			seeds[jp.JobID] = spans
		}
	}
	return seeds
}

// clipPaused drops the slice time scheduled before `until` (slices run
// back-to-back from startS) and returns the surviving slices with the
// new execution start.
func clipPaused(slices []grid.Slice, startS, until float64) ([]grid.Slice, float64) {
	at := startS
	var out []grid.Slice
	for _, sl := range slices {
		end := at + sl.Seconds
		if end <= until {
			at = end
			continue // fully inside the transfer pause
		}
		if at < until {
			sl.Seconds = end - until
			at = until
		}
		out = append(out, sl)
		at += sl.Seconds
	}
	return out, math.Max(startS, math.Min(until, startS+sum(slices)))
}

func sum(slices []grid.Slice) float64 {
	var s float64
	for _, sl := range slices {
		s += sl.Seconds
	}
	return s
}

// regionAt finds the assignment covering relative time t and returns
// its region index (Paused when none).
func regionAt(assignments []region.Assignment, t float64) int {
	for _, a := range assignments {
		if t >= a.StartS-1e-9 && t < a.EndS-1e-9 {
			return a.Region
		}
	}
	return region.Paused
}
