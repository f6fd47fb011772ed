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

// runRegions carries every job forward on a Stepper of its own: each
// decision solves the joint plan on the latest forecasts, installs each
// live job's temporal plan and placement in its stepper, charges the
// migrations the span begins, and executes the span.
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

	steps := make([]*Stepper, len(jobs))
	origins := make([]string, len(jobs)) // region each job occupies ("" = unplaced)
	out := &RegionOutcome{Jobs: make([]RegionJobOutcome, len(jobs))}
	for j := range jobs {
		d := jobs[j].DeadlineS
		if d <= 0 || d > deadline {
			d = deadline
		}
		steps[j] = NewStepper(jobs[j].Table, nil, Options{Target: jobs[j].Target, DeadlineS: d, PowerScale: jobs[j].PowerScale}, 0)
		steps[j].place = &placement{truths: truths, downtimeS: opts.Migration.DowntimeS}
		origins[j] = jobs[j].Origin
		out.Jobs[j].JobID = jobs[j].ID
	}

	decisions := []float64{0}
	mode := "plan-once"
	if replanEvery {
		decisions = append(decisions, grid.MergedBoundaries(truths, deadline)...)
		mode = "mpc"
		if q > 0.5 {
			mode = fmt.Sprintf("mpc@q%.2f", q)
		}
	}
	out.Strategy = regs[0].Provider.Name() + "/" + mode

	for di, d := range decisions {
		end := deadline
		if di+1 < len(decisions) {
			end = decisions[di+1]
		}

		// Build the forecast view of every region at this decision time
		// and the remaining planning problem for every unfinished job.
		fregions := make([]region.Region, len(regs))
		fsignals := make([]*grid.Signal, len(regs)) // point forecasts, absolute time
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
			fregions[i] = region.Region{
				Name: regs[i].Region.Name, GPUs: regs[i].Region.GPUs,
				CapW: regs[i].Region.CapW, Signal: Window(fc.At(q), d, deadline),
			}
		}
		var rjobs []region.Job
		var live []int
		for j, st := range steps {
			if !st.Open() {
				continue
			}
			rj := jobs[j]
			rj.Target = st.Remaining
			rj.DeadlineS = st.DeadlineS - d
			rj.Origin = origins[j]
			rjobs = append(rjobs, rj)
			live = append(live, j)
		}
		if len(rjobs) == 0 {
			break
		}
		// The switching-cost margin: re-plans see a scaled migration
		// cost (see RegionOptions.HysteresisMargin), while execution
		// always charges the real one.
		plan, err := region.Optimize(fregions, rjobs, region.Options{Objective: opts.Objective, Migration: opts.planMigration(d)})
		if err != nil {
			return nil, err
		}
		out.Plans++

		span := end - d
		for pi, jp := range plan.Jobs {
			j := live[pi]
			st, jo := steps[j], &out.Jobs[j]
			st.Plan, st.PlanAt, st.window = jp.Temporal, d, jp.Signal
			st.place.install(jp.Assignments, fsignals)
			spanRegion := ""
			for _, a := range jp.Assignments {
				if a.StartS >= span-1e-9 {
					break
				}
				rIdx := a.Region
				if rIdx >= 0 {
					spanRegion = plan.Regions[rIdx]
					origins[j] = spanRegion
				}
				if a.Migrate {
					jo.Migrations++
					jo.DowntimeS += opts.Migration.DowntimeS
					jo.TransferJ += opts.Migration.EnergyJ
					st.EnergyJ += opts.Migration.EnergyJ
					at := d + a.StartS
					st.place.arrivals = append(st.place.arrivals, at)
					if rIdx >= 0 {
						_, c, usd := grid.Accrue(truths[rIdx], at, at+1, opts.Migration.EnergyJ)
						st.CarbonG += c
						st.CostUSD += usd
						_, pc, pusd := grid.Accrue(fsignals[rIdx], at, at+1, opts.Migration.EnergyJ)
						st.PredCarbonG += pc
						st.PredCostUSD += pusd
					}
				}
			}
			jo.Path = append(jo.Path, spanRegion)
			st.ExecuteTo(end)
		}
	}

	out.Feasible = true
	for j, st := range steps {
		jo := &out.Jobs[j]
		jo.Iterations, jo.Account, jo.Predicted = st.Iterations, st.Account, st.Predicted
		jo.Feasible = st.Remaining <= 1e-6*(1+st.Target)
		out.Feasible = out.Feasible && jo.Feasible
		out.Account.Accumulate(jo.Account)
		out.Predicted.Accumulate(jo.Predicted)
	}
	return out, nil
}

// placement is a region controller job's share of the joint plan in
// force: the region each stretch of it runs in (relative to the
// stepper's PlanAt), every region's truth and point forecast, and the
// checkpoint transfers that pause the job.
type placement struct {
	cells          []region.Assignment
	truths, points []*grid.Signal // by region index
	downtimeS      float64        // a transfer's real duration
	pausedTo       float64        // a transfer begun before the plan idles the job until then
	arrivals       []float64      // arrival times of the transfers the plan begins
}

// install puts a fresh plan's placement in force: the transfers the
// previous plan began become residue the new plan knows nothing about
// (it only sees the new Origin).
func (p *placement) install(cells []region.Assignment, points []*grid.Signal) {
	for _, at := range p.arrivals {
		p.pausedTo = max(p.pausedTo, at+p.downtimeS)
	}
	p.cells, p.points, p.arrivals = cells, points, p.arrivals[:0]
}

// run resolves the plan interval starting startS into the plan (at
// absStart in signal time): the truth and point forecast of the region
// it runs in (ok false when the job is paused there) and its slices
// with the time inside a checkpoint transfer dropped — the schedule is
// not re-packed, the work simply does not happen.
func (p *placement) run(startS, absStart float64, slices []grid.Slice) (truth, point *grid.Signal, _ []grid.Slice, _ float64, ok bool) {
	r := regionAt(p.cells, startS)
	if r < 0 {
		return nil, nil, nil, 0, false
	}
	if p.pausedTo > absStart {
		slices, absStart = clipPaused(slices, absStart, p.pausedTo)
	}
	// The plan encodes the downtime of its own transfers (the planner
	// force-idles the arrival), but only at the margin-scaled duration:
	// work it put between the scaled and the real transfer end is
	// clipped. Intervals before the arrival are untouched, and a margin
	// >= 1 never clips (the plan already idles the real transfer).
	for _, at := range p.arrivals {
		if until := at + p.downtimeS; absStart >= at-1e-9 && absStart < until-1e-9 {
			slices, absStart = clipPaused(slices, absStart, until)
		}
	}
	return p.truths[r], p.points[r], slices, absStart, true
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
