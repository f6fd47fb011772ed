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
}

// validate applies the single-region controller's rules
// (plan.Request.Validate) to the options, naming the offending field: a
// finite non-negative deadline and a quantile in [0, 1).
func (o RegionOptions) validate() error {
	if math.IsNaN(o.DeadlineS) || math.IsInf(o.DeadlineS, 0) || o.DeadlineS < 0 {
		return fmt.Errorf("forecast: DeadlineS must be finite and non-negative, got %v", o.DeadlineS)
	}
	if math.IsNaN(o.PlanQuantile) || o.PlanQuantile < 0 || o.PlanQuantile >= 1 {
		return fmt.Errorf("forecast: PlanQuantile must be in [0, 1), got %v", o.PlanQuantile)
	}
	return nil
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
// is charged as a migration, and its PausedUntilS to the end of a
// transfer still in flight — and executes the first span of the fresh
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
// migrations the span begins, and executes the span. The plan idles
// every transfer itself, the ones it begins and the one in flight, so
// execution runs it as made.
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
	origins := make([]string, len(jobs))  // region each job occupies ("" = unplaced)
	arrives := make([]float64, len(jobs)) // when each job's last transfer ends
	out := &RegionOutcome{Jobs: make([]RegionJobOutcome, len(jobs))}
	for j := range jobs {
		d := jobs[j].DeadlineS
		if d <= 0 || d > deadline {
			d = deadline
		}
		steps[j] = NewStepper(jobs[j].Table, nil, Options{Target: jobs[j].Target, DeadlineS: d, PowerScale: jobs[j].PowerScale}, 0)
		steps[j].place = &placement{truths: truths}
		origins[j], arrives[j] = jobs[j].Origin, jobs[j].PausedUntilS
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
			rj.PausedUntilS = max(0, arrives[j]-d)
			rjobs = append(rjobs, rj)
			live = append(live, j)
		}
		if len(rjobs) == 0 {
			break
		}
		plan, err := region.Optimize(fregions, rjobs, region.Options{Objective: opts.Objective, Migration: opts.Migration})
		if err != nil {
			return nil, err
		}
		out.Plans++

		span := end - d
		for pi, jp := range plan.Jobs {
			j := live[pi]
			st, jo := steps[j], &out.Jobs[j]
			st.Plan, st.PlanAt, st.window = jp.Temporal, d, jp.Signal
			st.place.cells, st.place.points = jp.Assignments, fsignals
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
					arrives[j] = at + opts.Migration.DowntimeS
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
// stepper's PlanAt), and every region's truth and point forecast.
type placement struct {
	cells          []region.Assignment
	truths, points []*grid.Signal // by region index
}

// run resolves the plan interval starting startS into the plan to the
// truth and point forecast of the region it runs in (ok false when the
// job is paused there).
func (p *placement) run(startS float64) (truth, point *grid.Signal, ok bool) {
	r := regionAt(p.cells, startS)
	if r < 0 {
		return nil, nil, false
	}
	return p.truths[r], p.points[r], true
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
