package experiments

import (
	"fmt"

	"perseus/internal/forecast"
	"perseus/internal/frontier"
	"perseus/internal/grid"
	"perseus/internal/region"
)

// ForecastStrategy is one row of a forecast comparison: a named way of
// scheduling the same work when the future is only predicted.
type ForecastStrategy struct {
	Name    string
	Outcome *forecast.Outcome
}

// ForecastScenario bundles the seeded noisy-revision setup a
// comparison replays: the truth trace, the revision stream, and the
// planning problem.
type ForecastScenario struct {
	// Truth is the actual trace (realized accrual always uses it).
	Truth *grid.Signal

	// Seed selects the revision stream; Sigma is the per-step relative
	// innovation (0 = the provider default).
	Seed  int64
	Sigma float64

	// Target and DeadlineS define the planning problem (deadline 0 =
	// the truth horizon).
	Target    float64
	DeadlineS float64
}

// ForecastComparison replays the bundled forecast-uncertainty
// comparison on one scenario: the perfect-foresight oracle,
// plan-once-on-the-first-forecast, rolling-horizon MPC re-planning,
// robust MPC against the pessimistic 0.9-quantile band, and MPC driven
// by the seasonal-naive model forecasting from revealed history alone.
// All strategies complete the same iterations; only realized carbon,
// cost, and energy differ.
func ForecastComparison(lt *frontier.LookupTable, sc ForecastScenario) ([]ForecastStrategy, error) {
	opts := forecast.Options{Target: sc.Target, DeadlineS: sc.DeadlineS}
	prov := &forecast.Revisions{Truth: sc.Truth, Seed: sc.Seed, Sigma: sc.Sigma, HorizonS: sc.DeadlineS}

	oracle, err := forecast.Oracle(lt, sc.Truth, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: oracle: %w", err)
	}
	once, err := forecast.PlanOnce(lt, prov, sc.Truth, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: plan-once: %w", err)
	}
	mpc, err := forecast.Replan(lt, prov, sc.Truth, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: mpc: %w", err)
	}
	robustOpts := opts
	robustOpts.Quantile = 0.9
	robust, err := forecast.Replan(lt, prov, sc.Truth, robustOpts)
	if err != nil {
		return nil, fmt.Errorf("experiments: robust mpc: %w", err)
	}
	seasonal, err := forecast.Replan(lt, &forecast.FromHistory{
		Truth: sc.Truth, Model: &forecast.SeasonalNaive{}, HorizonS: sc.DeadlineS,
	}, sc.Truth, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: seasonal mpc: %w", err)
	}
	return []ForecastStrategy{
		{"oracle (perfect foresight)", oracle},
		{"plan-once (first forecast)", once},
		{"MPC re-planning", mpc},
		{"MPC robust (q=0.90)", robust},
		{"MPC seasonal-naive model", seasonal},
	}, nil
}

// ForecastComparisonTable renders the strategies side by side with
// regret — extra carbon over the perfect-foresight oracle (the first
// strategy) — and the gain over plan-once (the second).
func ForecastComparisonTable(sc ForecastScenario, strategies []ForecastStrategy) *Table {
	t := &Table{
		Title: fmt.Sprintf("Forecast-driven scheduling on %s (seed %d, equal iterations completed)",
			sc.Truth.Name, sc.Seed),
		Header: []string{"Strategy", "Plans", "Energy (kWh)", "Carbon (kg)",
			"Cost ($)", "Regret vs oracle (%)", "vs plan-once (%)"},
	}
	var oracleCarbon, onceCarbon float64
	for i, st := range strategies {
		o := st.Outcome
		if i == 0 {
			oracleCarbon = o.CarbonG
		}
		if i == 1 {
			onceCarbon = o.CarbonG
		}
		regret, vsOnce := "-", "-"
		if i > 0 && oracleCarbon > 0 {
			regret = fmt.Sprintf("%+.1f", 100*(o.CarbonG-oracleCarbon)/oracleCarbon)
		}
		if i > 1 && onceCarbon > 0 {
			vsOnce = fmt.Sprintf("%+.1f", 100*(o.CarbonG-onceCarbon)/onceCarbon)
		}
		row := []string{
			st.Name,
			fmt.Sprintf("%d", o.Plans),
			fmt.Sprintf("%.2f", o.EnergyJ/grid.JoulesPerKWh),
			fmt.Sprintf("%.3f", o.CarbonG/1e3),
			fmt.Sprintf("%.2f", o.CostUSD),
			regret,
			vsOnce,
		}
		if !o.Feasible {
			row[0] += " (infeasible)"
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"Realized totals accrue against the truth trace; planners only ever see the forecast.",
		"Regret is extra carbon over perfect foresight; negative vs plan-once means re-planning won.")
	return t
}

// ForecastDriftTable renders one outcome's executed schedule interval
// by interval: what the forecast in force predicted and what the grid
// really did.
func ForecastDriftTable(out *forecast.Outcome) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Predicted vs realized accrual (%s)", out.Strategy),
		Header: []string{"t (h)", "Run (min)", "Iters", "Pred carbon (g)", "Real carbon (g)", "Drift (g)"},
	}
	for _, ei := range out.Intervals {
		var run float64
		for _, sl := range ei.Slices {
			run += sl.Seconds
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f-%.0f", ei.StartS/3600, ei.EndS/3600),
			fmt.Sprintf("%.0f", run/60),
			fmt.Sprintf("%.0f", ei.Iterations),
			fmt.Sprintf("%.0f", ei.PredCarbonG),
			fmt.Sprintf("%.0f", ei.CarbonG),
			fmt.Sprintf("%+.0f", ei.CarbonG-ei.PredCarbonG),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"totals: predicted %.0f g, realized %.0f g, drift %+.0f g over %d plans",
		out.PredCarbonG, out.CarbonG, out.CarbonG-out.PredCarbonG, out.Plans))
	return t
}

// RegionForecastStrategy is one row of a multi-region forecast
// comparison.
type RegionForecastStrategy struct {
	Name    string
	Outcome *forecast.RegionOutcome
}

// RegionForecastComparison replays the multi-region analogue on a
// fleet of regions: the perfect-foresight joint plan, plan-once on the
// first forecasts, rolling-horizon re-planning with migrations charged
// from each job's current region, and the same re-planning on the
// robust 0.7-quantile, which counteracts rolling-horizon hesitation
// (the per-seed parity with plan-once region_mpc_test.go pins).
func RegionForecastComparison(lt *frontier.LookupTable, regions []region.Region, target float64, mig region.MigrationCost, seed int64, sigma float64) ([]RegionForecastStrategy, error) {
	jobs := []region.Job{{ID: "train", Table: lt, Target: target}}
	opts := forecast.RegionOptions{Objective: grid.ObjectiveCarbon, Migration: mig}
	oracle, err := forecast.OracleRegions(regions, jobs, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: region oracle: %w", err)
	}
	regs := make([]forecast.ForecastRegion, len(regions))
	for i, r := range regions {
		regs[i] = forecast.ForecastRegion{Region: r, Provider: &forecast.Revisions{
			Truth: r.Signal, Seed: seed + int64(i)*100, Sigma: sigma,
		}}
	}
	once, err := forecast.PlanOnceRegions(regs, jobs, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: region plan-once: %w", err)
	}
	mpc, err := forecast.ReplanRegions(regs, jobs, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: region mpc: %w", err)
	}
	robustOpts := opts
	robustOpts.PlanQuantile = 0.7
	robust, err := forecast.ReplanRegions(regs, jobs, robustOpts)
	if err != nil {
		return nil, fmt.Errorf("experiments: region robust mpc: %w", err)
	}
	return []RegionForecastStrategy{
		{"oracle (perfect foresight)", oracle},
		{"plan-once (first forecasts)", once},
		{"MPC re-planning (migrating)", mpc},
		{"MPC on the robust quantile (q=0.70)", robust},
	}, nil
}

// RegionForecastComparisonTable renders the multi-region strategies
// side by side.
func RegionForecastComparisonTable(strategies []RegionForecastStrategy) *Table {
	t := &Table{
		Title: "Multi-region forecast-driven scheduling (equal iterations completed)",
		Header: []string{"Strategy", "Plans", "Migrations", "Energy (kWh)",
			"Carbon (kg)", "Regret vs oracle (%)"},
	}
	var oracleCarbon float64
	for i, st := range strategies {
		o := st.Outcome
		if i == 0 {
			oracleCarbon = o.CarbonG
		}
		regret := "-"
		if i > 0 && oracleCarbon > 0 {
			regret = fmt.Sprintf("%+.1f", 100*(o.CarbonG-oracleCarbon)/oracleCarbon)
		}
		migs := 0
		for _, j := range o.Jobs {
			migs += j.Migrations
		}
		row := []string{
			st.Name,
			fmt.Sprintf("%d", o.Plans),
			fmt.Sprintf("%d", migs),
			fmt.Sprintf("%.2f", o.EnergyJ/grid.JoulesPerKWh),
			fmt.Sprintf("%.3f", o.CarbonG/1e3),
			regret,
		}
		if !o.Feasible {
			row[0] += " (infeasible)"
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"Each job's re-plan charges moving away from its current region as a migration (downtime + transfer energy).")
	return t
}
