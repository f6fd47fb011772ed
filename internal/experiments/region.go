package experiments

import (
	"fmt"

	"perseus/internal/frontier"
	"perseus/internal/grid"
	"perseus/internal/region"
)

// RegionStrategy is one row of a multi-region comparison: a named way
// of placing the same work across the same datacenters.
type RegionStrategy struct {
	Name string
	Plan *region.Plan
}

// RegionComparison plans the multi-region placement comparison for one
// job: the spatio-temporal planner against pinning the job to each
// region (fixed placement) and against picking one region without ever
// migrating — all completing the same target iterations under the same
// deadline and migration cost model.
func RegionComparison(lt *frontier.LookupTable, regions []region.Region, target, deadline float64, mig region.MigrationCost) ([]RegionStrategy, error) {
	jobs := []region.Job{{ID: "train", Table: lt, Target: target, DeadlineS: deadline}}
	opts := region.Options{Objective: grid.ObjectiveCarbon, Migration: mig}
	var out []RegionStrategy
	for i := range regions {
		p, err := region.Fixed(regions, jobs, regions[i].Name, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: fixed-%s baseline: %w", regions[i].Name, err)
		}
		out = append(out, RegionStrategy{"fixed @ " + regions[i].Name, p})
	}
	noMig, err := region.NoMigration(regions, jobs, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: no-migration baseline: %w", err)
	}
	out = append(out, RegionStrategy{"no-migration (best region)", noMig})
	plan, err := region.Optimize(regions, jobs, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: region planner: %w", err)
	}
	out = append(out, RegionStrategy{"region planner (migrating)", plan})
	return out, nil
}

// RegionComparisonTable renders the strategies side by side, with
// carbon savings relative to the first (fixed-placement) row.
func RegionComparisonTable(strategies []RegionStrategy) *Table {
	t := &Table{
		Title: "Multi-region placement (equal iterations completed)",
		Header: []string{"Strategy", "Iters", "Migrations", "Energy (kWh)",
			"Carbon (kg)", "Cost ($)", "Carbon vs fixed (%)"},
	}
	var baseCarbon float64
	for i, st := range strategies {
		p := st.Plan
		var iters float64
		migs := 0
		for _, jp := range p.Jobs {
			iters += jp.Temporal.Iterations
			migs += jp.Migrations
		}
		if i == 0 {
			baseCarbon = p.CarbonG
		}
		save := "-"
		if baseCarbon > 0 {
			save = fmt.Sprintf("%+.1f", 100*(p.CarbonG-baseCarbon)/baseCarbon)
		}
		row := []string{
			st.Name,
			fmt.Sprintf("%.0f", iters),
			fmt.Sprintf("%d", migs),
			fmt.Sprintf("%.2f", p.EnergyJ/grid.JoulesPerKWh),
			fmt.Sprintf("%.3f", p.CarbonG/1e3),
			fmt.Sprintf("%.2f", p.CostUSD),
			save,
		}
		if !p.Feasible {
			row[0] += " (infeasible)"
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"All strategies complete the same iterations; migration downtime and transfer energy are included in the planner's totals.")
	return t
}

// RegionPlanTable renders one job's spatio-temporal schedule cell by
// cell: where the job runs, each region's carbon intensity there, and
// what each span contributes.
func RegionPlanTable(regions []region.Region, lt *frontier.LookupTable, p *region.Plan, jobIdx int) *Table {
	jp := p.Jobs[jobIdx]
	t := &Table{
		Title:  fmt.Sprintf("Region plan for %s (%s objective)", jp.JobID, p.Objective),
		Header: []string{"t (h)", "Placement", "gCO2/kWh", "Run (min)", "Iters", "Carbon (g)"},
	}
	// Interval outcomes by cell, via the temporal plan's index order
	// (compile may split cells around migration downtime, so aggregate).
	type cellSum struct{ run, iters, carbon float64 }
	sums := make([]cellSum, len(p.Cells))
	ci := 0
	for ip := range jp.Temporal.Intervals(lt, jp.Signal) {
		for ci < len(p.Cells)-1 && ip.StartS >= p.Cells[ci].EndS {
			ci++
		}
		s := &sums[ci]
		s.run += (ip.EndS - ip.StartS) - ip.IdleS
		s.iters += ip.Iterations
		s.carbon += ip.CarbonG
	}
	for k, a := range jp.Assignments {
		place := "paused"
		rate := "-"
		if a.Region >= 0 {
			place = p.Regions[a.Region]
			if iv, ok := regions[a.Region].Signal.AtCyclic(a.StartS); ok {
				rate = fmt.Sprintf("%.0f", iv.CarbonGPerKWh)
			}
		}
		if a.Migrate {
			place = "→ " + place + " (migrate)"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f-%.0f", a.StartS/3600, a.EndS/3600),
			place,
			rate,
			fmt.Sprintf("%.0f", sums[k].run/60),
			fmt.Sprintf("%.0f", sums[k].iters),
			fmt.Sprintf("%.0f", sums[k].carbon),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"%d migration(s): %.0f s downtime, %.2f kWh transfer energy (%.0f g CO2)",
		jp.Migrations, jp.MigrationDowntimeS,
		jp.MigrationEnergyJ/grid.JoulesPerKWh, jp.MigrationCarbonG))
	return t
}
