package experiments

import (
	"fmt"

	"perseus/internal/frontier"
	"perseus/internal/grid"
)

// GridStrategy is one row of a grid comparison: a named way of placing
// the same work against the same signal.
type GridStrategy struct {
	Name string
	Plan *grid.Plan
}

// GridComparison plans the bundled temporal-shifting comparison: the
// grid-aware carbon- and cost-optimal plans against the two
// signal-blind baselines — always-T_min (sprint, then stop) and static
// min-energy (run every iteration at T*) — all completing the same
// target iterations under the same deadline.
func GridComparison(lt *frontier.LookupTable, sig *grid.Signal, target, deadline float64) ([]GridStrategy, error) {
	mk := func(obj grid.Objective) grid.Options {
		return grid.Options{Target: target, DeadlineS: deadline, Objective: obj}
	}
	carbonPlan, err := grid.Optimize(lt, sig, mk(grid.ObjectiveCarbon))
	if err != nil {
		return nil, fmt.Errorf("experiments: carbon plan: %w", err)
	}
	costPlan, err := grid.Optimize(lt, sig, mk(grid.ObjectiveCost))
	if err != nil {
		return nil, fmt.Errorf("experiments: cost plan: %w", err)
	}
	alwaysFast, err := grid.Fixed(lt, 0, sig, mk(grid.ObjectiveCarbon))
	if err != nil {
		return nil, fmt.Errorf("experiments: always-Tmin baseline: %w", err)
	}
	minEnergy, err := grid.Fixed(lt, len(lt.Points)-1, sig, mk(grid.ObjectiveCarbon))
	if err != nil {
		return nil, fmt.Errorf("experiments: static min-energy baseline: %w", err)
	}
	return []GridStrategy{
		{"always-Tmin", alwaysFast},
		{"static min-energy", minEnergy},
		{"grid-aware (carbon)", carbonPlan},
		{"grid-aware (cost)", costPlan},
	}, nil
}

// GridComparisonTable renders the strategies side by side, with carbon
// savings relative to the always-T_min baseline (the first strategy).
func GridComparisonTable(sig *grid.Signal, strategies []GridStrategy) *Table {
	t := &Table{
		Title: fmt.Sprintf("Temporal shifting on %s (equal iterations completed)", sig.Name),
		Header: []string{"Strategy", "Iters", "Finish (h)", "Energy (kWh)",
			"Carbon (kg)", "Cost ($)", "Carbon vs fast (%)"},
	}
	var baseCarbon float64
	for i, st := range strategies {
		p := st.Plan
		if i == 0 {
			baseCarbon = p.CarbonG
		}
		finish := "-"
		if p.FinishS >= 0 {
			finish = fmt.Sprintf("%.2f", p.FinishS/3600)
		}
		save := "-"
		if baseCarbon > 0 {
			save = fmt.Sprintf("%+.1f", 100*(p.CarbonG-baseCarbon)/baseCarbon)
		}
		row := []string{
			st.Name,
			fmt.Sprintf("%.0f", p.Iterations),
			finish,
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
		"All strategies complete the same iterations; baselines run one fixed frontier point from t=0 and stop.")
	return t
}

// GridPlanTable renders a temporal plan interval by interval: when the
// job runs, at which operating points, and what each hour costs.
func GridPlanTable(lt *frontier.LookupTable, sig *grid.Signal, p *grid.Plan) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Grid-aware temporal plan (%s objective)", p.Objective),
		Header: []string{"t (h)", "gCO2/kWh", "$/kWh", "Operating point", "Run (min)", "Iters", "Carbon (g)"},
	}
	for ip := range p.Intervals(lt, sig) {
		var run float64
		point := "idle"
		if len(ip.Slices) > 0 {
			point = ""
			for i, sl := range ip.Slices {
				if i > 0 {
					point += " + "
				}
				point += fmt.Sprintf("%.0f%% of T=%.3fs", 100*sl.Seconds/(ip.EndS-ip.StartS), lt.PointTime(sl.Point))
				run += sl.Seconds
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f-%.0f", ip.StartS/3600, ip.EndS/3600),
			fmt.Sprintf("%.0f", ip.CarbonGPerKWh),
			fmt.Sprintf("%.3f", ip.PriceUSDPerKWh),
			point,
			fmt.Sprintf("%.0f", run/60),
			fmt.Sprintf("%.0f", ip.Iterations),
			fmt.Sprintf("%.0f", ip.CarbonG),
		})
	}
	finish := "never (infeasible)"
	if p.FinishS >= 0 {
		finish = fmt.Sprintf("%.1fh", p.FinishS/3600)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"target %.0f iterations by t=%.1fh; plan finishes at %s",
		p.Target, p.DeadlineS/3600, finish))
	return t
}
