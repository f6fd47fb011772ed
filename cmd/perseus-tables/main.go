// Command perseus-tables prints every offline table: the tables and
// figures of the Perseus paper's evaluation (§6, Appendices A/D/H),
// each with the same rows or series the paper reports, and the planner
// demos that schedule one characterized workload over grid signals,
// regions, forecasts and a capped fleet.
//
// Usage:
//
//	perseus-tables -experiment all -scale quick
//	perseus-tables -experiment table3 -scale full
//	perseus-tables -experiment grid
//	perseus-tables -list
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strings"

	"perseus/internal/experiments"
	"perseus/internal/fleet"
	"perseus/internal/forecast"
	"perseus/internal/frontier"
	"perseus/internal/gpu"
	"perseus/internal/grid"
	"perseus/internal/region"
)

type runner func(sc experiments.Scale, out io.Writer) error

// render writes tables to out in order.
func render(out io.Writer, tables ...*experiments.Table) error {
	for _, t := range tables {
		if err := t.Render(out); err != nil {
			return err
		}
	}
	return nil
}

// perGPU runs one per-GPU table over the A100 and A40 workload sets.
func perGPU(f func(*gpu.Model, []experiments.WorkloadConfig, experiments.Scale) (*experiments.Table, error)) runner {
	return func(sc experiments.Scale, out io.Writer) error {
		a100, err := f(gpu.A100PCIe, experiments.A100Workloads(), sc)
		if err != nil {
			return err
		}
		a40, err := f(gpu.A40, experiments.A40Workloads(), sc)
		if err != nil {
			return err
		}
		return render(out, a100, a40)
	}
}

// demoTable characterizes the one workload the grid, region and
// forecast demos schedule and returns its lookup table.
func demoTable(sc experiments.Scale, out io.Writer) (*frontier.LookupTable, error) {
	cfg := experiments.WorkloadConfig{
		Display: "GPT-3 1.3B", Model: "gpt3-1.3b", Stages: 4,
		MicrobatchSize: 4, Microbatches: 16,
	}
	fmt.Fprintf(out, "characterizing %s on %s...\n", cfg.Display, gpu.A100PCIe.Name)
	sys, err := experiments.BuildSystem(cfg, gpu.A100PCIe, sc)
	if err != nil {
		return nil, err
	}
	return sys.Frontier.Table(), nil
}

var runners = map[string]runner{
	"table1": func(sc experiments.Scale, out io.Writer) error {
		t, err := experiments.Table1()
		if err != nil {
			return err
		}
		return t.Render(out)
	},
	"table7": func(sc experiments.Scale, out io.Writer) error {
		t, err := experiments.Table7()
		if err != nil {
			return err
		}
		return t.Render(out)
	},
	"potential": perGPU(experiments.PotentialSavings),
	"table3":    perGPU(experiments.Table3),
	"table4":    perGPU(experiments.Table4),
	"realized":  perGPU(experiments.RealizedPotential),
	"table6": func(sc experiments.Scale, out io.Writer) error {
		t, err := experiments.Table6(sc)
		if err != nil {
			return err
		}
		return t.Render(out)
	},
	"fig1": func(sc experiments.Scale, out io.Writer) error {
		for _, m := range []string{"gpt3-1.3b", "bert-1.3b", "t5-3b", "bloom-3b", "wide-resnet101"} {
			if err := experiments.Figure1(out, m, sc); err != nil {
				return err
			}
		}
		return nil
	},
	"fig7": func(sc experiments.Scale, out io.Writer) error {
		t, err := experiments.Figure7(sc)
		if err != nil {
			return err
		}
		return t.Render(out)
	},
	"fig8": func(sc experiments.Scale, out io.Writer) error {
		for _, em := range experiments.EmulationModels {
			for _, g := range experiments.EmulationGPUs {
				t, err := experiments.Figure8(em.Model, em.Display, g, sc)
				if err != nil {
					return err
				}
				if err := t.Render(out); err != nil {
					return err
				}
			}
		}
		return nil
	},
	"fig9": func(sc experiments.Scale, out io.Writer) error {
		tables, err := experiments.Figure9(nil, sc)
		if err != nil {
			return err
		}
		return render(out, tables...)
	},
	"fig11": func(sc experiments.Scale, out io.Writer) error {
		t, err := experiments.Figure11()
		if err != nil {
			return err
		}
		return t.Render(out)
	},
	"fig12-13": func(sc experiments.Scale, out io.Writer) error {
		tables, err := experiments.Figure12And13(nil, sc)
		if err != nil {
			return err
		}
		return render(out, tables...)
	},
	"scaling": func(sc experiments.Scale, out io.Writer) error {
		t, err := experiments.WeakVsStrongScaling("bloom-176b", "Bloom 176B", gpu.A100SXM, sc)
		if err != nil {
			return err
		}
		return t.Render(out)
	},
	"overhead": func(sc experiments.Scale, out io.Writer) error {
		t, err := experiments.Overhead(gpu.A100PCIe, experiments.A100Workloads(), sc)
		if err != nil {
			return err
		}
		return t.Render(out)
	},
	"ablation": func(sc experiments.Scale, out io.Writer) error {
		cfg := experiments.A100Workloads()[0]
		greedy, err := experiments.AblationGreedy(cfg, gpu.A100PCIe, sc)
		if err != nil {
			return err
		}
		fit, err := experiments.AblationFit(cfg, gpu.A100PCIe, sc)
		if err != nil {
			return err
		}
		tau, err := experiments.AblationTau(cfg, gpu.A100PCIe, []float64{20e-3, 10e-3, 5e-3, 1e-3})
		if err != nil {
			return err
		}
		return render(out, greedy, fit, tau)
	},

	// grid replays the bundled 24-hour diurnal trace through the temporal
	// planner and compares the carbon-optimal plan with the signal-blind
	// baselines (always-T_min, static min-energy).
	"grid": func(sc experiments.Scale, out io.Writer) error {
		const util = 0.55 // target as a fraction of the day's T* capacity
		lt, err := demoTable(sc, out)
		if err != nil {
			return err
		}
		sig := grid.Diurnal24h()
		target := util * sig.Horizon() / lt.TStar()
		fmt.Fprintf(out, "trace %s: %d intervals over %.0f h; target %.0f iterations (%.0f%% of T* capacity)\n\n",
			sig.Name, len(sig.Intervals), sig.Horizon()/3600, target, 100*util)
		strategies, err := experiments.GridComparison(lt, sig, target, 0)
		if err != nil {
			return err
		}
		featured, err := grid.Optimize(lt, sig, grid.Options{Target: target, Objective: grid.ObjectiveCarbon})
		if err != nil {
			return err
		}
		return render(out, experiments.GridPlanTable(lt, sig, featured), experiments.GridComparisonTable(sig, strategies))
	},

	// region places and migrates one job across two datacenters whose
	// solar valleys are 12 hours out of phase, against pinning it to the
	// best single region and choosing one region without migrating.
	"region": func(sc experiments.Scale, out io.Writer) error {
		const util = 0.6 // target as a fraction of one region's daily T* capacity
		mig := region.MigrationCost{DowntimeS: 600, EnergyJ: 1e6}
		lt, err := demoTable(sc, out)
		if err != nil {
			return err
		}
		regions := region.PhaseShiftedPair(8)
		target := util * 86400 / lt.TStar()
		fmt.Fprintf(out, "regions: %s and %s (solar valleys 12 h out of phase); target %.0f iterations (%.0f%% of one region's T* capacity)\n",
			regions[0].Name, regions[1].Name, target, 100*util)
		fmt.Fprintf(out, "migration cost: %.0f s downtime + %.2f kWh transfer energy\n\n",
			mig.DowntimeS, mig.EnergyJ/grid.JoulesPerKWh)
		strategies, err := experiments.RegionComparison(lt, regions, target, 0, mig)
		if err != nil {
			return err
		}
		featured, err := region.Optimize(regions, []region.Job{
			{ID: "train", Table: lt, Target: target},
		}, region.Options{Objective: grid.ObjectiveCarbon, Migration: mig})
		if err != nil {
			return err
		}
		return render(out, experiments.RegionPlanTable(regions, lt, featured, 0), experiments.RegionComparisonTable(strategies))
	},

	// forecast replays the diurnal trace through a seeded noisy-revision
	// forecast stream: the perfect-foresight oracle against plan-once,
	// MPC re-planning and seasonal-naive, the MPC run's predicted-versus-
	// realized drift, and the multi-region analogue over the coarsened
	// phase-shifted pair, where every re-plan pays to migrate.
	"forecast": func(sc experiments.Scale, out io.Writer) error {
		const (
			util  = 0.55 // target as a fraction of the day's T* capacity
			seed  = 1    // noisy-revision stream seed
			sigma = 0.12 // per-step relative forecast innovation
		)
		lt, err := demoTable(sc, out)
		if err != nil {
			return err
		}
		truth := grid.Diurnal24h()
		scenario := experiments.ForecastScenario{
			Truth:  truth,
			Seed:   seed,
			Sigma:  sigma,
			Target: math.Floor(util * truth.Horizon() / lt.TStar()),
		}
		fmt.Fprintf(out, "trace %s: %d intervals over %.0f h; target %.0f iterations; revisions seed %d, sigma %.0f%%/step\n\n",
			truth.Name, len(truth.Intervals), truth.Horizon()/3600, scenario.Target, seed, 100*sigma)
		strategies, err := experiments.ForecastComparison(lt, scenario)
		if err != nil {
			return err
		}

		pair := region.PhaseShiftedPair(0)
		for i := range pair {
			pair[i].Signal = forecast.Coarsen(pair[i].Signal, 6)
		}
		target := math.Floor(0.5 * pair[0].Signal.Horizon() / lt.TStar())
		mig := region.MigrationCost{DowntimeS: 600, EnergyJ: 5e6}
		rs, err := experiments.RegionForecastComparison(lt, pair, target, mig, seed, sigma)
		if err != nil {
			return err
		}
		return render(out,
			experiments.ForecastComparisonTable(scenario, strategies),
			experiments.ForecastDriftTable(strategies[2].Outcome),
			experiments.RegionForecastComparisonTable(rs))
	},

	// fleet replays three concurrent training jobs under a facility power
	// cap: the marginal-cost allocator trades iteration time across their
	// frontiers, a straggler frees power and a departure returns headroom.
	"fleet": func(sc experiments.Scale, out io.Writer) error {
		const capFrac = 0.9 // power cap as a fraction of the fleet's uncapped draw
		fmt.Fprintf(out, "characterizing %d fleet workloads on %s...\n", len(experiments.FleetWorkloads()), gpu.A100PCIe.Name)
		built, err := experiments.BuildFleetScenario(gpu.A100PCIe, sc, capFrac)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "uncapped fleet draw %.0f W; cap %.0f W (%.0f%%)\n\n",
			built.UncappedW, built.CapW, 100*built.CapW/built.UncappedW)
		fmt.Fprintln(out, "scenario trace:")
		for _, e := range built.Scenario.Events {
			switch e.Kind {
			case fleet.EventArrive:
				fmt.Fprintf(out, "  t=%4.0fs  %-9s %s\n", e.At, e.Kind, e.Job.ID)
			case fleet.EventDepart:
				fmt.Fprintf(out, "  t=%4.0fs  %-9s %s\n", e.At, e.Kind, e.JobID)
			case fleet.EventStraggler:
				fmt.Fprintf(out, "  t=%4.0fs  %-9s %s (%.2fx)\n", e.At, e.Kind, e.JobID, e.Factor)
			case fleet.EventSetCap:
				fmt.Fprintf(out, "  t=%4.0fs  %-9s %.0f W\n", e.At, e.Kind, e.CapW)
			}
		}
		fmt.Fprintln(out)
		series, err := fleet.Replay(built.Scenario)
		if err != nil {
			return err
		}
		return render(out,
			experiments.FleetTimelineTable(series),
			experiments.FleetJobsTable(series),
			experiments.FleetSummaryTable(series))
	},
}

// scales are the -scale presets.
var scales = map[string]experiments.Scale{
	"quick":  {MaxMicrobatches: 16, TargetSteps: 400},
	"medium": {MaxMicrobatches: 48, TargetSteps: 800},
	"full":   experiments.Full,
}

// order fixes the presentation sequence for -experiment all.
var order = []string{
	"table1", "table7", "fig1", "potential", "table3", "table4", "realized",
	"table6", "fig7", "fig8", "fig9", "fig11", "fig12-13", "scaling",
	"overhead", "ablation", "grid", "region", "forecast", "fleet",
}

func main() {
	exp := flag.String("experiment", "all", "experiment id, or 'all'")
	scale := flag.String("scale", "quick", "quick | medium | full (paper parameters; slow)")
	list := flag.Bool("list", false, "list experiment ids, then exit")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(order, "\n"))
		return
	}
	sc, ok := scales[*scale]
	if !ok {
		log.Fatalf("unknown scale %q", *scale)
	}

	ids := order
	if *exp != "all" {
		if _, ok := runners[*exp]; !ok {
			log.Fatalf("unknown experiment %q (use -list)", *exp)
		}
		ids = []string{*exp}
	}
	for _, id := range ids {
		if err := runners[id](sc, os.Stdout); err != nil {
			log.Fatalf("%s: %v", id, err)
		}
	}
}
