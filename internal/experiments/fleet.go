package experiments

import (
	"fmt"
	"math"

	"perseus/internal/fleet"
	"perseus/internal/gpu"
)

// FleetWorkloads returns the multi-job workload mix of the bundled
// fleet scenario: three concurrent pipeline-parallel jobs of different
// shapes, one of them data-parallel, sharing a facility power envelope.
func FleetWorkloads() []WorkloadConfig {
	return []WorkloadConfig{
		{Display: "GPT-3 1.3B (DP2)", Model: "gpt3-1.3b", Stages: 4, MicrobatchSize: 4, Microbatches: 24, DataParallel: 2},
		{Display: "BERT 1.3B", Model: "bert-1.3b", Stages: 4, MicrobatchSize: 8, Microbatches: 16},
		{Display: "Bloom 3B", Model: "bloom-3b", Stages: 4, MicrobatchSize: 4, Microbatches: 16},
	}
}

// FleetScenario is a built, replayable multi-job trace plus the context
// needed to render it.
type FleetScenario struct {
	Scenario fleet.Scenario

	// CapW is the cap the trace's set-cap event imposes.
	CapW float64

	// UncappedW is the full fleet's uncapped model power, for scale.
	UncappedW float64
}

// BuildFleetScenario characterizes the fleet workloads on one GPU model
// and assembles the bundled scenario trace: staggered arrivals, a
// facility cap at capFrac of the full fleet's uncapped draw, a
// straggler onset and recovery on the data-parallel job, and one
// departure. capFrac must be finite and positive.
//
//	t=0    GPT-3 1.3B (DP2) arrives
//	t=120  BERT 1.3B arrives
//	t=240  Bloom 3B arrives; power cap set to capFrac × uncapped draw
//	t=360  straggler (1.3×) hits the GPT-3 job
//	t=480  the straggler recovers
//	t=600  BERT departs
//	t=720  horizon
func BuildFleetScenario(g *gpu.Model, sc Scale, capFrac float64) (*FleetScenario, error) {
	if !(capFrac > 0) || math.IsInf(capFrac, 1) {
		return nil, fmt.Errorf("experiments: fleet cap fraction must be finite and positive, got %v", capFrac)
	}
	cfgs := FleetWorkloads()
	jobs := make([]*fleet.SimJob, len(cfgs))
	for i, cfg := range cfgs {
		sys, err := BuildSystem(cfg, g, sc)
		if err != nil {
			return nil, fmt.Errorf("experiments: building fleet job %s: %w", cfg.Display, err)
		}
		jobs[i] = &fleet.SimJob{
			Job: fleet.Job{
				ID:        cfg.Display,
				Table:     sys.Frontier.Table(),
				Pipelines: cfg.DataParallel,
			},
			Spec: sys.Spec,
		}
	}
	var all []fleet.Job
	for _, sj := range jobs {
		all = append(all, sj.Job)
	}
	uncapped := fleet.Allocate(all, 0).PowerW
	capW := capFrac * uncapped

	return &FleetScenario{
		CapW:      capW,
		UncappedW: uncapped,
		Scenario: fleet.Scenario{
			Horizon: 720,
			Events: []fleet.Event{
				{At: 0, Kind: fleet.EventArrive, Job: jobs[0]},
				{At: 120, Kind: fleet.EventArrive, Job: jobs[1]},
				{At: 240, Kind: fleet.EventArrive, Job: jobs[2]},
				{At: 240, Kind: fleet.EventSetCap, CapW: capW},
				{At: 360, Kind: fleet.EventStraggler, JobID: jobs[0].ID, Factor: 1.3},
				{At: 480, Kind: fleet.EventStraggler, JobID: jobs[0].ID, Factor: 1},
				{At: 600, Kind: fleet.EventDepart, JobID: jobs[1].ID},
			},
		},
	}, nil
}

// FleetTimelineTable renders one row per constant-state segment of a
// replayed scenario: the cap in force, the allocator's budgeted power,
// and the simulated draw.
func FleetTimelineTable(series *fleet.Series) *Table {
	t := &Table{
		Title:  "Fleet timeline (one row per constant-state segment)",
		Header: []string{"t (s)", "Jobs", "Cap (W)", "Alloc (W)", "Sim (W)", "Loss state"},
	}
	for _, seg := range series.Segments {
		capCell := "-"
		if seg.CapW > 0 {
			capCell = fmt.Sprintf("%.0f", seg.CapW)
		}
		state := "free"
		switch {
		case !seg.Feasible:
			state = "cap infeasible"
		case seg.CapW > 0:
			state = "capped"
		}
		for _, j := range seg.Jobs {
			if j.StragglerFactor > 1 {
				state += fmt.Sprintf(" +straggler(%s %.2fx)", j.ID, j.StragglerFactor)
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f-%.0f", seg.Start, seg.End),
			fmt.Sprint(len(seg.Jobs)),
			capCell,
			fmt.Sprintf("%.0f", seg.AllocPowerW),
			fmt.Sprintf("%.0f", seg.PowerW),
			state,
		})
	}
	t.Notes = append(t.Notes,
		"Alloc is frontier-model computation power; Sim adds blocking energy (Eq. 3)")
	return t
}

// FleetJobsTable renders each job's operating point in every segment.
func FleetJobsTable(series *fleet.Series) *Table {
	t := &Table{
		Title:  "Per-job operating points",
		Header: []string{"t (s)", "Job", "Point", "Planned (s)", "Iter (s)", "Power (W)", "Iters"},
	}
	for _, seg := range series.Segments {
		for _, j := range seg.Jobs {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.0f-%.0f", seg.Start, seg.End),
				j.ID,
				fmt.Sprint(j.Point),
				fmt.Sprintf("%.3f", j.PlannedTime),
				fmt.Sprintf("%.3f", j.IterTime),
				fmt.Sprintf("%.0f", j.PowerW),
				fmt.Sprintf("%.1f", j.Iterations),
			})
		}
	}
	return t
}

// FleetSummaryTable renders per-job scenario totals and fleet-wide
// aggregates.
func FleetSummaryTable(series *fleet.Series) *Table {
	t := &Table{
		Title:  "Fleet summary",
		Header: []string{"Job", "Active (s)", "Iterations", "Energy (kJ)", "Avg power (W)"},
	}
	for _, tot := range series.Totals {
		avg := 0.0
		if tot.ActiveS > 0 {
			avg = tot.EnergyJ / tot.ActiveS
		}
		t.Rows = append(t.Rows, []string{
			tot.ID,
			fmt.Sprintf("%.0f", tot.ActiveS),
			fmt.Sprintf("%.1f", tot.Iterations),
			fmt.Sprintf("%.1f", tot.EnergyJ/1e3),
			fmt.Sprintf("%.0f", avg),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("fleet energy %.1f kJ, peak power %.0f W", series.EnergyJ/1e3, series.PeakPowerW))
	return t
}
