// Command perseus-fleet replays a datacenter-scale multi-job scenario
// through the fleet orchestrator (internal/fleet): three concurrent
// training jobs arrive, a facility power cap forces the marginal-cost
// allocator to trade iteration time across their frontiers, a straggler
// frees power for the healthy jobs, and a departure returns headroom.
//
// Usage:
//
//	perseus-fleet                       # bundled scenario, quick scale
//	perseus-fleet -cap-frac 0.85        # tighter facility envelope
//	perseus-fleet -gpu A40 -scale full  # paper-fidelity frontiers
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"perseus/internal/experiments"
	"perseus/internal/fleet"
	"perseus/internal/gpu"
)

func main() {
	gpuName := flag.String("gpu", "A100-PCIe", "GPU preset")
	capFrac := flag.Float64("cap-frac", 0.9, "power cap as a fraction of the fleet's uncapped draw")
	scale := flag.String("scale", "quick", "quick | full (paper parameters; slow)")
	flag.Parse()

	g, err := gpu.ByName(*gpuName)
	if err != nil {
		log.Fatal(err)
	}
	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.Quick
	case "full":
		sc = experiments.Full
	default:
		log.Fatalf("unknown scale %q", *scale)
	}

	fmt.Printf("characterizing %d fleet workloads on %s...\n", len(experiments.FleetWorkloads()), g.Name)
	built, err := experiments.BuildFleetScenario(g, sc, *capFrac)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uncapped fleet draw %.0f W; cap %.0f W (%.0f%%)\n\n",
		built.UncappedW, built.CapW, 100*built.CapW/built.UncappedW)

	fmt.Println("scenario trace:")
	for _, e := range built.Scenario.Events {
		switch e.Kind {
		case fleet.EventArrive:
			fmt.Printf("  t=%4.0fs  %-9s %s\n", e.At, e.Kind, e.Job.ID)
		case fleet.EventDepart:
			fmt.Printf("  t=%4.0fs  %-9s %s\n", e.At, e.Kind, e.JobID)
		case fleet.EventStraggler:
			fmt.Printf("  t=%4.0fs  %-9s %s (%.2fx)\n", e.At, e.Kind, e.JobID, e.Factor)
		case fleet.EventSetCap:
			fmt.Printf("  t=%4.0fs  %-9s %.0f W\n", e.At, e.Kind, e.CapW)
		}
	}
	fmt.Println()

	series, err := fleet.Replay(built.Scenario)
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range []*experiments.Table{
		experiments.FleetTimelineTable(series),
		experiments.FleetJobsTable(series),
		experiments.FleetSummaryTable(series),
	} {
		if err := t.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}
