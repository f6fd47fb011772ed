// Grid: shift a training job's work into the day's clean hours.
//
// A characterized frontier gives the marginal energy cost of running at
// any speed between T_min and T*. When the grid's carbon intensity
// swings over the day, that frontier becomes a temporal control
// surface: with deadline slack, the planner runs during the midday
// solar valley, sprints when it must, and idles through the evening
// ramp peak — at provably minimal total carbon for the iterations
// completed.
package main

import (
	"fmt"
	"log"

	"perseus/internal/experiments"
	"perseus/internal/gpu"
	"perseus/internal/grid"
)

func main() {
	sys, err := experiments.BuildSystem(experiments.WorkloadConfig{
		Display: "gpt3-1.3b", Model: "gpt3-1.3b", Stages: 2,
		MicrobatchSize: 4, Microbatches: 8,
	}, gpu.A100PCIe, experiments.Quick)
	if err != nil {
		log.Fatal(err)
	}
	lt := sys.Frontier.Table()
	sig := grid.Diurnal24h()

	// Finish 55% of a full day's T* capacity by midnight.
	target := 0.55 * sig.Horizon() / lt.TStar()
	plan, err := grid.Optimize(lt, sig, grid.Options{Target: target})
	if err != nil {
		log.Fatal(err)
	}
	fast, err := grid.Fixed(lt, 0, sig, grid.Options{Target: target})
	if err != nil {
		log.Fatal(err)
	}
	slow, err := grid.Fixed(lt, len(lt.Points)-1, sig, grid.Options{Target: target})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("target: %.0f iterations by hour 24 (deadline slack: T* needs only %.1f h)\n\n",
		target, target*lt.TStar()/3600)
	fmt.Println("hour  gCO2/kWh  plan")
	for ip := range plan.Intervals(lt, sig) {
		bar := "idle"
		if len(ip.Slices) > 0 {
			bar = fmt.Sprintf("run %4.0f min at T=%.3fs", (ip.EndS-ip.StartS-ip.IdleS)/60, lt.PointTime(ip.Slices[0].Point))
		}
		fmt.Printf("%4.0f  %8.0f  %s\n", ip.StartS/3600, ip.CarbonGPerKWh, bar)
	}
	fmt.Printf("\n%-22s %10s %12s\n", "strategy", "carbon(kg)", "vs fast")
	for _, row := range []struct {
		name string
		p    *grid.Plan
	}{{"always-Tmin", fast}, {"static min-energy", slow}, {"grid-aware", plan}} {
		fmt.Printf("%-22s %10.3f %+11.1f%%\n", row.name, row.p.CarbonG/1e3,
			100*(row.p.CarbonG-fast.CarbonG)/fast.CarbonG)
	}
}
