// Command perseus-controller demonstrates the server's background MPC
// controller runtime end to end on a compressed timescale: a training
// job is registered and profiled over HTTP, a seconds-scale diurnal
// grid signal and a seeded noisy-revision forecast feed are installed,
// and the job's rolling-horizon schedule is put under controller
// management. The controller loop then ticks at every signal-interval
// boundary on its own — freezing the executed prefix, re-planning the
// remainder on the freshly issued forecast, and bumping the schedule
// version — while the client only ever long-polls the schedule with
// If-None-Match and reads the rollout view: it never plans. The demo
// closes by comparing the controller's realized account against the
// offline rolling-horizon MPC on the same seed and by timing a cold
// versus cached /grid/plan solve.
//
// Usage:
//
//	perseus-controller                 # 32 s compressed day, seed 11
//	perseus-controller -seed 3 -sigma 0.25
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"time"

	"perseus/internal/client"
	"perseus/internal/experiments"
	"perseus/internal/frontier"
	"perseus/internal/gpu"
	"perseus/internal/grid"
	"perseus/internal/profile"
	"perseus/internal/server"
)

// compressedDay scales the bundled 24-hour diurnal carbon shape onto a
// seconds-scale cycle so the real-time controller loop finishes in
// seconds: n intervals of secsPer seconds each, carrying every (24/n)th
// hour's rates.
func compressedDay(n int, secsPer float64) grid.Signal {
	day := grid.Diurnal24h()
	sig := grid.Signal{Name: "diurnal-compressed"}
	for k := 0; k < n; k++ {
		src := day.Intervals[k*len(day.Intervals)/n]
		sig.Intervals = append(sig.Intervals, grid.Interval{
			StartS: float64(k) * secsPer, EndS: float64(k+1) * secsPer,
			CarbonGPerKWh: src.CarbonGPerKWh, PriceUSDPerKWh: src.PriceUSDPerKWh,
		})
	}
	return sig
}

func main() {
	seed := flag.Int64("seed", 11, "revision stream seed")
	sigma := flag.Float64("sigma", 0.2, "per-step relative forecast innovation")
	intervals := flag.Int("intervals", 8, "compressed-day intervals")
	secsPer := flag.Float64("secs", 4, "real seconds per interval")
	flag.Parse()

	srv := server.New()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	cl := client.NewServerClient("http://" + ln.Addr().String())

	// 1. Register and profile the job over HTTP, exactly as a trainer
	// integration would.
	id, err := cl.RegisterJob(client.JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	})
	if err != nil {
		log.Fatal(err)
	}
	g, err := gpu.ByName("A100-PCIe")
	if err != nil {
		log.Fatal(err)
	}
	ms, pBlocking, err := profile.SyntheticSweep(g, 2, 4)
	if err != nil {
		log.Fatal(err)
	}
	if err := cl.UploadProfile(id, pBlocking, ms); err != nil {
		log.Fatal(err)
	}
	sched0, err := cl.WaitSchedule(id, 200, 50*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job %s characterized: Tmin %.3f s, T* %.3f s\n", id, sched0.Tmin, sched0.TStar)

	// 2. Install the compressed-day signal and the revising forecast
	// feed, then put the job under controller management.
	sig := compressedDay(*intervals, *secsPer)
	if _, err := cl.UploadGridSignal(sig, "carbon"); err != nil {
		log.Fatal(err)
	}
	if _, err := cl.InstallRevisionsForecast(*seed, *sigma, 0, 0, 0); err != nil {
		log.Fatal(err)
	}
	deadline := sig.Horizon()
	target := math.Floor(0.6 * deadline / sched0.Tmin)
	first, err := cl.ManageJob(id, target, deadline, "", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("managed: %.0f iterations by t=%.1fs over %d intervals (plan #%d)\n",
		target, deadline, *intervals, first.Plans)
	if _, err := cl.StartController(); err != nil {
		log.Fatal(err)
	}

	// 3. The trainer side: long-poll the schedule version; every bump is
	// a server-side re-plan observed without a single replan call.
	version := sched0.Version
	if s, err := cl.FetchSchedule(id); err == nil {
		version = s.Version
	}
	bumps := 0
	end := time.Now().Add(time.Duration((deadline + *secsPer) * float64(time.Second)))
	for time.Now().Before(end) {
		wait := time.Until(end)
		if wait > 2*time.Second {
			wait = 2 * time.Second
		}
		s, changed, err := cl.FetchScheduleIfChanged(id, version, wait)
		if err != nil {
			log.Fatal(err)
		}
		if !changed {
			continue
		}
		version = s.Version
		bumps++
		roll, err := cl.FetchRollout(id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  version %d: plan #%d, done %.1f / %.0f iters, frozen %.1f g realized (%.1f g predicted)\n",
			version, roll.Plans, roll.DoneIterations, target, roll.CarbonG, roll.PredCarbonG)
	}
	if _, err := cl.StopController(); err != nil {
		log.Fatal(err)
	}
	status, err := cl.FetchControllerStatus()
	if err != nil {
		log.Fatal(err)
	}
	// One final manual tick settles the tail in case the loop stopped
	// just before the last boundary.
	if _, err := cl.TickController(); err != nil {
		log.Fatal(err)
	}
	roll, err := cl.FetchRollout(id)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncontroller: %d ticks, client observed %d version bumps via long-poll\n", status.Ticks, bumps)
	fmt.Printf("realized: %.1f g carbon, %.0f J over %d frozen spans (drift %+.1f g vs forecasts)\n",
		roll.CarbonG, roll.EnergyJ, len(roll.Frozen), roll.CarbonG-roll.PredCarbonG)

	// 4. The same scenario replayed offline: the controller closed the
	// rolling-horizon loop the experiments run in-process. (Real-clock
	// ticks land ~ms after each boundary, so totals track the offline
	// MPC row closely; the fake-clock server test pins exact equality.)
	tbl := frontierTable(cl, id)
	if tbl != nil {
		strategies, err := experiments.ForecastComparison(tbl, experiments.ForecastScenario{
			Truth: &sig, Seed: *seed, Sigma: *sigma, Target: target, DeadlineS: deadline,
		})
		if err == nil {
			for _, st := range strategies {
				if st.Name == "MPC re-planning" {
					fmt.Printf("offline MPC row (same seed): %.1f g realized over %d plans\n",
						st.Outcome.CarbonG, st.Outcome.Plans)
				}
			}
		}
	}

	// 5. The plan cache: identical /grid/plan requests solve once.
	t0 := time.Now()
	if _, err := cl.FetchGridPlan(id, target, 0, ""); err != nil {
		log.Fatal(err)
	}
	cold := time.Since(t0)
	t0 = time.Now()
	if _, err := cl.FetchGridPlan(id, target, 0, ""); err != nil {
		log.Fatal(err)
	}
	cached := time.Since(t0)
	st := srv.CacheStats()
	fmt.Printf("plan cache: cold %v, cached %v (hits %d, misses %d)\n", cold, cached, st.Hits, st.Misses)
}

// frontierTable fetches the job's characterized lookup table.
func frontierTable(cl *client.ServerClient, id string) *frontier.LookupTable {
	resp, err := http.Get(cl.BaseURL + "/jobs/" + id + "/table")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	lt, err := frontier.LoadTable(resp.Body)
	if err != nil {
		return nil
	}
	return lt
}
