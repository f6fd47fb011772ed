// Command perseus-smoke is the CI observability smoke test: it boots
// the server in-process on a clock it steps itself, drives one
// end-to-end planning flow over HTTP (register → profile → signal →
// plan ×2 → controller tick), then scrapes /metrics, /healthz, and
// /debug/ledger and exits non-zero unless every core series is present
// with a sane value, the energy-bloat ledger conserves, and the ledger
// is the only account: the bloat series and GET /jobs/{id}/emissions
// read exactly its totals. It guards the contract dashboards and
// alerting would be built on: the exposition endpoint keeps serving
// the documented metric catalog after real traffic.
package main

import (
	"encoding/csv"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"perseus/internal/client"
	"perseus/internal/gpu"
	"perseus/internal/grid"
	"perseus/internal/profile"
	"perseus/internal/server"
)

// sample returns the value of one series of a scraped exposition.
func sample(text, series string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				log.Fatalf("smoke: %s: %v", line, err)
			}
			return f
		}
	}
	log.Fatalf("smoke: /metrics has no series %s", series)
	return 0
}

func main() {
	srv := server.New()
	// The server reads a clock only this program advances, so the
	// account settles exactly when the flow says and two reads with no
	// step between them see the same totals.
	var clockMu sync.Mutex
	now := time.Now()
	srv.SetClock(func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	})
	advance := func(d time.Duration) {
		clockMu.Lock()
		now = now.Add(d)
		clockMu.Unlock()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	cl := client.NewServerClient("http://" + ln.Addr().String())

	// Drive the flow the metrics should record.
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
	dep, err := cl.WaitSchedule(id, 200, 50*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	sig := grid.Diurnal24h()
	if _, err := cl.UploadGridSignal(*sig, "carbon"); err != nil {
		log.Fatal(err)
	}
	target := math.Floor(0.5 * sig.Horizon() / dep.Tmin)
	// Twice: one cache miss, one hit.
	if _, err := cl.FetchGridPlan(id, target, 0, ""); err != nil {
		log.Fatal(err)
	}
	if _, err := cl.FetchGridPlan(id, target, 0, ""); err != nil {
		log.Fatal(err)
	}
	advance(10 * time.Minute) // the tick settles the job's first span
	if _, err := cl.TickController(); err != nil {
		log.Fatal(err)
	}
	// A made-up method is served (405) and counted under method="other".
	req, err := http.NewRequest("BREW", "http://"+ln.Addr().String()+"/healthz", nil)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()

	// Scrape and assert.
	h, err := cl.FetchHealth()
	if err != nil {
		log.Fatal(err)
	}
	if h.Status != "ok" || h.Jobs != 1 || !h.SignalInstalled || !h.Ready {
		log.Fatalf("smoke: bad health view %+v", h)
	}
	if len(h.SLOs) == 0 {
		log.Fatalf("smoke: /healthz reports no SLO statuses: %+v", h)
	}
	for _, slo := range h.SLOs {
		if slo.Status != "ok" {
			log.Fatalf("smoke: SLO %s is %s after a clean flow (%+v)", slo.Name, slo.Status, slo)
		}
	}

	// The plan request left a complete trace: the cache-miss request's
	// span tree must hold at least the four documented layers
	// (HTTP root → store snapshot + cache lookup → planner solve).
	traces, err := cl.FetchTraces(0, 0, "planner.solve")
	if err != nil {
		log.Fatal(err)
	}
	var planTrace *client.Trace
	for i := range traces {
		for _, sp := range traces[i].Spans {
			if sp.Name == "cache.lookup" {
				planTrace = &traces[i]
			}
		}
	}
	if planTrace == nil {
		log.Fatalf("smoke: no plan-request trace retained (got %d traces)", len(traces))
	}
	if len(planTrace.Spans) < 4 {
		log.Fatalf("smoke: plan trace has %d spans, want >= 4: %+v", len(planTrace.Spans), planTrace.Spans)
	}
	for _, want := range []string{"http /grid/plan/{id}", "store.snapshot", "cache.lookup", "planner.solve"} {
		found := false
		for _, sp := range planTrace.Spans {
			if sp.Name == want {
				found = true
			}
		}
		if !found {
			log.Fatalf("smoke: plan trace missing span %q: %+v", want, planTrace.Spans)
		}
	}
	text, err := cl.FetchMetrics()
	if err != nil {
		log.Fatal(err)
	}
	core := []string{
		`perseus_http_requests_total{route="/grid/plan/{id}",method="GET",code="200"} 2`,
		"perseus_plan_cache_hits_total 1",
		"perseus_plan_cache_misses_total 1",
		"perseus_controller_ticks_total 1",
		"perseus_controller_forecasts_issued_total 0", // no job is managed: the tick has no one to forecast for
		"perseus_jobs_registered_total 1",
		`perseus_characterizations_total{outcome="ok"} 1`,
		"perseus_characterize_seconds_count 1",
		"perseus_characterize_points_count 1",
		`perseus_planner_plan_duration_seconds_count{planner="grid",objective="carbon"} 1`,
		`perseus_planner_plan_duration_seconds_count{planner="fleet",objective="carbon"} 1`,
		`perseus_trace_spans_total{span="cache.lookup"} 2`,
		`perseus_slo_status{slo="plan-latency-p99"} 0`,
		`perseus_slo_status{slo="replan-failure-ratio"} 0`,
		`perseus_slo_status{slo="longpoll-wake-p99"} 0`,
		`method="other",code="405"} 1`,
	}
	var missing []string
	for _, want := range core {
		if !strings.Contains(text, want) {
			missing = append(missing, want)
		}
	}
	if len(missing) > 0 {
		log.Fatalf("smoke: /metrics missing core series:\n  %s\nfull exposition:\n%s",
			strings.Join(missing, "\n  "), text)
	}
	events, err := cl.FetchEvents(0)
	if err != nil {
		log.Fatal(err)
	}
	if len(events) == 0 {
		log.Fatal("smoke: /debug/events returned no events after the flow")
	}

	// The controller tick settled the job's first accounting span into
	// the energy-bloat ledger: every entry must conserve, the per-job
	// and fleet series must be exported, and the CSV export must
	// round-trip the JSON view.
	led, err := cl.FetchLedger("", 0)
	if err != nil {
		log.Fatal(err)
	}
	if len(led.Jobs) != 1 || led.Jobs[0].JobID != id || len(led.Jobs[0].Entries) == 0 {
		log.Fatalf("smoke: ledger has no settled entries for %s: %+v", id, led)
	}
	entries := led.Jobs[0].Entries
	for i, e := range entries {
		sum := e.FloorJ + e.MigrationJ + e.ResidualJ
		if math.Abs(sum-e.EnergyJ) > 1e-9*math.Max(1, e.EnergyJ) {
			log.Fatalf("smoke: ledger entry %d violates energy conservation: floor %v + migration %v + residual %v != %v",
				i, e.FloorJ, e.MigrationJ, e.ResidualJ, e.EnergyJ)
		}
		csum := e.FloorC + e.MigrationC + e.ResidualC
		if math.Abs(csum-e.CarbonG) > 1e-9*math.Max(1, e.CarbonG) {
			log.Fatalf("smoke: ledger entry %d violates carbon conservation: %+v", i, e)
		}
	}
	if led.Fleet.EnergyJ != led.Jobs[0].Totals.EnergyJ {
		log.Fatalf("smoke: fleet rollup %v != sole job's totals %v", led.Fleet.EnergyJ, led.Jobs[0].Totals.EnergyJ)
	}
	// One account: the clock has not moved since the scrape, so the
	// fleet bloat series read exactly the ledger's fleet totals, and the
	// emissions view exactly the job's.
	fleet := led.Fleet
	for series, want := range map[string]float64{
		`perseus_fleet_bloat_energy_joules_total{component="realized"}`:       fleet.EnergyJ,
		`perseus_fleet_bloat_energy_joules_total{component="floor"}`:          fleet.FloorJ,
		`perseus_fleet_bloat_energy_joules_total{component="residual_bloat"}`: fleet.ResidualJ,
		`perseus_fleet_bloat_energy_joules_total{component="migration"}`:      fleet.MigrationJ,
		`perseus_fleet_bloat_carbon_g_total{component="realized"}`:            fleet.CarbonG,
	} {
		if got := sample(text, series); got != want {
			log.Fatalf("smoke: %s = %v, ledger holds %v", series, got, want)
		}
	}
	em, err := cl.FetchEmissions(id)
	if err != nil {
		log.Fatal(err)
	}
	if tot := led.Jobs[0].Totals; em.EnergyJ != tot.EnergyJ || em.CarbonG != tot.CarbonG || em.CostUSD != tot.CostUSD {
		log.Fatalf("smoke: emissions (%v J, %v g, $%v) != ledger totals (%v J, %v g, $%v)",
			em.EnergyJ, em.CarbonG, em.CostUSD, tot.EnergyJ, tot.CarbonG, tot.CostUSD)
	}
	for _, want := range []string{
		`perseus_job_energy_joules_total{job="` + id + `",component="realized"}`,
		`perseus_job_energy_joules_total{job="` + id + `",component="floor"}`,
		"perseus_fleet_bloat_energy_joules_total",
		"perseus_fleet_bloat_carbon_g_total",
		`perseus_slo_status{slo="carbon-drift-ratio"} 0`,
	} {
		if !strings.Contains(text, want) {
			log.Fatalf("smoke: /metrics missing ledger series %q", want)
		}
	}
	raw, err := cl.FetchLedgerCSV(id, 0)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(raw)).ReadAll()
	if err != nil {
		log.Fatalf("smoke: ledger CSV does not parse: %v", err)
	}
	// The clock has not moved, so the CSV holds exactly the JSON's
	// entries.
	if len(rows) != len(entries)+1 {
		log.Fatalf("smoke: ledger CSV has %d rows, want header + %d entries", len(rows), len(entries))
	}
	if rows[0][0] != "job" || rows[0][5] != "energy_j" {
		log.Fatalf("smoke: ledger CSV header %v", rows[0])
	}
	for i, row := range rows[1:] {
		if len(row) != len(rows[0]) {
			log.Fatalf("smoke: CSV row %d has %d fields, want %d", i, len(row), len(rows[0]))
		}
		num := func(col int) float64 {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				log.Fatalf("smoke: CSV row %d col %d %q: %v", i, col, row[col], err)
			}
			return v
		}
		// The exported floats round-trip losslessly ('g', -1), so the
		// conservation identity must survive the CSV encoding exactly.
		energy, floor, migration, residual := num(5), num(8), num(9), num(10)
		if math.Abs(floor+migration+residual-energy) > 1e-9*math.Max(1, energy) {
			log.Fatalf("smoke: CSV row %d violates conservation: %v", i, row)
		}
	}

	// Unregistering the job drops its per-job series — cardinality must
	// shrink, while the fleet rollup retains the history.
	advance(time.Minute)
	if err := cl.RemoveJob(id); err != nil {
		log.Fatal(err)
	}
	text, err = cl.FetchMetrics()
	if err != nil {
		log.Fatal(err)
	}
	if strings.Contains(text, `job="`+id+`"`) {
		log.Fatalf("smoke: /metrics still carries per-job series after removing %s", id)
	}
	after, err := cl.FetchLedger("", 0)
	if err != nil {
		log.Fatal(err)
	}
	// The remove settles the job's final span first, so the fleet
	// rollup has grown — history is retained, never rewritten.
	if len(after.Jobs) != 0 || after.Fleet.EnergyJ <= led.Fleet.EnergyJ {
		log.Fatalf("smoke: ledger after remove = %+v, want no jobs and fleet > %v", after, led.Fleet.EnergyJ)
	}

	fmt.Printf("smoke ok: %d core series present, %d events recorded, %d-span plan trace, %d SLOs ok, %d ledger entries conserve, uptime %.2fs\n",
		len(core), len(events), len(planTrace.Spans), len(h.SLOs), len(entries), h.UptimeS)
}
