package server

import (
	"encoding/csv"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"perseus/internal/client"
	"perseus/internal/obs"
)

// ledgerTestServer builds a server on a fake clock with the test
// signal installed, so every settled span is deterministic.
func ledgerTestServer(t *testing.T) (*Server, *fakeClock) {
	t.Helper()
	srv := New()
	clk := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	srv.SetClock(clk.Now)
	if _, err := srv.SetGridSignal(testSignal(), ""); err != nil {
		t.Fatal(err)
	}
	return srv, clk
}

const ledgerEps = 1e-9

func TestLedgerConservationAndReconciliation(t *testing.T) {
	srv, clk := ledgerTestServer(t)
	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3, DataParallel: 2,
	}, 4)

	// Span 1: 20 minutes in the dirty hour, no forecast.
	clk.Advance(20 * time.Minute)
	if _, err := srv.Emissions(id); err != nil {
		t.Fatal(err)
	}
	// Install a forecast: later spans are forecast-covered.
	if _, err := srv.SetForecast(ForecastRequest{Model: "persistence"}); err != nil {
		t.Fatal(err)
	}
	// Span 2: 50 minutes crossing into the clean hour.
	clk.Advance(50 * time.Minute)
	if err := srv.SetStraggler(id, StragglerNotice{ID: "gpu-3", Degree: 1.5}); err != nil {
		t.Fatal(err)
	}
	// Span 3: 30 minutes at the slowed straggler operating point.
	clk.Advance(30 * time.Minute)

	resp, err := srv.Ledger("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Jobs) != 1 || resp.Jobs[0].JobID != id {
		t.Fatalf("ledger jobs = %+v", resp.Jobs)
	}
	view := resp.Jobs[0]
	if len(view.Entries) < 3 {
		t.Fatalf("retained %d entries, want >= 3", len(view.Entries))
	}
	for i, e := range view.Entries {
		if e.Kind != obs.LedgerKindSpan {
			t.Fatalf("entry %d kind %q", i, e.Kind)
		}
		if e.EndUnixS < e.StartUnixS {
			t.Fatalf("entry %d runs backwards: %+v", i, e)
		}
		if !e.Conserved(ledgerEps) {
			t.Fatalf("entry %d violates conservation: %+v", i, e.BloatSpan)
		}
		// The frontier floor never exceeds what was actually burned on
		// training work (LookupIndex floors to a point at least as fast
		// as the deployed one; power strictly decreases along the
		// frontier).
		if e.ResidualJ < -ledgerEps*math.Max(1, e.EnergyJ) {
			t.Fatalf("entry %d floor above realized: %+v", i, e.BloatSpan)
		}
	}
	if !view.Totals.Conserved(ledgerEps) {
		t.Fatalf("job totals violate conservation: %+v", view.Totals.LedgerSpan)
	}
	if !resp.Fleet.Conserved(ledgerEps) {
		t.Fatalf("fleet totals violate conservation: %+v", resp.Fleet.LedgerSpan)
	}
	// One job: fleet rollup is exactly the job's totals.
	if resp.Fleet.EnergyJ != view.Totals.EnergyJ || resp.Fleet.Entries != view.Totals.Entries {
		t.Fatalf("fleet %+v != job totals %+v", resp.Fleet, view.Totals)
	}

	// The first span ran at Tmin: the always-Tmin baseline IS the
	// realized draw, so no intrinsic bloat was removed.
	first := view.Entries[0]
	if math.Abs(first.RemovedJ) > 1e-6*first.EnergyJ {
		t.Fatalf("pre-straggler span removed %v J vs %v realized, want ~0", first.RemovedJ, first.EnergyJ)
	}
	// The last span ran slowed under the straggler: running flat-out at
	// Tmin would have burned more at equal work.
	last := view.Entries[len(view.Entries)-1]
	if last.RemovedJ <= 0 {
		t.Fatalf("straggler span removed %v J, want > 0 (%+v)", last.RemovedJ, last.BloatSpan)
	}
	if last.Iterations <= 0 || last.FloorJ <= 0 {
		t.Fatalf("straggler span carries no work: %+v", last.BloatSpan)
	}

	// GET /jobs/{id}/emissions is a view of the ledger totals: each field
	// reads its total exactly (drift is PredRealC − PredC, the summed
	// DriftC up to rounding).
	em, err := srv.Emissions(id)
	if err != nil {
		t.Fatal(err)
	}
	if em.EnergyJ != view.Totals.EnergyJ {
		t.Fatalf("energy: emissions %v != ledger %v", em.EnergyJ, view.Totals.EnergyJ)
	}
	if em.CarbonG != view.Totals.CarbonG {
		t.Fatalf("carbon: emissions %v != ledger %v", em.CarbonG, view.Totals.CarbonG)
	}
	if em.CostUSD != view.Totals.CostUSD {
		t.Fatalf("cost: emissions %v != ledger %v", em.CostUSD, view.Totals.CostUSD)
	}
	if em.PredCarbonG != view.Totals.PredC {
		t.Fatalf("predicted: emissions %v != ledger %v", em.PredCarbonG, view.Totals.PredC)
	}
	if math.Abs(em.DriftCarbonG-view.Totals.DriftC) > ledgerEps*math.Max(1, math.Abs(em.DriftCarbonG)) {
		t.Fatalf("drift: emissions %v != ledger %v", em.DriftCarbonG, view.Totals.DriftC)
	}
	// Forecast-covered spans accrued: predicted-realized carbon is real.
	if view.Totals.PredRealC <= 0 {
		t.Fatalf("no forecast-covered realized carbon: %+v", view.Totals.LedgerSpan)
	}
}

func TestLedgerTickByTickConservation(t *testing.T) {
	srv, clk := ledgerTestServer(t)
	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	// 24 ten-minute controller ticks: every tick settles a span; the
	// running totals must conserve at every step, not just at the end.
	var prevEntries int
	for i := 0; i < 24; i++ {
		clk.Advance(10 * time.Minute)
		srv.TickController()
		resp, err := srv.Ledger(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		tot := resp.Jobs[0].Totals
		if tot.Entries <= prevEntries {
			t.Fatalf("tick %d settled nothing: %d entries", i, tot.Entries)
		}
		prevEntries = tot.Entries
		if !tot.Conserved(ledgerEps) {
			t.Fatalf("tick %d totals violate conservation: %+v", i, tot.LedgerSpan)
		}
	}
}

func TestLedgerMigrationEntry(t *testing.T) {
	srv, clk := ledgerTestServer(t)
	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	clean := testSignal()
	for i := range clean.Intervals {
		clean.Intervals[i].CarbonGPerKWh = 50
	}
	if _, err := srv.RegisterRegion(RegionRequest{Name: "green", GPUs: 64, Signal: clean}); err != nil {
		t.Fatal(err)
	}

	clk.Advance(15 * time.Minute)
	const m = 5e5
	if _, err := srv.PlaceJobMigrating(id, "green", math.NaN()); err == nil {
		t.Fatal("NaN migration energy must be rejected")
	}
	if _, err := srv.PlaceJobMigrating(id, "green", -1); err == nil {
		t.Fatal("negative migration energy must be rejected")
	}
	if _, err := srv.PlaceJobMigrating(id, "green", m); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Ledger(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	view := resp.Jobs[0]
	var mig *obs.LedgerEntry
	for i := range view.Entries {
		if view.Entries[i].Kind == obs.LedgerKindMigration {
			if mig != nil {
				t.Fatal("more than one migration entry")
			}
			mig = &view.Entries[i]
		}
	}
	if mig == nil {
		t.Fatalf("no migration entry in %+v", view.Entries)
	}
	if mig.EnergyJ != m || mig.MigrationJ != m {
		t.Fatalf("migration entry charges %v/%v J, want %v", mig.EnergyJ, mig.MigrationJ, m)
	}
	if mig.Iterations != 0 || mig.FloorJ != 0 || mig.RemovedJ != 0 {
		t.Fatalf("migration entry carries work: %+v", mig.BloatSpan)
	}
	if mig.StartUnixS != mig.EndUnixS {
		t.Fatalf("migration entry has width: %+v", mig)
	}
	if !mig.Conserved(0) {
		t.Fatalf("migration entry violates conservation: %+v", mig.BloatSpan)
	}
	// Charged at the clean destination's rate: 5e5 J at 50 g/kWh.
	wantC := m / 3.6e6 * 50
	if math.Abs(mig.CarbonG-wantC) > 1e-9 {
		t.Fatalf("migration carbon %v, want %v", mig.CarbonG, wantC)
	}
	if view.Totals.MigrationJ != m {
		t.Fatalf("totals migration %v, want %v", view.Totals.MigrationJ, m)
	}
	// Placing into the current region charges nothing.
	before := view.Totals.EnergyJ
	if _, err := srv.PlaceJobMigrating(id, "green", m); err != nil {
		t.Fatal(err)
	}
	resp, _ = srv.Ledger(id, 0)
	if got := resp.Jobs[0].Totals.EnergyJ; got != before {
		t.Fatalf("same-region placement charged energy: %v -> %v", before, got)
	}
}

func TestLedgerDriftSLOBreach(t *testing.T) {
	srv, clk := ledgerTestServer(t)
	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	// A deliberately terrible forecast: the seeded revisions issuer with
	// a huge per-step innovation, so predicted rates diverge far from
	// the realized signal and the drift ratio blows through 25%.
	if _, err := srv.SetForecast(ForecastRequest{Model: "revisions", Seed: 6, Sigma: 2}); err != nil {
		t.Fatal(err)
	}
	// 10-minute ticks to the signal's 2-hour mark: each tick settles a
	// forecast-covered span, and the revision noise diverges hardest
	// over the trailing spans the SLO windows measure.
	for i := 0; i < 12; i++ {
		clk.Advance(10 * time.Minute)
		srv.TickController()
	}
	resp, err := srv.Ledger(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	tot := resp.Jobs[0].Totals
	ratio := tot.AbsDriftC / (tot.AbsDriftC + tot.PredRealC)
	if !(ratio > 0.25) {
		t.Fatalf("fixture drift ratio %v not above the 0.25 SLO threshold (abs %v, covered %v); pick a worse seed",
			ratio, tot.AbsDriftC, tot.PredRealC)
	}

	var drift *obs.SLOStatus
	for _, st := range srv.SLOs() {
		if st.Name == "carbon-drift-ratio" {
			drift = &st
			break
		}
	}
	if drift == nil {
		t.Fatal("carbon-drift-ratio rule missing")
	}
	if drift.Status != obs.StatusBreach {
		t.Fatalf("drift SLO status %q (value %v), want breach", drift.Status, drift.Value)
	}
	if !(drift.Value > 0.25) {
		t.Fatalf("windowed drift value %v not above threshold", drift.Value)
	}
	// The breach names the worst-drifting job.
	if !strings.Contains(drift.Detail, id) {
		t.Fatalf("breach detail %q does not name %s", drift.Detail, id)
	}
	worst, worstRatio := srv.obs.ledger.WorstDriftJob()
	if worst != id || math.Abs(worstRatio-ratio) > 1e-9 {
		t.Fatalf("WorstDriftJob = %q/%v, want %q/%v", worst, worstRatio, id, ratio)
	}
	// Readiness drops and the transition event carries the offender.
	if h := srv.Health(); h.Ready {
		t.Fatalf("health still ready during drift breach: %+v", h)
	}
	var sawBreach bool
	for _, e := range srv.Events(0).Events {
		if e.Name == "slo.breach" && e.Labels["slo"] == "carbon-drift-ratio" {
			sawBreach = true
			if !strings.Contains(e.Labels["worst"], id) {
				t.Fatalf("breach event worst %q does not name %s", e.Labels["worst"], id)
			}
		}
	}
	if !sawBreach {
		t.Fatal("no slo.breach event for carbon-drift-ratio")
	}
}

func TestRemoveJobDropsSeriesAndLedger(t *testing.T) {
	srv, clk := ledgerTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewServerClient(ts.URL)

	id1 := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	id2 := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 3, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	clk.Advance(30 * time.Minute)
	if _, err := srv.Ledger("", 0); err != nil {
		t.Fatal(err)
	}

	metrics, err := cl.FetchMetrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"perseus_job_energy_joules_total", "perseus_fleet_bloat_energy_joules_total",
		`job="` + id1 + `"`, `job="` + id2 + `"`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
	fleetBefore, err := cl.FetchLedger("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleetBefore.Jobs) != 2 {
		t.Fatalf("ledger lists %d jobs, want 2", len(fleetBefore.Jobs))
	}

	if err := cl.RemoveJob(id1); err != nil {
		t.Fatal(err)
	}
	if err := cl.RemoveJob(id1); err == nil {
		t.Fatal("second remove must 404")
	}

	// Cardinality actually shrinks: no per-job series for id1 remain.
	metrics, err = cl.FetchMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(metrics, `job="`+id1+`"`) {
		t.Fatalf("metrics still carry series for removed %s", id1)
	}
	if !strings.Contains(metrics, `job="`+id2+`"`) {
		t.Fatal("remove deleted the surviving job's series")
	}

	after, err := cl.FetchLedger("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Jobs) != 1 || after.Jobs[0].JobID != id2 {
		t.Fatalf("ledger jobs after remove = %+v", after.Jobs)
	}
	// Fleet history does not rewrite itself when a job leaves.
	if after.Fleet.EnergyJ != fleetBefore.Fleet.EnergyJ || after.Fleet.Entries != fleetBefore.Fleet.Entries {
		t.Fatalf("fleet totals changed on remove: %+v -> %+v", fleetBefore.Fleet, after.Fleet)
	}
	// The removed job's ledger endpoint 404s.
	resp, err := http.Get(ts.URL + "/debug/ledger?job=" + id1)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("removed job ledger status %d, want 404", resp.StatusCode)
	}
}

func TestDebugLedgerEndpoint(t *testing.T) {
	srv, clk := ledgerTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewServerClient(ts.URL)

	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	for i := 0; i < 3; i++ {
		clk.Advance(10 * time.Minute)
		if _, err := srv.Ledger("", 0); err != nil {
			t.Fatal(err)
		}
	}

	for path, want := range map[string]int{
		"/debug/ledger?n=x":           http.StatusBadRequest,
		"/debug/ledger?n=-1":          http.StatusBadRequest,
		"/debug/ledger?format=xml":    http.StatusBadRequest,
		"/debug/ledger?job=none":      http.StatusNotFound,
		"/debug/ledger":               http.StatusOK,
		"/debug/ledger?format=csv":    http.StatusOK,
		"/debug/ledger?job=" + id:     http.StatusOK,
		"/debug/ledger?n=1&job=" + id: http.StatusOK,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	resp, err := http.Post(ts.URL+"/debug/ledger", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /debug/ledger = %d, want 405", resp.StatusCode)
	}

	// CSV round-trip: the rendered rows parse back to exactly the JSON
	// entries.
	led, err := cl.FetchLedger(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := cl.FetchLedgerCSV(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(raw)).ReadAll()
	if err != nil {
		t.Fatalf("ledger CSV does not parse: %v", err)
	}
	if len(rows) != len(led.Jobs[0].Entries)+1 {
		t.Fatalf("CSV has %d rows, want header + %d entries", len(rows), len(led.Jobs[0].Entries))
	}
	wantHeader := []string{
		"job", "kind", "start_unix_s", "end_unix_s", "iterations",
		"energy_j", "carbon_g", "cost_usd",
		"floor_j", "migration_j", "residual_j", "tmin_j", "removed_j",
		"floor_c", "migration_c", "residual_c",
		"blind_c", "temporal_saved_c",
		"pred_c", "pred_real_c", "drift_c", "pred_cost_usd",
	}
	if strings.Join(rows[0], ",") != strings.Join(wantHeader, ",") {
		t.Fatalf("CSV header = %v", rows[0])
	}
	for i, e := range led.Jobs[0].Entries {
		row := rows[i+1]
		if row[0] != id || row[1] != e.Kind {
			t.Fatalf("row %d = %v", i, row)
		}
		for col, want := range map[int]float64{5: e.EnergyJ, 6: e.CarbonG, 8: e.FloorJ, 20: e.DriftC, 21: e.PredCostUSD} {
			got, err := strconv.ParseFloat(row[col], 64)
			if err != nil || got != want {
				t.Fatalf("row %d col %d = %q, want %v (%v)", i, col, row[col], want, err)
			}
		}
	}

	// n=1 caps the returned entries; totals still cover everything.
	led1, err := cl.FetchLedger(id, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(led1.Jobs[0].Entries) != 1 {
		t.Fatalf("n=1 returned %d entries", len(led1.Jobs[0].Entries))
	}
	if led1.Jobs[0].Totals.Entries != led.Jobs[0].Totals.Entries {
		t.Fatal("n must cap entries, not totals")
	}
}

// TestLedgerHammer scrapes /metrics, /debug/ledger (JSON and CSV),
// emissions, and health concurrently with clock advances, controller
// ticks, straggler flips, and a job removal — the -race proof that
// settlement and export never tear.
func TestLedgerHammer(t *testing.T) {
	srv, clk := ledgerTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewServerClient(ts.URL)

	id1 := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	id2 := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 3, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	if _, err := srv.SetForecast(ForecastRequest{Model: "persistence"}); err != nil {
		t.Fatal(err)
	}

	const iters = 40
	var wg sync.WaitGroup
	run := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				fn(i)
			}
		}()
	}
	run(func(i int) {
		clk.Advance(time.Minute)
		srv.TickController()
	})
	run(func(i int) {
		_ = srv.SetStraggler(id1, StragglerNotice{ID: "gpu-0", Degree: 1 + float64(i%3)})
	})
	run(func(i int) { _, _ = cl.FetchMetrics() })
	run(func(i int) { _, _ = cl.FetchLedger("", 0) })
	run(func(i int) { _, _ = cl.FetchLedgerCSV("", 2) })
	run(func(i int) { _, _ = cl.FetchEmissions(id2) })
	run(func(i int) { _, _ = cl.FetchHealth() })
	run(func(i int) {
		if i == iters/2 {
			_ = srv.RemoveJob(id2)
		}
	})
	wg.Wait()

	// The surviving state is still coherent and conserving.
	resp, err := srv.Ledger(id1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Jobs[0].Totals.Conserved(1e-6) {
		t.Fatalf("post-hammer totals violate conservation: %+v", resp.Jobs[0].Totals.LedgerSpan)
	}
	if !resp.Fleet.Conserved(1e-6) {
		t.Fatalf("post-hammer fleet violates conservation: %+v", resp.Fleet.LedgerSpan)
	}
}

// scrapeSeries parses the exposition's job_* and fleet_bloat_* samples
// into series → value.
func scrapeSeries(t *testing.T, srv *Server) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := srv.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "perseus_job_") && !strings.HasPrefix(line, "perseus_fleet_bloat_") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestLedgerSeriesAreViews: after spans, a straggler and migrations,
// every per-job and fleet bloat series reads exactly the ledger total it
// views — no series more, none fewer.
func TestLedgerSeriesAreViews(t *testing.T) {
	srv, clk := ledgerTestServer(t)
	id1 := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3, DataParallel: 2,
	}, 4)
	id2 := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 3, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	if _, err := srv.RegisterRegion(RegionRequest{Name: "west", GPUs: 64, Signal: testSignal()}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SetForecast(ForecastRequest{Model: "revisions", Seed: 6, Sigma: 0.5}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(20 * time.Minute)
	srv.TickController()
	if err := srv.SetStraggler(id1, StragglerNotice{ID: "gpu-1", Degree: 1.5}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(20 * time.Minute)
	if _, err := srv.PlaceJobMigrating(id2, "west", 4e5); err != nil {
		t.Fatal(err)
	}
	clk.Advance(40 * time.Minute) // into the second hour, where the revised forecast drifts
	srv.TickController()

	led := srv.obs.ledger
	want := map[string]float64{}
	for _, id := range []string{id1, id2} {
		tot, ok := led.Totals(id)
		if !ok {
			t.Fatalf("%s has no ledger totals", id)
		}
		for comp, v := range map[string]float64{
			"realized": tot.EnergyJ, "floor": tot.FloorJ, "residual_bloat": tot.ResidualJ, "migration": tot.MigrationJ,
		} {
			want[`perseus_job_energy_joules_total{job="`+id+`",component="`+comp+`"}`] = v
		}
		want[`perseus_job_energy_intrinsic_removed_joules{job="`+id+`"}`] = tot.RemovedJ
		want[`perseus_job_carbon_drift_g{job="`+id+`"}`] = tot.PredRealC - tot.PredC
	}
	f := led.Fleet()
	for comp, v := range map[string][2]float64{
		"realized": {f.EnergyJ, f.CarbonG}, "floor": {f.FloorJ, f.FloorC},
		"residual_bloat": {f.ResidualJ, f.ResidualC}, "migration": {f.MigrationJ, f.MigrationC},
	} {
		want[`perseus_fleet_bloat_energy_joules_total{component="`+comp+`"}`] = v[0]
		want[`perseus_fleet_bloat_carbon_g_total{component="`+comp+`"}`] = v[1]
	}
	want["perseus_fleet_bloat_intrinsic_removed_joules"] = f.RemovedJ
	want["perseus_fleet_bloat_temporal_saved_carbon_g"] = f.TemporalSavedC
	want["perseus_fleet_bloat_drift_abs_carbon_g_total"] = f.AbsDriftC
	want["perseus_fleet_bloat_forecast_covered_carbon_g_total"] = f.PredRealC
	if f.MigrationJ == 0 || f.PredRealC == 0 || f.AbsDriftC == 0 {
		t.Fatalf("fixture settled no migration or forecast drift: %+v", f)
	}

	got := scrapeSeries(t, srv)
	if len(got) != len(want) {
		t.Fatalf("scraped %d ledger series, want %d:\n%v", len(got), len(want), got)
	}
	for series, v := range want {
		if g, ok := got[series]; !ok || g != v {
			t.Errorf("%s = %v (present %v), ledger holds %v", series, g, ok, v)
		}
	}
}

// TestLedgerCounterViewsNeverDecrease: a migration entry can carry a
// −ulp ResidualC (MigrationC = m·(c/m) rounds above c), so the ledger's
// fleet residual carbon can step down. The exported counter must not:
// across the scrapes around every migration, no counter series reads
// lower than it did.
func TestLedgerCounterViewsNeverDecrease(t *testing.T) {
	srv, _ := ledgerTestServer(t)
	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	for _, name := range []string{"east", "west"} {
		if _, err := srv.RegisterRegion(RegionRequest{Name: name, GPUs: 64, Signal: testSignal()}); err != nil {
			t.Fatal(err)
		}
	}
	isCounter := func(series string) bool {
		return strings.Contains(series, "_total")
	}
	last := scrapeSeries(t, srv)
	var negative, ledgerDropped bool
	prevLedger := srv.obs.ledger.Fleet().ResidualC
	for i := 0; i < 128; i++ {
		// No clock advance: only the zero-width migration entries settle.
		if _, err := srv.PlaceJobMigrating(id, []string{"east", "west"}[i%2], 1e5+float64(i)*12345.678); err != nil {
			t.Fatal(err)
		}
		view, _ := srv.obs.ledger.Job(id, 1)
		if view.Entries[0].ResidualC < 0 {
			negative = true
		}
		led := srv.obs.ledger.Fleet().ResidualC
		ledgerDropped = ledgerDropped || led < prevLedger
		prevLedger = led
		cur := scrapeSeries(t, srv)
		for series, v := range cur {
			if isCounter(series) && v < last[series] {
				t.Fatalf("migration %d: %s fell from %v to %v", i, series, last[series], v)
			}
		}
		last = cur
	}
	if !negative || !ledgerDropped {
		t.Fatalf("fixture never produced a negative ResidualC entry (%v) that lowered the ledger total (%v)", negative, ledgerDropped)
	}
}

// TestSettleAfterRemoveIsNoop: a settle on a job looked up before
// DELETE /jobs/{id} must not re-create the job in the ledger.
func TestSettleAfterRemoveIsNoop(t *testing.T) {
	srv, clk := ledgerTestServer(t)
	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	if _, err := srv.RegisterRegion(RegionRequest{Name: "west", GPUs: 64, Signal: testSignal()}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SetForecast(ForecastRequest{Model: "persistence"}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Minute)
	stale, ok := srv.st.job(id)
	if !ok {
		t.Fatal("job missing")
	}
	if err := srv.RemoveJob(id); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Minute)
	gs := srv.st.gridState()
	stale.mu.Lock()
	stale.accrueLocked(gs)
	stale.chargeMigrationLocked(gs, 1e5, gs.regions["west"])
	stale.mu.Unlock()
	if view, ok := srv.obs.ledger.Job(id, 0); ok {
		t.Fatalf("a settle after removal re-created %s in the ledger: %+v", id, view.Totals)
	}
	if worst, _ := srv.obs.ledger.WorstDriftJob(); worst == id {
		t.Fatalf("WorstDriftJob names removed %s", id)
	}
	if strings.Contains(fmt.Sprint(scrapeSeries(t, srv)), `job="`+id+`"`) {
		t.Fatalf("metrics carry series for removed %s", id)
	}
}
