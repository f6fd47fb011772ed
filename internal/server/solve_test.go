package server

import (
	"errors"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"perseus/internal/client"
	"perseus/internal/grid"
	"perseus/internal/obs"
)

// failSolvesWhen installs the solve hook on srv: once fail reads true,
// every solve the server runs fails.
func failSolvesWhen(srv *Server, fail *atomic.Bool) {
	srv.solveHook = func(string, *grid.Signal) error {
		if fail.Load() {
			return errors.New("injected solver failure")
		}
		return nil
	}
}

// metricValue returns the value of the exposition line whose series
// (name and labels) is exactly series, and whether there is one.
func metricValue(text, series string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

// TestEveryPlanningLayerReports drives each of the server's four solve
// sites — a cold grid plan, a managed job's controller tick, a fleet
// recompute and a joint region plan — and pins what each reports: its
// latency series under its layer label and objective="carbon", its
// planner.solve span with the layer's work counts (for the fleet, under
// a cap, the cap's price and the certified gap), and, under an injected
// failure, one error under its layer label.
func TestEveryPlanningLayerReports(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	srv := New()
	srv.SetClock(clock.Now)
	var fail atomic.Bool
	failSolvesWhen(srv, &fail)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewServerClient(ts.URL)

	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	tbl, err := srv.Table(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.UploadGridSignal(forecastTestSignal(), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.InstallRevisionsForecast(11, 0.2, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	for name, carbon := range map[string]float64{"dirty": 500, "clean": 100} {
		if _, err := cl.RegisterRegion(name, 0, 0, flatSignal(name, 14400, carbon, 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	target := math.Floor(0.5 * 14400 / tbl.Tmin())
	// A cap below the job's Tmin draw, so every fleet recompute trades.
	if _, err := cl.SetFleetCap(0.97 * tbl.AvgPower(0)); err != nil {
		t.Fatal(err)
	}

	// solveAll runs every solve site once and returns the errors of the
	// three that surface one (a fleet recompute never fails its caller).
	solveAll := func(iterations float64) (errs []error) {
		_, err := cl.FetchGridPlan(id, iterations, 0, "")
		errs = append(errs, err)
		_, err = cl.ManageJob(id, iterations, 14400, "", 0)
		errs = append(errs, err)
		if _, err := cl.FetchFleetStatus(); err != nil {
			t.Fatal(err)
		}
		_, err = cl.FetchRegionsPlan(iterations, 0, "", 300, 1e6)
		return append(errs, err)
	}
	for _, err := range solveAll(target) {
		if err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(time.Hour)
	if st := srv.TickController(); st.LastTickError != "" {
		t.Fatalf("tick error %q", st.LastTickError)
	}

	layers := []string{"grid", "forecast-mpc", "fleet", "region"}
	text, err := cl.FetchMetrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, layer := range layers {
		series := `perseus_planner_plan_duration_seconds_count{planner="` + layer + `",objective="carbon"}`
		if n, ok := metricValue(text, series); !ok || n < 1 {
			t.Errorf("%s = %v (present %v), want at least 1", series, n, ok)
		}
	}

	// The newest solve span of each layer: the tick's for forecast-mpc.
	spans := map[string]map[string]string{}
	for _, tr := range srv.Traces(0, 0, obs.SpanPlannerSolve) {
		for _, sp := range findSpans(tr, obs.SpanPlannerSolve) {
			if _, seen := spans[sp.Attrs["planner"]]; !seen {
				spans[sp.Attrs["planner"]] = sp.Attrs
			}
		}
	}
	counts := map[string][]string{
		"grid":         {"steps"},
		"forecast-mpc": {"steps"},
		"fleet":        nil,
		"region": {"orders", "descents", "candidates", "pruned", "inner_solves", "memo_hits",
			"memo_resets", "materialized", "swaps_tried", "swaps_accepted"},
	}
	// The fleet reports reals instead: its cap's price and certified gap.
	reals := map[string][]string{"fleet": {"price", "gap"}}
	for _, layer := range layers {
		attrs, ok := spans[layer]
		if !ok {
			t.Errorf("%s: no %s span", layer, obs.SpanPlannerSolve)
			continue
		}
		if attrs["objective"] != "carbon" || len(attrs) != 2+len(counts[layer])+len(reals[layer]) {
			t.Errorf("%s: span attrs %v, want planner, objective=carbon, %v and %v",
				layer, attrs, counts[layer], reals[layer])
		}
		for _, key := range counts[layer] {
			if n, err := strconv.Atoi(attrs[key]); err != nil || n < 0 {
				t.Errorf("%s: span attr %s = %q", layer, key, attrs[key])
			}
		}
	}
	// The cap is feasible but binding: a finite positive price and a
	// finite non-negative gap.
	price, perr := strconv.ParseFloat(spans["fleet"]["price"], 64)
	gap, gerr := strconv.ParseFloat(spans["fleet"]["gap"], 64)
	if perr != nil || !(price > 0) || math.IsInf(price, 0) {
		t.Errorf("fleet: span attr price = %q, want finite and > 0", spans["fleet"]["price"])
	}
	if gerr != nil || !(gap >= 0) || math.IsInf(gap, 0) {
		t.Errorf("fleet: span attr gap = %q, want finite and >= 0", spans["fleet"]["gap"])
	}
	// Every solve here had work to do.
	for layer, key := range map[string]string{"grid": "steps", "forecast-mpc": "steps", "region": "inner_solves"} {
		if spans[layer][key] == "0" {
			t.Errorf("%s: span attr %s = 0", layer, key)
		}
	}

	// Under an injected failure each layer counts exactly one error.
	fail.Store(true)
	for i, err := range solveAll(target + 1) {
		if err == nil {
			t.Errorf("solve site %d succeeded through the injected failure", i)
		}
	}
	if text, err = cl.FetchMetrics(); err != nil {
		t.Fatal(err)
	}
	for _, layer := range layers {
		series := `perseus_planner_plan_errors_total{planner="` + layer + `"}`
		if n, ok := metricValue(text, series); n != 1 {
			t.Errorf("%s = %v (present %v), want 1", series, n, ok)
		}
	}
}
