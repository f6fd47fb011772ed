package server

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perseus/internal/client"
	"perseus/internal/grid"
	"perseus/internal/obs"
)

// TestObservabilityEndpoints drives one end-to-end planning flow and
// checks that /metrics, /healthz, and /debug/events report it: the
// core series carry the expected counts, the health view reflects the
// installed state, and the event ring recorded the lifecycle.
func TestObservabilityEndpoints(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewServerClient(ts.URL)

	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	if _, err := cl.UploadGridSignal(testSignal(), ""); err != nil {
		t.Fatal(err)
	}
	// One miss, one hit.
	if _, err := cl.FetchGridPlan(id, 50, 0, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.FetchGridPlan(id, 50, 0, ""); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	text, err := cl.FetchMetrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE perseus_http_requests_total counter",
		`perseus_http_requests_total{route="/grid/plan/{id}",method="GET",code="200"} 2`,
		`perseus_http_requests_total{route="/grid/signal",method="POST",code="200"} 1`,
		"perseus_plan_cache_hits_total 1",
		"perseus_plan_cache_misses_total 1",
		"perseus_jobs_registered_total 1",
		`perseus_characterizations_total{outcome="ok"} 1`,
		"perseus_characterize_seconds_count 1",
		"perseus_characterize_points_count 1",
		`perseus_planner_plan_duration_seconds_count{planner="grid",objective="carbon"} 1`,
		"# TYPE perseus_http_request_duration_seconds histogram",
		"perseus_controller_ticks_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	h, err := cl.FetchHealth()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Jobs != 1 || !h.SignalInstalled || h.ForecastInstalled || h.ControllerRunning {
		t.Fatalf("health view %+v", h)
	}

	events, err := cl.FetchEvents(0)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for i, e := range events {
		byName[e.Name]++
		if i > 0 && e.Seq <= events[i-1].Seq {
			t.Fatalf("event seq not increasing: %d after %d", e.Seq, events[i-1].Seq)
		}
		if e.Name != "job.characterize" {
			continue
		}
		// The characterize event carries the optimizer's work counts:
		// one step per point after the first, plus at most the closing
		// call that finds no cut. (Paths can be fewer than steps: a
		// warm-started solve often has nothing left to push; every step
		// either grows the last cut's S side or ends on a search that
		// finds no path, and moves at least one edge.
		// The first step builds the Critical DAG; a later one may keep
		// the previous step's.)
		count := func(key string) int {
			n, err := strconv.Atoi(e.Labels[key])
			if err != nil {
				t.Fatalf("job.characterize label %q = %q: %v", key, e.Labels[key], err)
			}
			return n
		}
		points, steps := count("points"), count("steps")
		if points < 10 || steps < points-1 || steps > points || count("augmenting_paths") < 1 || count("fallbacks") != 0 ||
			count("searches")+count("grown") < steps || count("edges_moved") < steps || count("rebuilds") < 1 || count("rebuilds") > steps {
			t.Fatalf("job.characterize work counts %v", e.Labels)
		}
		// The table keeps the Pareto points, the planners step over its
		// hull, and the Tmin and T* points are on both.
		if tablePts, hullPts := count("table_points"), count("hull_points"); tablePts > points || hullPts > tablePts || hullPts < 2 {
			t.Fatalf("job.characterize table counts %v", e.Labels)
		}
	}
	if byName["job.register"] != 1 || byName["job.characterize"] != 1 || byName["signal.install"] != 1 {
		t.Fatalf("event counts %v", byName)
	}
	// A limited fetch returns the newest suffix.
	last, err := cl.FetchEvents(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(last) != 1 || last[0].Seq != events[len(events)-1].Seq {
		t.Fatalf("limited fetch %v, want newest %v", last, events[len(events)-1])
	}
}

// TestControllerTickMetrics pins the controller instrumentation under a
// fake clock: the tick counter, the tick-duration histogram count, and
// the event ring's controller.tick spans all match the number of ticks
// driven exactly, the replan counter matches the job's plan count, and
// the new GET /controller fields surface the last replan time.
func TestControllerTickMetrics(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	srv := New()
	srv.SetClock(clock.Now)
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
	target := math.Floor(0.8 * 14400 / tbl.Tmin())
	if _, err := cl.ManageJob(id, target, 14400, "", 0); err != nil {
		t.Fatal(err)
	}

	const ticks = 3
	var last client.ControllerStatus
	for i := 0; i < ticks; i++ {
		clock.Advance(time.Hour)
		if last, err = cl.TickController(); err != nil {
			t.Fatal(err)
		}
	}

	if got := srv.obs.ticks.Value(); got != ticks {
		t.Fatalf("tick counter %v, want %d", got, ticks)
	}
	if got := srv.obs.tickDur.Count(); got != ticks {
		t.Fatalf("tick duration histogram count %d, want %d", got, ticks)
	}
	plans := last.Jobs[0].Plans
	if plans < 2 {
		t.Fatalf("expected re-plans beyond the initial one, got %d", plans)
	}
	if got := srv.obs.replans.Value(); got != float64(plans) {
		t.Fatalf("replan counter %v, want %d (the job's plan count)", got, plans)
	}
	if got := srv.obs.replanFails.Value(); got != 0 {
		t.Fatalf("replan failure counter %v, want 0", got)
	}
	if last.LastTickError != "" {
		t.Fatalf("clean ticks reported error %q", last.LastTickError)
	}
	wantAt := float64(clock.Now().UnixNano()) / 1e9
	if last.Jobs[0].LastReplanUnixS != wantAt {
		t.Fatalf("last replan at %v, want %v", last.Jobs[0].LastReplanUnixS, wantAt)
	}

	var tickEvents, replanEvents []obs.Event
	for _, e := range srv.Events(0).Events {
		switch e.Name {
		case "controller.tick":
			tickEvents = append(tickEvents, e)
		case "controller.replan":
			replanEvents = append(replanEvents, e)
		}
	}
	if len(tickEvents) != ticks {
		t.Fatalf("%d controller.tick events, want %d", len(tickEvents), ticks)
	}
	if len(replanEvents) != plans {
		t.Fatalf("%d controller.replan events, want %d", len(replanEvents), plans)
	}
	// Event timestamps come from the server clock, so under the fake
	// clock each tick span lands exactly on its driven instant.
	base := float64(time.Unix(1_700_000_000, 0).UnixNano()) / 1e9
	for i, e := range tickEvents {
		if want := base + float64(i+1)*3600; e.AtUnixS != want {
			t.Fatalf("tick %d at %v, want %v", i, e.AtUnixS, want)
		}
		if e.Labels["jobs"] != "1" || e.Labels["errors"] != "0" {
			t.Fatalf("tick %d labels %v", i, e.Labels)
		}
	}
}

// TestControllerLastTickErrorSurfaced pins the failure side: a managed
// job whose roll-forward fails leaves the tick counted, the failure
// counted, and the error surfaced in GET /controller.
func TestControllerLastTickErrorSurfaced(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	srv := New()
	srv.SetClock(clock.Now)
	var fail atomic.Bool
	srv.solveHook = func(layer string, _ *grid.Signal) error {
		if layer == "forecast-mpc" && fail.Load() {
			return errors.New("solver down")
		}
		return nil
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewServerClient(ts.URL)

	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	if _, err := cl.UploadGridSignal(forecastTestSignal(), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.InstallForecast("persistence", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ManageJob(id, 1e9, 14400, "", 0); err != nil {
		t.Fatal(err)
	}
	// The tick's roll-forward cannot re-plan.
	fail.Store(true)
	clock.Advance(time.Hour)
	st, err := cl.TickController()
	if err != nil {
		t.Fatal(err)
	}
	if st.LastTickError == "" || !strings.Contains(st.LastTickError, id) {
		t.Fatalf("last tick error %q, want one mentioning %s", st.LastTickError, id)
	}
	if st.Jobs[0].LastError == "" {
		t.Fatal("per-job last error not set")
	}
	if got := srv.obs.ticks.Value(); got != 1 {
		t.Fatalf("tick counter %v, want 1", got)
	}
}

// TestObsConcurrentHammer drives one registry from every direction at
// once — HTTP plan and schedule handlers, synchronous controller ticks,
// and metric scrapes — and relies on -race to catch unsynchronized
// access. The final scrape must still parse as a sane exposition.
func TestObsConcurrentHammer(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	srv := New()
	srv.SetClock(clock.Now)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewServerClient(ts.URL)

	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	if _, err := cl.UploadGridSignal(forecastTestSignal(), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.InstallRevisionsForecast(7, 0.1, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ManageJob(id, 1e6, 14400, "", 0); err != nil {
		t.Fatal(err)
	}

	const iters = 30
	var wg sync.WaitGroup
	run := func(fn func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := fn(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	run(func(i int) error { // plan fetches: hits, misses, single-flight
		_, err := cl.FetchGridPlan(id, float64(50+i%3), 0, "")
		return err
	})
	run(func(i int) error { // schedule fetches through the middleware
		_, err := cl.FetchSchedule(id)
		return err
	})
	run(func(i int) error { // controller ticks under an advancing clock
		clock.Advance(time.Minute)
		_, err := cl.TickController()
		return err
	})
	run(func(i int) error { // metric scrapes concurrent with writes
		_, err := cl.FetchMetrics()
		return err
	})
	run(func(i int) error { // event snapshots concurrent with emits
		_, err := cl.FetchEvents(16)
		return err
	})
	wg.Wait()

	text, err := cl.FetchMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "perseus_controller_ticks_total 30") {
		t.Fatalf("final scrape lost ticks:\n%s", text)
	}
	if got := srv.obs.httpInFlight.Value(); got != 0 {
		t.Fatalf("in-flight gauge %v after quiescence, want 0", got)
	}
}

// TestMethodLabelBounded: made-up request methods share the "other"
// label, so a client cannot mint a perseus_http_requests_total series
// per request.
func TestMethodLabelBounded(t *testing.T) {
	srv := New()
	h := srv.Handler()
	for i := 0; i < 50; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("MADEUP"+strconv.Itoa(i), "/fleet/status", nil))
	}
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/fleet/status", nil))
	var b strings.Builder
	if err := srv.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"other": true}
	for _, m := range []string{http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodPatch,
		http.MethodDelete, http.MethodConnect, http.MethodOptions, http.MethodTrace} {
		allowed[m] = true
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "perseus_http_requests_total{") {
			continue
		}
		_, rest, _ := strings.Cut(line, `method="`)
		method, _, _ := strings.Cut(rest, `"`)
		if !allowed[method] {
			t.Errorf("unbounded method label %q", method)
		}
		seen[method] = true
	}
	if !seen["other"] || !seen[http.MethodGet] {
		t.Fatalf("method labels %v, want GET and other", seen)
	}
}
