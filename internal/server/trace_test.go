package server

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"perseus/internal/client"
	"perseus/internal/grid"
	"perseus/internal/obs"
)

// findSpans returns the trace's spans with the given name.
func findSpans(tr client.Trace, name string) []client.Span {
	var out []client.Span
	for _, sp := range tr.Spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// spanByID indexes a trace's spans for parent-chain assertions.
func spanByID(tr client.Trace) map[string]client.Span {
	m := make(map[string]client.Span, len(tr.Spans))
	for _, sp := range tr.Spans {
		m[sp.SpanID] = sp
	}
	return m
}

// TestPlanRequestTraceSpans pins the request-path span tree: a cache
// miss through GET /grid/plan yields http → store.snapshot +
// cache.lookup → planner.solve (at least four spans, correctly
// parented), and the following hit yields a cache.lookup with
// hit=true and no solve.
func TestPlanRequestTraceSpans(t *testing.T) {
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
	for i := 0; i < 2; i++ { // miss, then hit
		if _, err := cl.FetchGridPlan(id, 50, 0, ""); err != nil {
			t.Fatal(err)
		}
	}

	traces, err := cl.FetchTraces(0, 0, spanCacheLookup)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("%d traces with a cache lookup, want 2", len(traces))
	}
	hit, miss := traces[0], traces[1] // newest first

	if miss.Root != "http /grid/plan/{id}" {
		t.Fatalf("miss trace root %q", miss.Root)
	}
	if len(miss.Spans) < 4 {
		t.Fatalf("miss trace has %d spans, want >= 4: %+v", len(miss.Spans), miss.Spans)
	}
	byID := spanByID(miss)
	var rootID string
	for _, sp := range miss.Spans {
		if sp.ParentID == "" {
			rootID = sp.SpanID
		}
	}
	snaps := findSpans(miss, spanStoreSnapshot)
	if len(snaps) != 1 || snaps[0].ParentID != rootID || snaps[0].Attrs["job"] != id {
		t.Fatalf("store.snapshot spans %+v (root %s)", snaps, rootID)
	}
	looks := findSpans(miss, spanCacheLookup)
	if len(looks) != 1 || looks[0].ParentID != rootID {
		t.Fatalf("cache.lookup spans %+v (root %s)", looks, rootID)
	}
	if looks[0].Attrs["hit"] != "false" || looks[0].Attrs["coalesced"] != "false" {
		t.Fatalf("miss lookup attrs %v", looks[0].Attrs)
	}
	solves := findSpans(miss, obs.SpanPlannerSolve)
	if len(solves) != 1 {
		t.Fatalf("planner.solve spans %+v", solves)
	}
	if parent, ok := byID[solves[0].ParentID]; !ok || parent.Name != spanCacheLookup {
		t.Fatalf("planner.solve parented under %q, want %s", solves[0].ParentID, spanCacheLookup)
	}
	if solves[0].Attrs["planner"] != "grid" || solves[0].Attrs["objective"] != "carbon" {
		t.Fatalf("planner.solve attrs %v", solves[0].Attrs)
	}

	looks = findSpans(hit, spanCacheLookup)
	if len(looks) != 1 || looks[0].Attrs["hit"] != "true" || looks[0].Attrs["coalesced"] != "false" {
		t.Fatalf("hit lookup spans %+v", looks)
	}
	if got := findSpans(hit, obs.SpanPlannerSolve); len(got) != 0 {
		t.Fatalf("cache hit still solved: %+v", got)
	}
}

// TestTraceparentJoinsTrace pins context propagation end to end: a
// client with a fixed traceparent sees every request's server-side
// spans land in its own trace, the response echoes the trace in
// X-Trace-Id, and a malformed header starts a fresh trace instead.
func TestTraceparentJoinsTrace(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cl := client.NewTracedServerClient(ts.URL)
	if cl.TraceID() == "" {
		t.Fatal("traced client minted no trace ID")
	}
	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	if _, err := cl.UploadGridSignal(testSignal(), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.FetchGridPlan(id, 50, 0, ""); err != nil {
		t.Fatal(err)
	}

	var joined client.Trace
	traces, err := cl.FetchTraces(0, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces {
		if tr.TraceID == cl.TraceID() {
			joined = tr
		}
	}
	if joined.TraceID == "" {
		t.Fatalf("no trace with the client's ID %s", cl.TraceID())
	}
	// The signal install and the plan fetch both joined: multiple http
	// roots share the one client trace, with the solve nested inside.
	var httpSpans, solves int
	for _, sp := range joined.Spans {
		if strings.HasPrefix(sp.Name, "http ") {
			httpSpans++
		}
		if sp.Name == obs.SpanPlannerSolve {
			solves++
		}
	}
	if httpSpans < 2 || solves != 1 {
		t.Fatalf("joined trace: %d http spans, %d solves: %+v", httpSpans, solves, joined.Spans)
	}

	// The response surfaces the trace: X-Trace-Id matches the inbound
	// traceparent's trace ID.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("Traceparent", cl.Traceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != cl.TraceID() {
		t.Fatalf("X-Trace-Id %q, want %q", got, cl.TraceID())
	}

	// Malformed traceparent: fresh trace, not an error.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("Traceparent", "garbage-header")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("malformed traceparent rejected: %s", resp.Status)
	}
	if got := resp.Header.Get("X-Trace-Id"); got == "" || got == cl.TraceID() {
		t.Fatalf("malformed traceparent did not start a fresh trace: %q", got)
	}
}

// TestTickTraceStageSpans pins the controller-tick span tree under a
// fake clock: one controller.tick root with exactly one child span per
// roll-forward stage (inputs, freeze, forecast, solve, bump) and the
// planner.solve grandchild nested under the solve stage.
func TestTickTraceStageSpans(t *testing.T) {
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

	clock.Advance(time.Hour)
	if st := srv.TickController(); st.LastTickError != "" {
		t.Fatalf("tick error %q", st.LastTickError)
	}

	traces := srv.Traces(1, 0, spanControllerTick)
	if len(traces) != 1 {
		t.Fatalf("%d tick traces, want 1", len(traces))
	}
	tick := traces[0]
	if tick.Root != spanControllerTick {
		t.Fatalf("tick trace root %q", tick.Root)
	}
	var rootID string
	byID := map[string]string{} // span ID -> name
	for _, sp := range tick.Spans {
		byID[sp.SpanID] = sp.Name
		if sp.ParentID == "" {
			rootID = sp.SpanID
			if sp.Attrs["jobs"] != "1" || sp.Attrs["errors"] != "0" || sp.Attrs["forecasts"] != "1" {
				t.Fatalf("tick root attrs %v", sp.Attrs)
			}
		}
		if sp.Name == spanReplanFcast && sp.Attrs["shared_by"] != "1" {
			t.Fatalf("forecast span attrs %v, want shared by the one job", sp.Attrs)
		}
	}
	// Exactly one direct child per stage, in the stage taxonomy.
	stages := map[string]int{}
	for _, sp := range tick.Spans {
		if sp.ParentID == rootID {
			stages[sp.Name]++
		}
	}
	for _, stage := range []string{spanReplanInputs, spanReplanFreeze, spanReplanFcast, spanReplanSolve, spanReplanBump} {
		if stages[stage] != 1 {
			t.Fatalf("stage %s appears %d times as a tick child, want 1 (%v)", stage, stages[stage], stages)
		}
	}
	// The MPC solve nests the instrumented planner's span below it, and
	// the bump stage records the version it deployed.
	var solveNested, bumpVersioned bool
	for _, sp := range tick.Spans {
		if sp.Name == obs.SpanPlannerSolve && byID[sp.ParentID] == spanReplanSolve {
			if sp.Attrs["planner"] != "forecast-mpc" {
				t.Fatalf("tick solve planner attr %v", sp.Attrs)
			}
			solveNested = true
		}
		if sp.Name == spanReplanBump && sp.Attrs["version"] != "" {
			bumpVersioned = true
		}
	}
	if !solveNested {
		t.Fatalf("no planner.solve nested under %s: %+v", spanReplanSolve, tick.Spans)
	}
	if !bumpVersioned {
		t.Fatalf("bump span carries no version: %+v", tick.Spans)
	}
}

// gate is a solve hook that blocks each solve it sees until released —
// the seam tests use to hold a solve in flight.
func gate(entered, release chan struct{}) func(string, *grid.Signal) error {
	return func(string, *grid.Signal) error {
		entered <- struct{}{}
		<-release
		return nil
	}
}

// TestCoalescedLookupTraceAttr pins the single-flight trace attr: a
// follower that parks on another request's in-flight solve records its
// cache.lookup span with coalesced=true.
func TestCoalescedLookupTraceAttr(t *testing.T) {
	srv := New()
	entered, release := make(chan struct{}, 1), make(chan struct{})
	gated := gate(entered, release)
	// Gate only the grid layer: the fleet recompute that follows
	// characterization must pass through untouched.
	srv.solveHook = func(layer string, sig *grid.Signal) error {
		if layer != "grid" {
			return nil
		}
		return gated(layer, sig)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewServerClient(ts.URL)

	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	if _, err := cl.UploadGridSignal(testSignal(), ""); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	fetch := func() {
		defer wg.Done()
		if _, err := cl.FetchGridPlan(id, 50, 0, ""); err != nil {
			t.Error(err)
		}
	}
	wg.Add(2)
	go fetch()
	<-entered // the leader is inside the solve
	go fetch()
	deadline := time.Now().Add(5 * time.Second)
	for srv.CacheStats().Coalesced != 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	var misses, coalesced int
	for _, tr := range srv.Traces(0, 0, spanCacheLookup) {
		for _, sp := range tr.Spans {
			if sp.Name != spanCacheLookup {
				continue
			}
			switch {
			case sp.Attrs["hit"] == "false":
				misses++
			case sp.Attrs["hit"] == "true" && sp.Attrs["coalesced"] == "true":
				coalesced++
			}
		}
	}
	if misses != 1 || coalesced != 1 {
		t.Fatalf("lookup spans: %d misses, %d coalesced followers; want 1 and 1", misses, coalesced)
	}
}

// TestReplanFailureBreachesSLO drives the whole self-monitoring loop
// under a fake clock: a forced planner error marks the replan.solve
// span failed, trips the replan-failure-ratio SLO to breach, flips
// /healthz readiness, mirrors the level into the status metrics, and
// emits an slo.breach event carrying the offending trace ID.
func TestReplanFailureBreachesSLO(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	srv := New()
	srv.SetClock(clock.Now)
	// Fail every solve over a grid signal (cold plans and the
	// controller's): the injected fault that trips the replan-failure SLO.
	srv.solveHook = func(_ string, sig *grid.Signal) error {
		if sig == nil {
			return nil
		}
		return fmt.Errorf("injected solver failure")
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
	if _, err := cl.ManageJob(id, 1e6, 14400, "", 0); err == nil {
		t.Fatal("managed job planned through the injected failure")
	}
	if got := srv.obs.replanFails.Value(); got != 1 {
		t.Fatalf("replan failure counter %v, want 1", got)
	}

	// The errored solve's trace is retained and marked.
	solved := srv.Traces(1, 0, spanReplanSolve)
	if len(solved) != 1 || !solved[0].Err {
		t.Fatalf("errored replan trace %+v", solved)
	}
	wantTrace := solved[0].TraceID

	h, err := cl.FetchHealth()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "breach" || h.Ready {
		t.Fatalf("health after forced failure: status=%q ready=%v", h.Status, h.Ready)
	}
	var ratio client.SLOStatus
	for _, st := range h.SLOs {
		if st.Name == "replan-failure-ratio" {
			ratio = st
		}
	}
	if ratio.Status != "breach" || ratio.Value != 1 || ratio.WorstTraceID != wantTrace {
		t.Fatalf("replan-failure-ratio status %+v, want breach at 1.0 blaming %s", ratio, wantTrace)
	}
	if ratio.BurnRate < 9.9 || ratio.BurnRate > 10.1 { // 1.0 against a 0.10 budget
		t.Fatalf("burn rate %v, want ~10", ratio.BurnRate)
	}

	// /debug/slo agrees, and the other rules are unaffected.
	slos, err := cl.FetchSLOs()
	if err != nil {
		t.Fatal(err)
	}
	if len(slos) != 4 {
		t.Fatalf("%d SLO rules, want 4", len(slos))
	}
	for _, st := range slos {
		want := "ok"
		if st.Name == "replan-failure-ratio" {
			want = "breach"
		}
		if st.Status != want {
			t.Fatalf("SLO %s status %q, want %q", st.Name, st.Status, want)
		}
	}

	// The breach transition was mirrored into metrics and the event ring.
	text, err := cl.FetchMetrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`perseus_slo_status{slo="replan-failure-ratio"} 2`,
		`perseus_slo_status{slo="plan-latency-p99"} 0`,
		`perseus_slo_breaches_total{slo="replan-failure-ratio"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	var breach *obs.Event
	for _, e := range srv.Events(0).Events {
		if e.Name == "slo.breach" {
			ev := e
			breach = &ev
		}
	}
	if breach == nil {
		t.Fatal("no slo.breach event emitted")
	}
	if breach.Labels["slo"] != "replan-failure-ratio" || breach.Labels["from"] != "ok" ||
		breach.Labels["to"] != "breach" || breach.Labels["trace_id"] != wantTrace {
		t.Fatalf("slo.breach labels %v, want trace %s", breach.Labels, wantTrace)
	}
}

// TestLongPollWakeAccounting parks N concurrent long-pollers on one
// job's version, bumps it once, and pins the accounting exactly: every
// poller wakes with the new schedule, the waiters gauge returns to
// zero, the wake histogram counts exactly the woken waiters, and each
// park recorded a woken=true span.
func TestLongPollWakeAccounting(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	srv := New()
	srv.SetClock(clock.Now)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewServerClient(ts.URL)

	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	sched, err := cl.FetchSchedule(id)
	if err != nil {
		t.Fatal(err)
	}

	const pollers = 8
	var wg sync.WaitGroup
	for w := 0; w < pollers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s2, changed, err := cl.FetchScheduleIfChanged(id, sched.Version, 10*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			if !changed || s2.Version <= sched.Version {
				t.Errorf("poller missed the bump: version %d changed=%v", s2.Version, changed)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.obs.waiters.Value() != pollers {
		if time.Now().After(deadline) {
			t.Fatalf("waiters gauge %v, want %d parked", srv.obs.waiters.Value(), pollers)
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.SetStraggler(id, StragglerNotice{ID: "x", Degree: 1.3}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if got := srv.obs.waiters.Value(); got != 0 {
		t.Fatalf("waiters gauge %v after wake, want 0", got)
	}
	if got := srv.obs.wakeDur.Count(); got != pollers {
		t.Fatalf("wake histogram count %d, want exactly %d woken waiters", got, pollers)
	}
	var woken int
	for _, tr := range srv.Traces(0, 0, spanLongpollPark) {
		for _, sp := range tr.Spans {
			if sp.Name == spanLongpollPark && sp.Attrs["woken"] == "true" {
				if sp.Attrs["job"] != id {
					t.Fatalf("park span attrs %v", sp.Attrs)
				}
				woken++
			}
		}
	}
	if woken != pollers {
		t.Fatalf("%d woken park spans, want %d", woken, pollers)
	}
}

// TestDebugEndpointValidation pins the debug endpoints' parameter
// contract: malformed n, since, and min_ms values answer 400 instead
// of being silently ignored, and a huge finite min_ms filters out every
// trace instead of overflowing into no filter.
func TestDebugEndpointValidation(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{
		"/debug/events?n=abc",
		"/debug/events?n=-1",
		"/debug/events?since=abc",
		"/debug/events?since=-3",
		"/debug/traces?n=abc",
		"/debug/traces?n=-1",
		"/debug/traces?min_ms=abc",
		"/debug/traces?min_ms=-1",
		"/debug/traces?min_ms=NaN",
		"/debug/traces?min_ms=Inf",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: %s, want 400", path, resp.Status)
		}
	}

	cl := client.NewServerClient(ts.URL)
	if tr, err := cl.FetchTraces(0, 0, ""); err != nil || len(tr) == 0 {
		t.Fatalf("unfiltered: %d traces, %v; want the requests above", len(tr), err)
	}
	if tr, err := cl.FetchTraces(0, 1e300, ""); err != nil || len(tr) != 0 {
		t.Errorf("min_ms=1e300: %d traces, %v; want none", len(tr), err)
	}
}

// TestEventsSinceCursor pins the /debug/events cursor contract: a
// client that passes the last seen Seq back gets only newer events,
// oldest first, capped at n.
func TestEventsSinceCursor(t *testing.T) {
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

	all, err := cl.FetchEvents(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 3 {
		t.Fatalf("need >= 3 seed events, got %d", len(all))
	}
	cursor := all[0].Seq

	rest, err := cl.FetchEventsSince(cursor, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != len(all)-1 || rest[0].Seq != all[1].Seq {
		t.Fatalf("cursor fetch returned %d events, want the %d after seq %d",
			len(rest), len(all)-1, cursor)
	}
	// The cap keeps the OLDEST qualifying events: a poller pages forward
	// without gaps.
	capped, err := cl.FetchEventsSince(cursor, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 1 || capped[0].Seq != all[1].Seq {
		t.Fatalf("capped cursor fetch %+v, want oldest-after %d", capped, cursor)
	}
	// Past the end: empty, not an error.
	tail, err := cl.FetchEventsSince(all[len(all)-1].Seq, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 0 {
		t.Fatalf("fetch past the newest seq returned %d events", len(tail))
	}
	// A new emission is picked up by the same cursor.
	if err := srv.SetStraggler(id, StragglerNotice{ID: "x", Degree: 1.2}); err != nil {
		t.Fatal(err)
	}
	fresh, err := cl.FetchEventsSince(all[len(all)-1].Seq, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != 1 || fresh[0].Name != "job.straggler" {
		t.Fatalf("cursor missed the new event: %+v", fresh)
	}
}
