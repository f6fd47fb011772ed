package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"

	"perseus/internal/grid"
	"perseus/internal/obs"
)

// TestTickForecastCoversToDeadline pins a tick's forecast coverage: the
// issue for a schedule's positive deadline D covers [0, D) — D cutting
// an interval — and over [t, D) it is the default-coverage issue bit
// for bit, rates and bands; a deadline-0 schedule's issue keeps the
// default coverage, one whole cycle past t. The schedules a tick rolls
// hold views of those issues.
func TestTickForecastCoversToDeadline(t *testing.T) {
	srv, clock, ids := fleetServer(t, 2, nil)
	truth := grid.Diurnal24h()
	h := truth.Horizon()
	if _, err := srv.SetGridSignal(*truth, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SetForecast(ForecastRequest{Model: "revisions", Seed: 5, Sigma: 0.2}); err != nil {
		t.Fatal(err)
	}
	const deadline = 20*3600 + 1800
	for k, d := range []float64{deadline, 0} {
		tbl, err := srv.Table(ids[k])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.ManageJob(ids[k], math.Floor(0.4*deadline/tbl.Tmin()), d, "", 0); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(3 * time.Hour)
	if st := srv.TickController(); st.LastTickError != "" {
		t.Fatal(st.LastTickError)
	}
	const now = 3 * 3600.0

	spec := srv.st.fspec
	cut, err := issueForecast(truth, spec, now, deadline, true)
	if err != nil {
		t.Fatal(err)
	}
	full, err := issueForecast(truth, spec, now, deadline, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := cut.Signal.Horizon(); got != deadline {
		t.Fatalf("deadline issue covers [0, %v), want [0, %v)", got, float64(deadline))
	}
	if got, want := full.Signal.Horizon(), 2*h; got != want {
		t.Fatalf("default issue covers [0, %v), want [0, %v)", got, want)
	}
	n := len(cut.Signal.Intervals)
	for i, iv := range cut.Signal.Intervals {
		want := full.Signal.Intervals[i]
		if i == n-1 {
			want.EndS = deadline // the deadline cuts the last interval
		}
		if iv != want || cut.Carbon[i] != full.Carbon[i] || cut.Price[i] != full.Price[i] {
			t.Fatalf("interval %d: deadline issue %+v %v %v, default issue %+v %v %v",
				i, iv, cut.Carbon[i], cut.Price[i], want, full.Carbon[i], full.Price[i])
		}
	}
	zero, err := issueForecast(truth, spec, now, 0, true)
	if err != nil || zero.Signal.Horizon() != 2*h {
		t.Fatalf("deadline-0 issue: %v, covering %v, want %v", err, zero.Signal.Horizon(), 2*h)
	}

	srv.replanMu.RLock()
	defer srv.replanMu.RUnlock()
	for k, want := range []*grid.Signal{cut.At(0), zero.At(0)} {
		if got := srv.replans[ids[k]].View(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s holds a view over [0, %v), want [0, %v)", ids[k], got.Horizon(), want.Horizon())
		}
	}
}

// mapSpan is the /debug/traces span encoding the wire keeps: its
// attributes one map, which encoding/json writes with sorted keys.
type mapSpan struct {
	TraceID    string            `json:"trace_id"`
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_id,omitempty"`
	Name       string            `json:"name"`
	StartUnixS float64           `json:"start_unix_s"`
	DurS       float64           `json:"dur_s"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Error      string            `json:"error,omitempty"`
}

// TestDebugTracesEncoding is the wire golden for /debug/traces: the
// body served for one traced tick is byte for byte what encoding/json
// writes for the same traces holding map-based spans, and every tick
// stage span carries its attributes.
func TestDebugTracesEncoding(t *testing.T) {
	srv, clock, ids := fleetServer(t, 2, nil)
	truth := grid.Diurnal24h()
	if _, err := srv.SetGridSignal(*truth, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SetForecast(ForecastRequest{Model: "revisions", Seed: 2, Sigma: 0.2}); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		tbl, err := srv.Table(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.ManageJob(id, math.Floor(0.5*truth.Horizon()/tbl.Tmin()), 0, "", 0); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(time.Hour)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/controller/tick", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/debug/traces?op=" + spanControllerTick)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces: %d %v", resp.StatusCode, err)
	}

	var mapped struct {
		Traces []struct {
			TraceID    string    `json:"trace_id"`
			Root       string    `json:"root,omitempty"`
			StartUnixS float64   `json:"start_unix_s"`
			DurS       float64   `json:"dur_s"`
			Err        bool      `json:"err,omitempty"`
			Spans      []mapSpan `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(body, &mapped); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(mapped); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("/debug/traces body\n%s\nmap-based encoding\n%s", body, want.Bytes())
	}

	if len(mapped.Traces) != 1 {
		t.Fatalf("%d traces hold a tick, want 1", len(mapped.Traces))
	}
	// The POST's tick is a child of its http span; every stage span is
	// recorded once per job (the forecast once per tick) with its attrs.
	want2 := map[string][]string{
		spanControllerTick:      {"jobs", "errors", "forecasts"},
		spanReplanInputs:        {"job"},
		spanReplanFreeze:        {"job", "frozen"},
		spanReplanFcast:         {"shared_by"},
		spanReplanSolve:         {"job", "steps"},
		obs.SpanPlannerSolve:    {"planner", "objective", "steps"},
		spanReplanBump:          {"job", "version"},
		"http /controller/tick": {"method", "route", "code"},
	}
	count := map[string]int{}
	for _, sp := range mapped.Traces[0].Spans {
		keys, ok := want2[sp.Name]
		if !ok {
			t.Fatalf("unexpected span %q", sp.Name)
		}
		if len(sp.Attrs) != len(keys) {
			t.Fatalf("%s attrs %v, want keys %v", sp.Name, sp.Attrs, keys)
		}
		for _, k := range keys {
			if sp.Attrs[k] == "" {
				t.Fatalf("%s attrs %v lack %q", sp.Name, sp.Attrs, k)
			}
		}
		count[sp.Name]++
	}
	for name := range want2 {
		n := len(ids)
		switch name {
		case spanControllerTick, spanReplanFcast, "http /controller/tick":
			n = 1
		}
		if count[name] != n {
			t.Fatalf("%d %s spans, want %d (all: %v)", count[name], name, n, count)
		}
	}
	if got := srv.obs.traceSpans.With(spanReplanBump).Value(); got != float64(len(ids)) {
		t.Fatalf("perseus_trace_spans_total{span=%q} = %v, want %s", spanReplanBump, got, strconv.Itoa(len(ids)))
	}
}
