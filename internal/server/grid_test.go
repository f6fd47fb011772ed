package server

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"perseus/internal/client"
	"perseus/internal/grid"
)

// fakeClock is a settable wall clock for deterministic accrual tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// testSignal is a small two-interval trace: a dirty hour then a clean
// one.
func testSignal() grid.Signal {
	return grid.Signal{Name: "test", Intervals: []grid.Interval{
		{StartS: 0, EndS: 3600, CarbonGPerKWh: 500, PriceUSDPerKWh: 0.2},
		{StartS: 3600, EndS: 7200, CarbonGPerKWh: 100, PriceUSDPerKWh: 0.05},
	}}
}

func TestGridSignalEndpoint(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewServerClient(ts.URL)

	// No signal installed yet.
	if _, err := cl.FetchGridSignal(); err == nil {
		t.Fatal("fetching a missing signal should 404")
	}

	ack, err := cl.UploadGridSignal(testSignal(), "cost")
	if err != nil {
		t.Fatal(err)
	}
	if ack.Intervals != 2 || ack.HorizonS != 7200 || ack.Objective != "cost" || ack.Name != "test" {
		t.Fatalf("ack %+v", ack)
	}
	got, err := cl.FetchGridSignal()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Intervals) != 2 || got.Intervals[1].CarbonGPerKWh != 100 {
		t.Fatalf("round-tripped signal %+v", got)
	}

	// Invalid signals and objectives are rejected with 400 — including
	// negative and non-finite rates, which must never reach Optimize or
	// the emissions accrual (the parse layer enforces the same contract
	// for CSV/JSON files; see internal/grid).
	for name, body := range map[string]string{
		"bad objective":  `{"signal":{"intervals":[{"start_s":0,"end_s":10,"carbon_g_per_kwh":1}]},"objective":"vibes"}`,
		"empty signal":   `{"signal":{"intervals":[]}}`,
		"gap":            `{"signal":{"intervals":[{"start_s":5,"end_s":10}]}}`,
		"negative rate":  `{"signal":{"intervals":[{"start_s":0,"end_s":10,"carbon_g_per_kwh":-5}]}}`,
		"negative price": `{"signal":{"intervals":[{"start_s":0,"end_s":10,"carbon_g_per_kwh":1,"price_usd_per_kwh":-0.1}]}}`,
		"negative cap":   `{"signal":{"intervals":[{"start_s":0,"end_s":10,"carbon_g_per_kwh":1,"cap_w":-1}]}}`,
		"nan carbon":     `{"signal":{"intervals":[{"start_s":0,"end_s":10,"carbon_g_per_kwh":NaN}]}}`,
	} {
		resp, err := http.Post(ts.URL+"/grid/signal", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestGridPlanEndpoint(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewServerClient(ts.URL)

	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)

	// Planning before a signal is installed fails.
	if _, err := cl.FetchGridPlan(id, 100, 0, ""); err == nil {
		t.Fatal("planning without a signal should fail")
	}
	if _, err := cl.UploadGridSignal(testSignal(), ""); err != nil {
		t.Fatal(err)
	}

	// A feasible plan completes the target and prefers the clean hour.
	tbl, err := srv.Table(id)
	if err != nil {
		t.Fatal(err)
	}
	target := math.Floor(0.5 * 7200 / tbl.TStar())
	plan, err := cl.FetchGridPlan(id, target, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible || math.Abs(plan.Iterations-target) > 1e-6*target {
		t.Fatalf("plan feasible=%v iterations=%v, want target %v", plan.Feasible, plan.Iterations, target)
	}
	if plan.Objective != grid.ObjectiveCarbon {
		t.Fatalf("plan objective %q, want server default carbon", plan.Objective)
	}
	sig := testSignal()
	if ivs := slices.Collect(plan.Intervals(tbl, &sig)); len(ivs) != 2 || ivs[1].EnergyJ <= ivs[0].EnergyJ {
		t.Fatalf("plan does not shift into the clean hour: %+v", ivs)
	}
	// An explicit objective overrides the default.
	costPlan, err := cl.FetchGridPlan(id, target, 0, "cost")
	if err != nil {
		t.Fatal(err)
	}
	if costPlan.Objective != grid.ObjectiveCost {
		t.Fatalf("objective %q, want cost", costPlan.Objective)
	}

	// An unachievable target round-trips as a real JSON plan with
	// Feasible=false and a finite FinishS (-1), not a marshal failure —
	// and the client's query encoding must survive exponent-notation
	// floats like 1e+12.
	huge, err := cl.FetchGridPlan(id, 1e12, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if huge.Feasible || huge.FinishS != -1 || huge.Iterations <= 0 {
		t.Fatalf("unachievable target: %+v", huge)
	}

	// Error paths: unknown job 404s, bad parameters 400.
	resp, err := http.Get(ts.URL + "/grid/plan/nope?iterations=10")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
	for name, q := range map[string]string{
		"missing iterations": "",
		"bad iterations":     "?iterations=banana",
		"deadline too far":   "?iterations=10&deadline=1e9",
		"bad objective":      "?iterations=10&objective=vibes",
	} {
		resp, err := http.Get(ts.URL + "/grid/plan/" + id + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	// An uncharacterized job cannot be planned.
	raw, err := srv.Register(JobRequest{Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.GridPlan(raw, 10, 0, ""); err == nil {
		t.Fatal("planning an uncharacterized job should fail")
	}
}

// TestClientPlanMatchesServer holds the plan a trainer decodes from
// /grid/plan to the server's own, and the server's cold plan — solved on
// the window prepared at install — to grid.Optimize on the installed
// signal, for every objective at 24 and 288 intervals, with targets that
// fit and that do not, and a deadline inside an interval.
func TestClientPlanMatchesServer(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewServerClient(ts.URL)
	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	j, _ := srv.st.job(id)
	table := j.table
	for _, n := range []int{24, 288} {
		sig := grid.Generate(grid.GenOptions{Intervals: n, IntervalS: 86400 / float64(n), Jitter: 0.2, Seed: int64(n)})
		if _, err := srv.SetGridSignal(*sig, ""); err != nil {
			t.Fatal(err)
		}
		for _, obj := range []grid.Objective{grid.ObjectiveCarbon, grid.ObjectiveCost, grid.ObjectiveEnergy} {
			for _, q := range []struct{ share, deadline float64 }{{0.4, 0}, {0.3, 0.63 * sig.Horizon()}, {3, 0}} {
				target := q.share * sig.Horizon() / table.TStar()
				want, err := grid.Optimize(table, sig, grid.Options{Target: target, DeadlineS: q.deadline, Objective: obj})
				if err != nil {
					t.Fatal(err)
				}
				p, err := srv.GridPlan(id, target, q.deadline, string(obj))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(p, want) {
					t.Fatalf("%d intervals, %s, %+v: the server's cold plan differs from grid.Optimize's:\n got %+v\nwant %+v", n, obj, q, p, want)
				}
				got, err := cl.FetchGridPlan(id, target, q.deadline, string(obj))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(&got, p) {
					t.Fatalf("%d intervals, %s, %+v: the client decoded\n %+v\nof the server's\n %+v", n, obj, q, got, p)
				}
			}
		}
	}
}

// TestGridPlanRejectsNonFiniteParams pins the query parse against
// non-finite floats. A NaN iterations or deadline answers 400 without
// touching the plan cache (a NaN key never equals itself, so a failed
// solve's entry could not be deleted and leaked one per request). A
// non-finite wait answers 400, and a huge one waits the 30 s cap
// instead of overflowing into an immediate 304.
func TestGridPlanRejectsNonFiniteParams(t *testing.T) {
	srv := New()
	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	if _, err := srv.SetGridSignal(testSignal(), ""); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	get := func(ctx context.Context, query, etag string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/grid/plan/"+id+query, nil).WithContext(ctx)
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	ok := get(context.Background(), "?iterations=100", "")
	if ok.Code != http.StatusOK || srv.CacheStats().Entries != 1 {
		t.Fatalf("a finite request: status %d, %+v", ok.Code, srv.CacheStats())
	}
	for _, q := range []string{"?iterations=NaN", "?iterations=100&deadline=NaN", "?iterations=-Inf", "?iterations=100&deadline=Inf", "?iterations=100&wait=NaN", "?iterations=100&wait=Inf"} {
		if w := get(context.Background(), q, ok.Header().Get("ETag")); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, w.Code)
		}
	}
	if n := srv.CacheStats().Entries; n != 1 {
		t.Fatalf("%d plan-cache entries after the rejected requests, want 1", n)
	}

	// A still-current validator with wait=1e300 parks until the client
	// goes: it writes nothing, not a 304. start is read before the
	// timeout is armed, so a goroutine delayed between the two cannot
	// shorten the measured wait below the timeout.
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if w := get(ctx, "?iterations=100&wait=1e300", ok.Header().Get("ETag")); w.Code == http.StatusNotModified || time.Since(start) < 100*time.Millisecond {
		t.Fatalf("wait=1e300 answered %d after %v instead of parking", w.Code, time.Since(start))
	}
}

func TestEmissionsAccounting(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	srv := New()
	srv.SetClock(clock.Now)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewServerClient(ts.URL)

	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3, DataParallel: 2,
	}, 4)
	tbl, err := srv.Table(id)
	if err != nil {
		t.Fatal(err)
	}
	tminPower := 2 * tbl.AvgPower(0) // DataParallel scales the draw

	// Before any time passes the account is ready but empty.
	e0, err := cl.FetchEmissions(id)
	if err != nil {
		t.Fatal(err)
	}
	if !e0.Ready || e0.EnergyJ != 0 {
		t.Fatalf("fresh account %+v", e0)
	}
	// Unknown jobs 404.
	if _, err := cl.FetchEmissions("nope"); err == nil {
		t.Fatal("emissions of unknown job should fail")
	}

	// One signal-less hour at the Tmin point: energy only.
	clock.Advance(time.Hour)
	e1, err := cl.FetchEmissions(id)
	if err != nil {
		t.Fatal(err)
	}
	wantE := tminPower * 3600
	if math.Abs(e1.EnergyJ-wantE) > 1e-6*wantE || e1.CarbonG != 0 {
		t.Fatalf("signal-less hour: energy %v carbon %v, want %v and 0", e1.EnergyJ, e1.CarbonG, wantE)
	}
	if e1.SinceS != 3600 {
		t.Fatalf("since %v, want 3600", e1.SinceS)
	}

	// Install the signal, then spend the dirty hour and half the clean
	// one at Tmin.
	if _, err := cl.UploadGridSignal(testSignal(), ""); err != nil {
		t.Fatal(err)
	}
	clock.Advance(90 * time.Minute)
	e2, err := cl.FetchEmissions(id)
	if err != nil {
		t.Fatal(err)
	}
	wantC := tminPower*3600/grid.JoulesPerKWh*500 + tminPower*1800/grid.JoulesPerKWh*100
	if math.Abs(e2.CarbonG-wantC) > 1e-6*wantC {
		t.Fatalf("carbon %v, want %v", e2.CarbonG, wantC)
	}
	wantUSD := tminPower*3600/grid.JoulesPerKWh*0.2 + tminPower*1800/grid.JoulesPerKWh*0.05
	if math.Abs(e2.CostUSD-wantUSD) > 1e-6*wantUSD {
		t.Fatalf("cost %v, want %v", e2.CostUSD, wantUSD)
	}

	// A straggler moves the deployed point; the pre-change span must be
	// settled at the old power and the post-change span at the new one.
	if err := srv.SetStraggler(id, StragglerNotice{ID: "gpu0", Degree: 1e9}); err != nil {
		t.Fatal(err)
	}
	slowPower := 2 * tbl.AvgPower(len(tbl.Points)-1) // clamped at T*
	clock.Advance(30 * time.Minute)
	e3, err := cl.FetchEmissions(id)
	if err != nil {
		t.Fatal(err)
	}
	wantC += slowPower * 1800 / grid.JoulesPerKWh * 100
	if math.Abs(e3.CarbonG-wantC) > 1e-6*wantC {
		t.Fatalf("post-straggler carbon %v, want %v", e3.CarbonG, wantC)
	}
	if e3.EnergyJ <= e2.EnergyJ {
		t.Fatal("energy did not grow")
	}

	// Beyond the horizon the signal repeats: the next hour lands on the
	// dirty interval of cycle 2 (signal time [7200, 10800) → [0, 3600)).
	clock.Advance(time.Hour)
	e4, err := cl.FetchEmissions(id)
	if err != nil {
		t.Fatal(err)
	}
	wantC += slowPower * 3600 / grid.JoulesPerKWh * 500
	if math.Abs(e4.CarbonG-wantC) > 1e-6*wantC {
		t.Fatalf("cyclic carbon %v, want %v", e4.CarbonG, wantC)
	}
}

func TestFleetCapRejectsMalformedWatts(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"negative": `{"cap_w": -10}`,
		"nan":      `{"cap_w": "nan"}`, // json decode failure is a 400 too
		"inf1e999": `{"cap_w": 1e999}`,
	} {
		resp, err := http.Post(ts.URL+"/fleet/cap", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if _, err := srv.SetFleetCap(math.NaN()); err == nil {
		t.Error("SetFleetCap(NaN) should be rejected")
	}
	if _, err := srv.SetFleetCap(math.Inf(1)); err == nil {
		t.Error("SetFleetCap(+Inf) should be rejected")
	}
	if _, err := srv.SetFleetCap(0); err != nil {
		t.Errorf("SetFleetCap(0) should uncap: %v", err)
	}
}
