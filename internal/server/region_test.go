package server

import (
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
	"perseus/internal/grid"
	"perseus/internal/obs"
	"perseus/internal/region"
)

// flatSignal builds a constant-rate region trace.
func flatSignal(name string, dur, carbon, price float64) grid.Signal {
	return grid.Signal{Name: name, Intervals: []grid.Interval{
		{StartS: 0, EndS: dur, CarbonGPerKWh: carbon, PriceUSDPerKWh: price},
	}}
}

func TestRegionEndpoints(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewServerClient(ts.URL)

	// Empty listing before any registration.
	regions, err := cl.FetchRegions()
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 0 {
		t.Fatalf("fresh server lists %d regions", len(regions))
	}

	info, err := cl.RegisterRegion("west", 16, 50000, flatSignal("west", 7200, 400, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "west" || info.GPUs != 16 || info.CapW != 50000 || info.Intervals != 1 || info.HorizonS != 7200 {
		t.Fatalf("registration ack %+v", info)
	}
	if _, err := cl.RegisterRegion("east", 8, 0, flatSignal("east", 7200, 100, 0.05)); err != nil {
		t.Fatal(err)
	}
	regions, err = cl.FetchRegions()
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 2 || regions[0].Name != "west" || regions[1].Name != "east" {
		t.Fatalf("regions %+v", regions)
	}

	// Duplicate and malformed registrations are 400s.
	if _, err := cl.RegisterRegion("west", 4, 0, flatSignal("w", 100, 1, 1)); err == nil {
		t.Fatal("duplicate region should fail")
	}
	for name, body := range map[string]string{
		"unnamed":      `{"signal":{"intervals":[{"start_s":0,"end_s":10,"carbon_g_per_kwh":1}]}}`,
		"empty signal": `{"name":"x","signal":{"intervals":[]}}`,
		"negative cap": `{"name":"x","cap_w":-5,"signal":{"intervals":[{"start_s":0,"end_s":10}]}}`,
		"negative gpu": `{"name":"x","gpus":-1,"signal":{"intervals":[{"start_s":0,"end_s":10}]}}`,
	} {
		resp, err := http.Post(ts.URL+"/regions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	// Placement: unknown region and unknown job fail; a real placement
	// round-trips with history.
	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	if _, err := cl.PlaceJob(id, "nowhere"); err == nil {
		t.Fatal("placement into unknown region should fail")
	}
	if _, err := cl.PlaceJob("nope", "west"); err == nil {
		t.Fatal("placement of unknown job should fail")
	}
	p, err := cl.PlaceJob(id, "west")
	if err != nil {
		t.Fatal(err)
	}
	if p.Region != "west" || p.Migrations != 0 || len(p.History) != 1 {
		t.Fatalf("placement %+v", p)
	}
	// Re-placing in place is a no-op; moving is a migration.
	if p, err = cl.PlaceJob(id, "west"); err != nil || p.Migrations != 0 || len(p.History) != 1 {
		t.Fatalf("no-op placement %+v (%v)", p, err)
	}
	if p, err = cl.PlaceJob(id, "east"); err != nil || p.Migrations != 1 || len(p.History) != 2 {
		t.Fatalf("migration placement %+v (%v)", p, err)
	}
	got, err := cl.FetchPlacement(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Region != "east" || got.Migrations != 1 {
		t.Fatalf("fetched placement %+v", got)
	}
}

func TestRegionsPlanEndpoint(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewServerClient(ts.URL)

	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)

	// Planning without regions fails.
	if _, err := cl.FetchRegionsPlan(10, 0, "", 0, 0); err == nil {
		t.Fatal("planning without regions should fail")
	}
	if _, err := cl.RegisterRegion("dirty", 0, 0, flatSignal("dirty", 7200, 500, 0.2)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RegisterRegion("clean", 0, 0, flatSignal("clean", 7200, 100, 0.05)); err != nil {
		t.Fatal(err)
	}

	tbl, err := srv.Table(id)
	if err != nil {
		t.Fatal(err)
	}
	target := math.Floor(0.5 * 7200 / tbl.TStar())
	plan, err := cl.FetchRegionsPlan(target, 0, "", 300, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible || len(plan.Jobs) != 1 || plan.Jobs[0].JobID != id {
		t.Fatalf("plan %+v", plan)
	}
	// All work must land in the clean region (index 1).
	for _, a := range plan.Jobs[0].Assignments {
		if a.Region == 0 {
			t.Fatalf("planner placed work in the dirty region: %+v", a)
		}
	}
	if got := plan.Jobs[0].Temporal.Iterations; math.Abs(got-target) > 1e-6*target {
		t.Fatalf("plan completes %v iterations, want %v", got, target)
	}

	// The solve's work counts ride on its planner.solve span, and the
	// inner-solve count feeds its histogram.
	traces, err := cl.FetchTraces(0, 0, obs.SpanPlannerSolve)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Fatalf("%d traces with a planner.solve, want the one successful plan", len(traces))
	}
	attrs := findSpans(traces[0], obs.SpanPlannerSolve)[0].Attrs
	if attrs["planner"] != "region" || attrs["orders"] != "1" || attrs["descents"] != "1" ||
		attrs["materialized"] != "1" || attrs["memo_resets"] != "0" || attrs["swaps_tried"] != "0" {
		t.Fatalf("region planner.solve attrs %v", attrs)
	}
	if n, err := strconv.Atoi(attrs["inner_solves"]); err != nil || n < 1 {
		t.Fatalf("region planner.solve inner_solves %q", attrs["inner_solves"])
	}
	if hits, err := strconv.Atoi(attrs["memo_hits"]); err != nil || hits < 1 {
		t.Fatalf("the descent should read back what its memo holds: memo_hits %q", attrs["memo_hits"])
	}
	metrics, err := cl.FetchMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "perseus_region_plan_inner_solves_count 1") {
		t.Fatal("one region plan should have fed perseus_region_plan_inner_solves once")
	}

	// Bad parameters 400; an uncharacterized-only server errors.
	for name, q := range map[string]string{
		"bad iterations": "?iterations=banana",
		"bad objective":  "?iterations=10&objective=vibes",
		"bad downtime":   "?iterations=10&downtime=x",
	} {
		resp, err := http.Get(ts.URL + "/regions/plan" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	empty := New()
	if _, err := empty.RegionsPlan(10, 0, "", region.MigrationCost{}); err == nil {
		t.Fatal("planning with no regions should fail")
	}
}

// TestRegionConcurrency hammers region registration, listing, placement,
// and plan reads from many goroutines; run under -race it verifies the
// server's locking around the region registry and placement state.
func TestRegionConcurrency(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewServerClient(ts.URL)

	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	if _, err := cl.RegisterRegion("seed", 0, 0, flatSignal("seed", 7200, 300, 0.1)); err != nil {
		t.Fatal(err)
	}

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, 4*n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("region-%d", i)
			if _, err := cl.RegisterRegion(name, i, float64(1000*i), flatSignal(name, 3600, 200, 0.1)); err != nil {
				errs <- err
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.FetchRegions(); err != nil {
				errs <- err
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.FetchRegionsPlan(5, 0, "", 0, 0); err != nil {
				errs <- err
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Bounce the job between the seed region and a racing one;
			// both placements and reads must stay consistent.
			if _, err := cl.PlaceJob(id, "seed"); err != nil {
				errs <- err
			}
			if _, err := cl.FetchPlacement(id); err != nil {
				errs <- err
			}
			if _, err := cl.FetchEmissions(id); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	regions, err := cl.FetchRegions()
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != n+1 {
		t.Fatalf("got %d regions, want %d", len(regions), n+1)
	}
}

// TestEmissionsAcrossMigration is the fake-clock accounting check: a
// job accrues at its placed region's rates, and a migration boundary
// splits the account exactly — the pre-move span at the old region's
// rates, the post-move span at the new one's.
func TestEmissionsAcrossMigration(t *testing.T) {
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
	power := tbl.AvgPower(0) // deployed at Tmin, one pipeline

	// Regions registered now: their signals anchor at this instant.
	if _, err := cl.RegisterRegion("dirty", 0, 0, flatSignal("dirty", 7200, 500, 0.2)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RegisterRegion("clean", 0, 0, flatSignal("clean", 7200, 100, 0.05)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PlaceJob(id, "dirty"); err != nil {
		t.Fatal(err)
	}

	// One hour in the dirty region.
	clock.Advance(time.Hour)
	e1, err := cl.FetchEmissions(id)
	if err != nil {
		t.Fatal(err)
	}
	wantC := power * 3600 / grid.JoulesPerKWh * 500
	if math.Abs(e1.CarbonG-wantC) > 1e-6*wantC {
		t.Fatalf("dirty-hour carbon %v, want %v", e1.CarbonG, wantC)
	}

	// Migrate, then spend an hour in the clean region. The boundary
	// must settle the first span at 500 g/kWh and charge the second at
	// 100 g/kWh even though no emissions read happened in between.
	if _, err := cl.PlaceJob(id, "clean"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Hour)
	e2, err := cl.FetchEmissions(id)
	if err != nil {
		t.Fatal(err)
	}
	wantC += power * 3600 / grid.JoulesPerKWh * 100
	if math.Abs(e2.CarbonG-wantC) > 1e-6*wantC {
		t.Fatalf("post-migration carbon %v, want %v", e2.CarbonG, wantC)
	}
	wantUSD := power*3600/grid.JoulesPerKWh*0.2 + power*3600/grid.JoulesPerKWh*0.05
	if math.Abs(e2.CostUSD-wantUSD) > 1e-6*wantUSD {
		t.Fatalf("post-migration cost %v, want %v", e2.CostUSD, wantUSD)
	}
	// Energy is rate-independent: two hours at the deployed power.
	wantE := power * 7200
	if math.Abs(e2.EnergyJ-wantE) > 1e-6*wantE {
		t.Fatalf("energy %v, want %v", e2.EnergyJ, wantE)
	}
}
