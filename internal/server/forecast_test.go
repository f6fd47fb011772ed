package server

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"perseus/internal/client"
	"perseus/internal/forecast"
	"perseus/internal/grid"
)

// forecastTestSignal is a 4-hour trace with strong structure: dirty,
// clean, dirty, clean — so a forecast that misses the clean hours is
// visibly wrong.
func forecastTestSignal() grid.Signal {
	return grid.Signal{Name: "fc-test", Intervals: []grid.Interval{
		{StartS: 0, EndS: 3600, CarbonGPerKWh: 500, PriceUSDPerKWh: 0.2},
		{StartS: 3600, EndS: 7200, CarbonGPerKWh: 200, PriceUSDPerKWh: 0.05},
		{StartS: 7200, EndS: 10800, CarbonGPerKWh: 400, PriceUSDPerKWh: 0.15},
		{StartS: 10800, EndS: 14400, CarbonGPerKWh: 100, PriceUSDPerKWh: 0.03},
	}}
}

func TestForecastEndpoint(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	srv := New()
	srv.SetClock(clock.Now)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewServerClient(ts.URL)

	// No forecast yet; installing one needs a signal first.
	if _, err := cl.FetchForecast(); err == nil {
		t.Fatal("fetching a missing forecast should 404")
	}
	if _, err := cl.InstallForecast("persistence", 0, 0, 0); err == nil {
		t.Fatal("installing a forecast without a signal should fail")
	}
	if _, err := cl.UploadGridSignal(forecastTestSignal(), ""); err != nil {
		t.Fatal(err)
	}
	// Unknown models and bad parameters are rejected.
	if _, err := cl.InstallForecast("vibes", 0, 0, 0); err == nil {
		t.Fatal("unknown model accepted")
	}
	for name, body := range map[string]string{
		"bad level":    `{"model":"persistence","level":0.2}`,
		"bad quantile": `{"model":"persistence","quantile":1.5}`,
	} {
		resp, err := http.Post(ts.URL+"/grid/forecast", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	ack, err := cl.InstallForecast("persistence", 0.9, 0.75, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Model != "persistence" || ack.Level != 0.9 || ack.Quantile != 0.75 {
		t.Fatalf("ack %+v", ack)
	}
	// Issued at t=0: one revealed interval, the rest forecast at the
	// last observed value (500), covering one full cycle.
	if ack.IssuedS != 0 || ack.HorizonS != 14400 || ack.Intervals != 4 {
		t.Fatalf("ack %+v", ack)
	}
	fc := ack.Forecast
	if fc.Signal.Intervals[0].CarbonGPerKWh != 500 {
		t.Fatalf("revealed interval %+v", fc.Signal.Intervals[0])
	}
	for i := 1; i < 4; i++ {
		if fc.Signal.Intervals[i].CarbonGPerKWh != 500 {
			t.Fatalf("persistence forecast interval %d = %v, want 500", i, fc.Signal.Intervals[i].CarbonGPerKWh)
		}
	}
	// GET round-trips the stored forecast.
	got, err := cl.FetchForecast()
	if err != nil {
		t.Fatal(err)
	}
	if got.Model != "persistence" || len(got.Forecast.Carbon) != 4 {
		t.Fatalf("fetched %+v", got)
	}

	// A forecast issued late in the trace still covers at least one
	// full cycle ahead, rounded up to whole cycles.
	clock.Advance(13000 * time.Second)
	late, err := cl.InstallForecast("persistence", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if late.HorizonS != 28800 {
		t.Fatalf("late-issue horizon %v, want 28800 (two cycles)", late.HorizonS)
	}
	if late.HorizonS-late.IssuedS < 14400 {
		t.Fatalf("late issue sees only %v s ahead", late.HorizonS-late.IssuedS)
	}
}

// TestRevisionsIntervalCap: a revisions forecast covers at most
// forecast.MaxRevisionIntervals intervals past the one containing the
// issue time, so both requests that set its horizon — POST
// /grid/forecast's horizon_s and POST /controller/jobs' deadline_s —
// are refused with 400 one interval past the cap, and accepted at it,
// at the signal's start and cycles later.
func TestRevisionsIntervalCap(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	srv := New()
	srv.SetClock(clock.Now)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewServerClient(ts.URL)
	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	sig := forecastTestSignal()
	if _, err := cl.UploadGridSignal(sig, ""); err != nil {
		t.Fatal(err)
	}
	step := sig.Intervals[0].EndS
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Half an interval in, then 10.5 intervals in (the third cycle).
	for _, c := range []struct{ cur, advanceS float64 }{{0, step / 2}, {10, 10 * step}} {
		clock.Advance(time.Duration(c.advanceS) * time.Second)
		cur := c.cur
		atCap := (cur + 1 + forecast.MaxRevisionIntervals) * step
		pastCap := atCap + step
		for _, c := range []struct {
			horizonS float64
			want     int
		}{{pastCap, http.StatusBadRequest}, {atCap, http.StatusOK}, {0, http.StatusOK}} {
			if got := post("/grid/forecast", fmt.Sprintf(`{"model":"revisions","seed":3,"horizon_s":%v}`, c.horizonS)); got != c.want {
				t.Errorf("interval %v: POST /grid/forecast horizon_s %v: status %d, want %d", cur, c.horizonS, got, c.want)
			}
		}
		for _, c := range []struct {
			deadlineS float64
			want      int
		}{{pastCap, http.StatusBadRequest}, {atCap, http.StatusOK}} {
			if got := post("/controller/jobs", fmt.Sprintf(`{"job_id":%q,"iterations":1000,"deadline_s":%v}`, id, c.deadlineS)); got != c.want {
				t.Errorf("interval %v: POST /controller/jobs deadline_s %v: status %d, want %d", cur, c.deadlineS, got, c.want)
			}
		}
	}
}

// TestReplanRollsForward is the rolling-horizon server check under a
// fake clock: a forecast revision mid-schedule triggers a re-plan, the
// frozen prefix is preserved, and predicted-vs-realized emissions
// reconcile at interval boundaries.
func TestReplanRollsForward(t *testing.T) {
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

	// Re-planning needs a forecast model.
	if _, err := cl.ManageJob(id, 100, 14400, "", 0); err == nil {
		t.Fatal("replanning without a forecast should fail")
	}
	if _, err := cl.InstallForecast("persistence", 0, 0, 0); err != nil {
		t.Fatal(err)
	}

	// The target needs ~80% of the horizon even sprinting flat out, so
	// work remains in flight at every boundary the test crosses.
	target := math.Floor(0.8 * 14400 / tbl.Tmin())
	const deadline = 14400.0
	first, err := cl.ManageJob(id, target, deadline, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.Plans != 1 || len(first.Frozen) != 0 || first.DoneIterations != 0 {
		t.Fatalf("first replan %+v", first)
	}
	if !first.Feasible || first.Remaining == nil || first.RemainingOffsetS != 0 {
		t.Fatalf("first replan remaining %+v", first)
	}
	// The persistence forecast is flat at 500 g: the first plan has no
	// reason to prefer any hour over another.
	if math.Abs(first.Remaining.Iterations-target) > 1e-6*target {
		t.Fatalf("first plan covers %v, want %v", first.Remaining.Iterations, target)
	}

	// Two hours pass; the revealed history now contains the clean hour
	// 1. Installing a fresh model is the forecast revision; the next
	// replan freezes hours 0-1 as executed and re-plans hours 2-3.
	clock.Advance(2 * time.Hour)
	if _, err := cl.InstallForecast("seasonal", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	second, err := cl.ManageJob(id, target, deadline, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if second.Plans != 2 {
		t.Fatalf("revision did not trigger a re-plan: %+v", second.Plans)
	}
	if second.RemainingOffsetS != 7200 {
		t.Fatalf("remaining offset %v, want 7200", second.RemainingOffsetS)
	}
	if len(second.Frozen) != 2 {
		t.Fatalf("frozen %d intervals, want the 2 executed hours", len(second.Frozen))
	}
	// The frozen prefix is exactly what the first plan scheduled there.
	// The plan expands over the installed trace's hours: the persistence
	// forecast it was planned on keeps their boundaries, only its rates
	// differ.
	fsig := forecastTestSignal()
	firstIvs := slices.Collect(first.Remaining.Intervals(tbl, forecast.Window(&fsig, 0, deadline)))
	for i, fi := range second.Frozen {
		ip := firstIvs[i]
		if math.Abs(fi.Iterations-ip.Iterations) > 1e-6*(1+ip.Iterations) ||
			fi.StartS != ip.StartS || fi.EndS != ip.EndS {
			t.Fatalf("frozen[%d] %+v does not match the first plan's interval %+v", i, fi, ip)
		}
	}
	// The wire carries the stepper's replanned mark: hour 0 is the first
	// span executed under plan #1, hour 1 continued the same plan.
	if !second.Frozen[0].Replanned || second.Frozen[1].Replanned {
		t.Fatalf("replanned marks %v/%v, want true/false", second.Frozen[0].Replanned, second.Frozen[1].Replanned)
	}
	if math.Abs(second.DoneIterations-(second.Frozen[0].Iterations+second.Frozen[1].Iterations)) > 1e-6 {
		t.Fatalf("done iterations %v do not add up", second.DoneIterations)
	}
	if math.Abs(second.DoneIterations+second.RemainingIterations-target) > 1e-6*(1+target) {
		t.Fatalf("done %v + remaining %v != target %v", second.DoneIterations, second.RemainingIterations, target)
	}

	// Predicted-vs-realized reconciliation at interval boundaries:
	// hour 0 was revealed when planned (forecast == truth), hour 1 was
	// planned at the persistence forecast's 500 g but realized at the
	// truth's 200 g.
	f0, f1 := second.Frozen[0], second.Frozen[1]
	if math.Abs(f0.PredCarbonG-f0.CarbonG) > 1e-9*(1+f0.CarbonG) {
		t.Fatalf("hour 0 was revealed at planning time: pred %v != realized %v", f0.PredCarbonG, f0.CarbonG)
	}
	if f1.EnergyJ > 0 {
		wantPred := f1.EnergyJ / grid.JoulesPerKWh * 500
		wantReal := f1.EnergyJ / grid.JoulesPerKWh * 200
		if math.Abs(f1.PredCarbonG-wantPred) > 1e-6*(1+wantPred) ||
			math.Abs(f1.CarbonG-wantReal) > 1e-6*(1+wantReal) {
			t.Fatalf("hour 1 reconciliation: pred %v (want %v), realized %v (want %v)",
				f1.PredCarbonG, wantPred, f1.CarbonG, wantReal)
		}
	}

	// Another hour passes: the frozen prefix from before is preserved
	// verbatim and hour 2 joins it.
	clock.Advance(time.Hour)
	third, err := cl.ManageJob(id, target, deadline, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(third.Frozen) != 3 {
		t.Fatalf("frozen %d intervals, want 3", len(third.Frozen))
	}
	if !third.Frozen[2].Replanned {
		t.Fatal("hour 2 is the first span executed under plan #2 but is not marked replanned")
	}
	for i := range second.Frozen {
		a, b := third.Frozen[i], second.Frozen[i]
		if a.StartS != b.StartS || a.EndS != b.EndS || a.Iterations != b.Iterations ||
			a.EnergyJ != b.EnergyJ || a.CarbonG != b.CarbonG || a.PredCarbonG != b.PredCarbonG {
			t.Fatalf("frozen prefix mutated: %+v vs %+v", a, b)
		}
	}
	// With a full revealed cycle the seasonal model is exact, so the
	// final re-plan must put the bulk of the remaining work into the
	// clean hour 3 (100 g) rather than what remains of dirty hour 2.
	if third.Remaining != nil {
		rest := slices.Collect(third.Remaining.Intervals(tbl, forecast.Window(&fsig, third.RemainingOffsetS, deadline)))
		if last := rest[len(rest)-1]; len(rest) >= 2 && third.RemainingIterations > 1 && last.Iterations == 0 {
			t.Fatalf("re-plan ignores the clean final hour: %+v", rest)
		}
	}

	// Changing a parameter restarts the schedule from now.
	reset, err := cl.ManageJob(id, target*0.5, deadline, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if reset.Plans != 1 || len(reset.Frozen) != 0 {
		t.Fatalf("parameter change did not reset the schedule: %+v", reset)
	}

	// Forecast-aware emissions: the job has been drawing power at its
	// deployed schedule all along; predicted accrual (against the
	// forecasts in force) diverges from realized where the forecast
	// was wrong.
	em, err := cl.FetchEmissions(id)
	if err != nil {
		t.Fatal(err)
	}
	if !em.Ready || em.PredCarbonG <= 0 {
		t.Fatalf("emissions missing predicted accrual: %+v", em)
	}
	if math.Abs(em.DriftCarbonG-(em.CarbonG-em.PredCarbonG)) > 1e-9*(1+em.CarbonG) {
		t.Fatalf("drift %v != realized %v - predicted %v", em.DriftCarbonG, em.CarbonG, em.PredCarbonG)
	}
	if em.DriftCarbonG == 0 {
		t.Fatal("persistence forecast over a structured trace should drift")
	}
}

// TestReplanConcurrency hammers the controller-jobs, forecast, and
// emissions endpoints concurrently (run under -race).
func TestReplanConcurrency(t *testing.T) {
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
	if _, err := cl.InstallForecast("seasonal", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				switch w % 3 {
				case 0:
					if _, err := cl.ManageJob(id, 1000, 14400, "", 0); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := cl.InstallForecast("persistence", 0, 0, 0); err != nil {
						t.Error(err)
						return
					}
				default:
					if _, err := cl.FetchEmissions(id); err != nil {
						t.Error(err)
						return
					}
				}
				clock.Advance(time.Minute)
			}
		}(w)
	}
	wg.Wait()
}

// TestDriftWithZeroPrediction pins the drift gate: a forecast that
// predicted zero carbon must still show positive drift when the grid
// ran dirty.
func TestDriftWithZeroPrediction(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	srv := New()
	srv.SetClock(clock.Now)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewServerClient(ts.URL)

	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	// Hour 0 is perfectly clean; persistence therefore predicts zero
	// carbon forever. Hour 1 runs dirty.
	sig := grid.Signal{Name: "clean-then-dirty", Intervals: []grid.Interval{
		{StartS: 0, EndS: 3600, CarbonGPerKWh: 0, PriceUSDPerKWh: 0.1},
		{StartS: 3600, EndS: 7200, CarbonGPerKWh: 500, PriceUSDPerKWh: 0.1},
	}}
	if _, err := cl.UploadGridSignal(sig, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.InstallForecast("persistence", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Hour)
	em, err := cl.FetchEmissions(id)
	if err != nil {
		t.Fatal(err)
	}
	if em.PredCarbonG != 0 {
		t.Fatalf("persistence over a clean hour should predict 0, got %v", em.PredCarbonG)
	}
	if em.CarbonG <= 0 || em.DriftCarbonG <= 0 {
		t.Fatalf("dirty reality over a clean forecast must drift positive: realized %v, drift %v",
			em.CarbonG, em.DriftCarbonG)
	}
}

// TestReplanDefaultDeadlineStableAcrossCycles pins the deadline=0
// semantics: the effective deadline is fixed when the schedule starts,
// so the forecast horizon growing on later calls (it always covers a
// full cycle beyond *now*) must not read as a parameter change that
// resets the frozen prefix.
func TestReplanDefaultDeadlineStableAcrossCycles(t *testing.T) {
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
	if _, err := cl.InstallForecast("persistence", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	target := math.Floor(0.8 * 14400 / tbl.Tmin())
	first, err := cl.ManageJob(id, target, 0, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.DeadlineS != 14400 {
		t.Fatalf("default deadline %v, want the issue-time horizon 14400", first.DeadlineS)
	}
	// Two hours later the freshly issued forecast horizon is 28800; the
	// schedule must roll forward, not restart.
	clock.Advance(2 * time.Hour)
	second, err := cl.ManageJob(id, target, 0, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if second.Plans != 2 || len(second.Frozen) == 0 || second.DoneIterations <= 0 {
		t.Fatalf("default-deadline schedule restarted instead of rolling forward: %+v", second)
	}
	if second.DeadlineS != 14400 {
		t.Fatalf("pinned deadline drifted to %v", second.DeadlineS)
	}
}

// TestSignalReinstallResetsForecastState pins the reset rule: a new
// grid signal drops the forecast and every rolling-horizon schedule —
// stale forecasts of the old trace must not price the new one.
func TestSignalReinstallResetsForecastState(t *testing.T) {
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
	if _, err := cl.InstallForecast("persistence", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ManageJob(id, 1000, 14400, "", 0); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Hour)

	// New signal: forecast gone, schedules gone.
	if _, err := cl.UploadGridSignal(forecastTestSignal(), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.FetchForecast(); err == nil {
		t.Fatal("stale forecast survived a signal reinstall")
	}
	if _, err := cl.ManageJob(id, 1000, 14400, "", 0); err == nil {
		t.Fatal("replanning without a fresh forecast should fail after a signal reinstall")
	}
	if _, err := cl.InstallForecast("persistence", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	fresh, err := cl.ManageJob(id, 1000, 14400, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Plans != 1 || len(fresh.Frozen) != 0 || fresh.DoneIterations != 0 {
		t.Fatalf("stale replan state survived a signal reinstall: %+v", fresh)
	}
}

// TestReplanWarmStartOnTailRevision pins the warm-start path under a
// fake clock: a forecast revision that leaves the quantile view over
// the remaining window bit-identical (here, re-issuing the same model
// with a longer horizon — a tail-only revision past the deadline)
// reuses the running plan instead of re-solving. The executed prefix
// is untouched, the plan counter does not bump, and
// perseus_planner_warm_starts_total records the reuse. Advancing the
// clock afterwards still takes the cold path.
func TestReplanWarmStartOnTailRevision(t *testing.T) {
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
	if _, err := cl.InstallForecast("persistence", 0, 0, 0); err != nil {
		t.Fatal(err)
	}

	target := math.Floor(0.8 * 14400 / tbl.Tmin())
	const deadline = 14400.0
	first, err := cl.ManageJob(id, target, deadline, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.Plans != 1 || len(first.Frozen) != 0 {
		t.Fatalf("first replan %+v", first)
	}

	// Tail-only revision: the same model re-issued with a longer
	// horizon bumps the forecast revision counter, but the view inside
	// [now, deadline] is identical, so the next roll-forward must keep
	// the running plan.
	if _, err := cl.InstallForecast("persistence", 0, 0, 28800); err != nil {
		t.Fatal(err)
	}
	warm, err := cl.ManageJob(id, target, deadline, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Plans != 1 {
		t.Fatalf("tail-only revision re-planned: plans %d, want 1", warm.Plans)
	}
	if len(warm.Frozen) != 0 || warm.DoneIterations != 0 || warm.RemainingOffsetS != 0 {
		t.Fatalf("warm start touched the executed prefix: %+v", warm)
	}
	if warm.Remaining == nil || math.Abs(warm.Remaining.Iterations-first.Remaining.Iterations) > 1e-12 {
		t.Fatalf("warm start altered the plan: %+v vs %+v", warm.Remaining, first.Remaining)
	}
	text, err := cl.FetchMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "perseus_planner_warm_starts_total 1") {
		t.Fatalf("metrics missing warm-start count of 1:\n%s", text)
	}

	// Time advancing past the plan offset is never warm: the executed
	// hour must freeze and the remainder re-solve.
	clock.Advance(time.Hour)
	cold, err := cl.ManageJob(id, target, deadline, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Plans != 2 || len(cold.Frozen) != 1 {
		t.Fatalf("time advance did not re-plan: %+v", cold)
	}
	text, err = cl.FetchMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "perseus_planner_warm_starts_total 1") {
		t.Fatal("cold roll-forward incremented the warm-start counter")
	}
}
