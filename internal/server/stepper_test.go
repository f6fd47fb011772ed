package server

import (
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"perseus/internal/client"
	"perseus/internal/forecast"
	"perseus/internal/frontier"
	"perseus/internal/grid"
)

// TestControllerMatchesOfflineMPC is the differential check that keeps
// the server's roll-forward and forecast.Replan on one implementation:
// managed jobs ticked hourly across the bundled 24 h trace under a
// seeded revisions feed must freeze exactly the spans the offline MPC
// controller executes — every field of every span, and the totals,
// bit for bit. The jobs differ in table, target and planning quantile
// and every tick hands all of them the one forecast it issued, where
// the offline controller issues each job its own.
func TestControllerMatchesOfflineMPC(t *testing.T) {
	srv, clock, ids := fleetServer(t, 3, nil)
	truth := grid.Diurnal24h()
	horizon := truth.Horizon()
	const sigma = 0.12
	fracs, quantiles := []float64{0.55, 0.4, 0.7}, []float64{0, 0.9, 0}

	for seed := int64(1); seed <= 6; seed++ {
		// Re-installing the signal drops the previous seed's schedules
		// and re-anchors signal time 0 at the clock's now.
		if _, err := srv.SetGridSignal(*truth, ""); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.SetForecast(ForecastRequest{Model: "revisions", Seed: seed, Sigma: sigma}); err != nil {
			t.Fatal(err)
		}
		opts := make([]forecast.Options, len(ids))
		tbls := make([]*frontier.LookupTable, len(ids))
		for k, id := range ids {
			var err error
			if tbls[k], err = srv.Table(id); err != nil {
				t.Fatal(err)
			}
			opts[k] = forecast.Options{Target: math.Floor(fracs[k] * horizon / tbls[k].TStar()), DeadlineS: horizon, Quantile: quantiles[k]}
			if _, err := srv.ManageJob(id, opts[k].Target, horizon, "", quantiles[k]); err != nil {
				t.Fatal(err)
			}
		}
		issued := forecastsIssued(srv)
		for tick := 0; tick < 24; tick++ {
			clock.Advance(time.Hour)
			if st := srv.TickController(); st.LastTickError != "" {
				t.Fatalf("seed %d tick %d: %s", seed, tick, st.LastTickError)
			}
		}
		// At most one forecast per tick — issued while any schedule is
		// still open — where one per job would be up to three.
		ticked, mostPlans := forecastsIssued(srv)-issued, 0
		for k, id := range ids {
			got, err := srv.Rollout(id)
			if err != nil {
				t.Fatal(err)
			}
			want, err := forecast.Replan(tbls[k], &forecast.Revisions{Truth: truth, Seed: seed, Sigma: sigma}, truth, opts[k])
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Frozen) != len(want.Intervals) || len(want.Intervals) == 0 {
				t.Fatalf("seed %d %s: server froze %d spans, offline executed %d", seed, id, len(got.Frozen), len(want.Intervals))
			}
			for i := range want.Intervals {
				if !reflect.DeepEqual(got.Frozen[i], want.Intervals[i]) {
					t.Fatalf("seed %d %s span %d:\nserver  %+v\noffline %+v", seed, id, i, got.Frozen[i], want.Intervals[i])
				}
			}
			mostPlans = max(mostPlans, got.Plans)
			if got.EnergyJ != want.EnergyJ || got.CarbonG != want.CarbonG ||
				got.PredCarbonG != want.PredCarbonG || got.Plans != want.Plans {
				t.Fatalf("seed %d %s totals: server %v J %v g pred %v g in %d plans, offline %v J %v g pred %v g in %d plans",
					seed, id, got.EnergyJ, got.CarbonG, got.PredCarbonG, got.Plans,
					want.EnergyJ, want.CarbonG, want.PredCarbonG, want.Plans)
			}
		}
		if ticked < mostPlans-1 || ticked > 23 {
			t.Fatalf("seed %d: 24 ticks over %d jobs issued %d forecasts; the busiest job re-planned %d times", seed, len(ids), ticked, mostPlans-1)
		}
	}
}

// TestTickKeepsPlanOnUnchangedView pins the single warm rule on the
// controller path: when the forecast re-issued after the clock advanced
// shows the same quantile view over the remaining window, the tick
// freezes the executed span and keeps the plan — no solve, no version
// bump, no poller woken — and the kept plan is reported at its own
// origin. The seasonal model over the exactly periodic test signal is
// such a feed once a full period is revealed.
func TestTickKeepsPlanOnUnchangedView(t *testing.T) {
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
	sig := forecastTestSignal()
	if _, err := cl.UploadGridSignal(sig, ""); err != nil {
		t.Fatal(err)
	}
	// One full cycle in, the schedule covers the second cycle.
	const startS, nextS, deadline = 14400.0, 18000.0, 28800.0
	clock.Advance(4 * time.Hour)
	if _, err := cl.InstallForecast("seasonal", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	before, err := issueForecast(&sig, srv.st.fspec, startS, deadline, true)
	if err != nil {
		t.Fatal(err)
	}
	after, err := issueForecast(&sig, srv.st.fspec, nextS, deadline, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(forecast.Window(before.At(0), nextS, deadline), forecast.Window(after.At(0), nextS, deadline)) {
		t.Fatal("precondition: the seasonal view over the remaining window changed between issues")
	}

	target := math.Floor(0.6 * (deadline - startS) / tbl.Tmin())
	first, err := cl.ManageJob(id, target, deadline, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.Plans != 1 || first.RemainingOffsetS != startS || first.Remaining == nil {
		t.Fatalf("initial schedule %+v", first)
	}
	sched, err := cl.FetchSchedule(id)
	if err != nil {
		t.Fatal(err)
	}
	parked := srv.hub.watch(topicSchedule(id))

	clock.Advance(time.Hour)
	if st, err := cl.TickController(); err != nil || st.LastTickError != "" {
		t.Fatalf("tick: %v %q", err, st.LastTickError)
	}
	roll, err := cl.FetchRollout(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(roll.Frozen) != 1 || roll.Frozen[0].StartS != startS || roll.Frozen[0].EndS != nextS {
		t.Fatalf("tick froze %+v, want the one executed hour", roll.Frozen)
	}
	if roll.Plans != 1 || roll.Version != sched.Version {
		t.Fatalf("kept plan re-solved or re-deployed: plans %d, version %d -> %d", roll.Plans, sched.Version, roll.Version)
	}
	if roll.RemainingOffsetS != startS || !reflect.DeepEqual(roll.Remaining, first.Remaining) {
		t.Fatalf("rollout reports %+v at %v, want the kept plan at its own origin %v",
			roll.Remaining, roll.RemainingOffsetS, startS)
	}
	select {
	case <-parked:
		t.Fatal("a tick that kept the plan woke the job's pollers")
	default:
	}
	text, err := cl.FetchMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "perseus_planner_warm_starts_total 1") {
		t.Fatal("metrics missing the warm start")
	}
}

// TestControllerCarbonAtZeroForecastError separates what the MPC
// roll-forward realizes from what forecast error costs it, job by job,
// on characterized tables whose hulls skip most of their points. With
// a perfect forecast, re-planning the remaining window after every
// interval realizes exactly the oracle's carbon: neither committing
// interval by interval, nor re-basing the window, nor the time-share
// inside an interval costs anything. So the carbon the controller
// realizes above the oracle under a revisions feed is the price of
// committing to decisions planned on forecast error; the test logs it
// at σ 0.2, the benchmark's level. The perfect forecast is
// forecast.Perfect: a Revisions forecast reads σ 0 as its 0.10
// default. (TestControllerMatchesOfflineMPC pins the server's ticks to
// forecast.Replan, which this test runs.)
func TestControllerCarbonAtZeroForecastError(t *testing.T) {
	srv, _, ids := fleetServer(t, 3, nil)
	truth := grid.Diurnal24h()
	horizon := truth.Horizon()
	for k, id := range ids {
		lt, err := srv.Table(id)
		if err != nil {
			t.Fatal(err)
		}
		opts := forecast.Options{Target: math.Floor([]float64{0.55, 0.4, 0.7}[k] * horizon / lt.TStar()), DeadlineS: horizon}
		oracle, err := forecast.Oracle(lt, truth, opts)
		if err != nil {
			t.Fatal(err)
		}
		perfect, err := forecast.Replan(lt, &forecast.Perfect{Truth: truth, HorizonS: horizon}, truth, opts)
		if err != nil {
			t.Fatal(err)
		}
		noisy, err := forecast.Replan(lt, &forecast.Revisions{Truth: truth, Seed: 1, Sigma: 0.2}, truth, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d points, %d on the hull; carbon: oracle %.4f g, MPC at σ 0 %.4f g, MPC at σ 0.2 %.4f g (x%.4f)",
			id, len(lt.Points), len(lt.Hull()), oracle.CarbonG, perfect.CarbonG, noisy.CarbonG, noisy.CarbonG/oracle.CarbonG)
		if len(lt.Hull()) == len(lt.Points) {
			t.Fatalf("%s: the table is convex, so the hull solve goes untested", id)
		}
		if !perfect.Feasible || math.Abs(perfect.CarbonG-oracle.CarbonG) > 1e-9*oracle.CarbonG {
			t.Fatalf("%s: MPC on a perfect forecast realized %v g, the oracle %v g", id, perfect.CarbonG, oracle.CarbonG)
		}
		if !noisy.Feasible || noisy.CarbonG < oracle.CarbonG*(1-1e-9) {
			t.Fatalf("%s: MPC under forecast error realized %v g, below the oracle's %v g", id, noisy.CarbonG, oracle.CarbonG)
		}
	}
}
