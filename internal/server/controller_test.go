package server

import (
	"math"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"perseus/internal/client"
	"perseus/internal/experiments"
	"perseus/internal/grid"
)

// TestControllerClosesMPCLoop is the end-to-end acceptance check for
// the background controller: with a revising forecast installed and a
// job under controller management, ticks at every signal-interval
// boundary roll the schedule forward server-side. The client observes
// strictly increasing schedule versions through conditional fetches and
// reads the final rolling schedule through the read-only rollout view —
// it never plans — and the realized carbon total matches
// experiments.ForecastComparison's MPC row for the same seed exactly.
func TestControllerClosesMPCLoop(t *testing.T) {
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
	const seed, sigma = int64(11), 0.2
	const deadline = 14400.0
	if _, err := cl.InstallRevisionsForecast(seed, sigma, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	target := math.Floor(0.8 * deadline / tbl.Tmin())

	// Manage the job: plan #1 is issued immediately.
	first, err := cl.ManageJob(id, target, deadline, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.Plans != 1 || len(first.Frozen) != 0 {
		t.Fatalf("managed job's initial schedule: %+v", first)
	}

	sched, err := cl.FetchSchedule(id)
	if err != nil {
		t.Fatal(err)
	}
	version := sched.Version

	// Tick at every interval boundary up to the deadline. The client
	// only ever issues conditional schedule fetches and rollout reads.
	bumps := 0
	for _, boundary := range []float64{3600, 7200, 10800, 14400} {
		now := clock.Now()
		at := time.Unix(1_700_000_000, 0).Add(time.Duration(boundary * float64(time.Second)))
		clock.Advance(at.Sub(now))
		st, err := cl.TickController()
		if err != nil {
			t.Fatal(err)
		}
		if st.Ticks == 0 || len(st.Jobs) != 1 || st.Jobs[0].LastError != "" {
			t.Fatalf("tick at %v: %+v", boundary, st)
		}
		s2, changed, err := cl.FetchScheduleIfChanged(id, version, 0)
		if err != nil {
			t.Fatal(err)
		}
		if changed {
			if s2.Version <= version {
				t.Fatalf("version did not increase monotonically: %d -> %d", version, s2.Version)
			}
			version = s2.Version
			bumps++
		}
	}
	// Every boundary before the deadline re-plans (the revising
	// forecast changes at each), so the client saw version bumps.
	if bumps < 3 {
		t.Fatalf("client observed only %d version bumps across the ticks", bumps)
	}

	roll, err := cl.FetchRollout(id)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(roll.DoneIterations-target) > 1e-6*(1+target) {
		t.Fatalf("controller completed %v of %v iterations", roll.DoneIterations, target)
	}
	if roll.RemainingIterations != 0 || roll.Remaining != nil {
		t.Fatalf("work left after the deadline: %+v", roll.ReplanResponse)
	}

	// The realized total must equal the MPC row of the offline forecast
	// comparison on the same scenario: the server closed exactly the
	// same rolling-horizon loop.
	strategies, err := experiments.ForecastComparison(tbl, experiments.ForecastScenario{
		Truth: &sig, Seed: seed, Sigma: sigma, Target: target, DeadlineS: deadline,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mpcCarbon float64
	found := false
	for _, st := range strategies {
		if st.Name == "MPC re-planning" {
			mpcCarbon = st.Outcome.CarbonG
			found = true
		}
	}
	if !found {
		t.Fatal("comparison has no MPC row")
	}
	if math.Abs(roll.CarbonG-mpcCarbon) > 1e-9*(1+mpcCarbon) {
		t.Fatalf("controller realized %v g, offline MPC row %v g", roll.CarbonG, mpcCarbon)
	}
}

// TestControllerTickClientReplanRace drives controller ticks and a
// client's same-parameter re-manage calls concurrently with a moving
// clock (run under -race): both roll the one schedule forward, so the
// frozen prefix must never rewind, overlap, or diverge between
// observers.
func TestControllerTickClientReplanRace(t *testing.T) {
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
	if _, err := cl.InstallRevisionsForecast(3, 0.15, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	target := math.Floor(0.8 * 14400 / tbl.Tmin())
	if _, err := srv.ManageJob(id, target, 14400, "", 0); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var views []*client.Replan
	record := func(r client.Replan) {
		mu.Lock()
		views = append(views, &r)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				switch w {
				case 0:
					srv.TickController()
				case 1:
					r, err := cl.ManageJob(id, target, 14400, "", 0)
					if err != nil {
						t.Error(err)
						return
					}
					record(r)
				default:
					clock.Advance(4 * time.Minute)
					r, err := cl.FetchRollout(id)
					if err != nil {
						t.Error(err)
						return
					}
					record(r.ReplanResponse)
				}
			}
		}(w)
	}
	wg.Wait()

	// The frozen prefix never rewinds: sort observations by frozen
	// length; every longer view extends the shorter ones verbatim, and
	// frozen spans never overlap.
	final, err := cl.ManageJob(id, target, 14400, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(final.Frozen); i++ {
		if final.Frozen[i].StartS < final.Frozen[i-1].EndS-1e-9 {
			t.Fatalf("frozen spans overlap: %+v then %+v", final.Frozen[i-1], final.Frozen[i])
		}
	}
	for _, v := range views {
		if v.RemainingOffsetS > final.RemainingOffsetS+1e-9 {
			t.Fatalf("observed offset %v beyond final %v: schedule rewound", v.RemainingOffsetS, final.RemainingOffsetS)
		}
		if len(v.Frozen) > len(final.Frozen) {
			t.Fatalf("observed %d frozen spans, final has %d: prefix shrank", len(v.Frozen), len(final.Frozen))
		}
		for i, fi := range v.Frozen {
			fj := final.Frozen[i]
			if fi.StartS != fj.StartS || fi.EndS != fj.EndS || fi.Iterations != fj.Iterations ||
				fi.CarbonG != fj.CarbonG || fi.PredCarbonG != fj.PredCarbonG {
				t.Fatalf("frozen prefix diverged at %d: %+v vs %+v", i, fi, fj)
			}
		}
		var sum float64
		for _, fi := range v.Frozen {
			sum += fi.Iterations
		}
		if math.Abs(sum-v.DoneIterations) > 1e-6*(1+sum) {
			t.Fatalf("done iterations %v do not match frozen sum %v", v.DoneIterations, sum)
		}
	}
}

// TestControllerBackgroundLoop exercises the real-time loop on a
// seconds-scale signal: started, it ticks at interval boundaries on
// its own; stopped, it stays stopped.
func TestControllerBackgroundLoop(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewServerClient(ts.URL)

	sig := grid.Signal{Name: "fast", Intervals: []grid.Interval{
		{StartS: 0, EndS: 0.05, CarbonGPerKWh: 500, PriceUSDPerKWh: 0.2},
		{StartS: 0.05, EndS: 0.1, CarbonGPerKWh: 100, PriceUSDPerKWh: 0.05},
	}}
	if _, err := cl.UploadGridSignal(sig, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.StartController(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := cl.FetchControllerStatus()
		if err != nil {
			t.Fatal(err)
		}
		if st.Running && st.Ticks >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background loop never ticked: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, err := cl.StopController()
	if err != nil {
		t.Fatal(err)
	}
	if st.Running {
		t.Fatal("controller still running after stop")
	}
	// Starting twice is idempotent; stopping an idle controller is a
	// no-op.
	srv.StartController()
	srv.StartController()
	srv.StopController()
	srv.StopController()
}

// TestScheduleLongPoll pins the ETag contract: a conditional fetch
// with the current version parks until a bump arrives and 304s when
// none does; an unconditional or stale fetch answers immediately.
func TestScheduleLongPoll(t *testing.T) {
	srv := New()
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

	// Current version, no wait: immediate 304.
	if _, changed, err := cl.FetchScheduleIfChanged(id, sched.Version, 0); err != nil || changed {
		t.Fatalf("conditional fetch at current version: changed=%v err=%v", changed, err)
	}
	// Stale version: immediate content.
	if s2, changed, err := cl.FetchScheduleIfChanged(id, sched.Version-1, 0); err != nil || !changed || s2.Version != sched.Version {
		t.Fatalf("stale conditional fetch: %+v changed=%v err=%v", s2, changed, err)
	}
	// Current version with wait: parks until the straggler bump.
	go func() {
		time.Sleep(50 * time.Millisecond)
		_ = srv.SetStraggler(id, StragglerNotice{ID: "x", Degree: 1.3})
	}()
	start := time.Now()
	s3, changed, err := cl.FetchScheduleIfChanged(id, sched.Version, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !changed || s3.Version <= sched.Version {
		t.Fatalf("long-poll missed the bump: %+v changed=%v", s3, changed)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("long-poll returned in %v — did not park", elapsed)
	}
	// Current version, short wait, no bump: 304 after the wait.
	if _, changed, err := cl.FetchScheduleIfChanged(id, s3.Version, 50*time.Millisecond); err != nil || changed {
		t.Fatalf("expired long-poll: changed=%v err=%v", changed, err)
	}
}
