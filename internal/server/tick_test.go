package server

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perseus/internal/grid"
	"perseus/internal/obs"
)

// fleetServer returns a fake-clock server with n characterized jobs of
// two pipeline shapes, in registration order. hook (nil for none) is
// installed as the solve hook before anything plans.
func fleetServer(t *testing.T, n int, hook func(string, *grid.Signal) error) (*Server, *fakeClock, []string) {
	t.Helper()
	clock := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	srv := New()
	srv.SetClock(clock.Now)
	srv.solveHook = hook
	ids := make([]string, n)
	for k := range ids {
		ids[k] = registerCharacterized(t, srv, JobRequest{
			Schedule: "1f1b", Stages: 2, Microbatches: 4 + 2*(k%2), GPU: "A100-PCIe", Unit: 5e-3,
		}, 4)
	}
	return srv, clock, ids
}

// mixedFleetRun manages 16 jobs with mixed targets, quantiles,
// objectives and two distinct deadline parameters under a seeded
// revisions feed, ticks hourly across the bundled day at the given
// GOMAXPROCS, and returns every job's rollout after every tick plus the
// final ledger.
func mixedFleetRun(t *testing.T, procs int, seed int64) ([][]*RolloutResponse, LedgerResponse) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	srv, clock, ids := fleetServer(t, 16, nil)
	truth := grid.Diurnal24h()
	horizon := truth.Horizon()
	if _, err := srv.SetGridSignal(*truth, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SetForecast(ForecastRequest{Model: "revisions", Seed: seed, Sigma: 0.2}); err != nil {
		t.Fatal(err)
	}
	for k, id := range ids {
		tbl, err := srv.Table(id)
		if err != nil {
			t.Fatal(err)
		}
		deadline := []float64{0, 20 * 3600}[k%2] // 0: the forecast horizon, one day
		window := horizon
		if deadline > 0 {
			window = deadline
		}
		target := math.Floor((0.3 + 0.03*float64(k)) * window / tbl.Tmin())
		if _, err := srv.ManageJob(id, target, deadline, []string{"", "cost", "energy"}[k%3], []float64{0, 0.9}[k/2%2]); err != nil {
			t.Fatal(err)
		}
	}
	var ticks [][]*RolloutResponse
	for tick := 0; tick < 24; tick++ {
		clock.Advance(time.Hour)
		if st := srv.TickController(); st.LastTickError != "" {
			t.Fatalf("GOMAXPROCS %d seed %d tick %d: %s", procs, seed, tick, st.LastTickError)
		}
		rolls := make([]*RolloutResponse, len(ids))
		for k, id := range ids {
			var err error
			if rolls[k], err = srv.Rollout(id); err != nil {
				t.Fatal(err)
			}
		}
		ticks = append(ticks, rolls)
	}
	led, err := srv.Ledger("", 0)
	if err != nil {
		t.Fatal(err)
	}
	return ticks, led
}

// TestParallelTickMatchesSerial pins that a tick's outcome does not
// depend on how its workers were scheduled: one worker (GOMAXPROCS 1)
// and four produce, tick by tick and job by job, the same rollout —
// frozen spans, totals, plan in force, version — and the same ledger.
func TestParallelTickMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		serial, serialLed := mixedFleetRun(t, 1, seed)
		parallel, parallelLed := mixedFleetRun(t, 4, seed)
		for tick := range serial {
			for k := range serial[tick] {
				if s, p := serial[tick][k], parallel[tick][k]; !reflect.DeepEqual(s, p) {
					t.Fatalf("seed %d tick %d %s:\n1 worker  %+v\n4 workers %+v", seed, tick, s.JobID, s, p)
				}
			}
		}
		if !reflect.DeepEqual(serialLed, parallelLed) {
			t.Fatalf("seed %d: ledgers differ:\n1 worker  %+v\n4 workers %+v", seed, serialLed.Fleet, parallelLed.Fleet)
		}
		last := serial[len(serial)-1]
		for _, r := range last {
			if r.RemainingIterations != 0 || r.Plans < 2 || r.Version < r.Plans {
				t.Fatalf("seed %d: %s ended with %v iterations to go after %d plans at v%d", seed, r.JobID, r.RemainingIterations, r.Plans, r.Version)
			}
		}
	}
}

// forecastsIssued reads the issued-forecast counter.
func forecastsIssued(srv *Server) int { return int(srv.obs.forecastsIssued.Value()) }

// TestTickIssuesOneForecastPerHorizon pins the tick view's memo: 64
// managed jobs that requested one horizon cost a tick one forecast, not
// 64; with two requested horizons among them, two — counted by the
// metric, reported on the tick's root span and event, and attributed on
// each replan.forecast span to the schedules that share it.
func TestTickIssuesOneForecastPerHorizon(t *testing.T) {
	srv, clock, ids := fleetServer(t, 64, nil)
	truth := grid.Diurnal24h()
	horizon := truth.Horizon()
	if _, err := srv.SetGridSignal(*truth, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SetForecast(ForecastRequest{Model: "revisions", Seed: 4, Sigma: 0.2}); err != nil {
		t.Fatal(err)
	}
	manage := func(ids []string, deadline float64) {
		t.Helper()
		for _, id := range ids {
			tbl, err := srv.Table(id)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.ManageJob(id, math.Floor(0.5*deadline/tbl.Tmin()), deadline, "", 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	// tick advances an hour, ticks, and returns how many forecasts the
	// tick issued along with its root span's and event's attributes.
	tick := func() (issued int, sharedBy []int) {
		t.Helper()
		before := forecastsIssued(srv)
		clock.Advance(time.Hour)
		if st := srv.TickController(); st.LastTickError != "" {
			t.Fatal(st.LastTickError)
		}
		issued = forecastsIssued(srv) - before
		tr := srv.Traces(1, 0, spanControllerTick)[0]
		for _, sp := range tr.Spans {
			switch sp.Name {
			case spanControllerTick:
				if sp.Attrs["forecasts"] != strconv.Itoa(issued) || sp.Attrs["jobs"] != "64" {
					t.Fatalf("tick root attrs %v after issuing %d forecasts", sp.Attrs, issued)
				}
			case spanReplanFcast:
				n, err := strconv.Atoi(sp.Attrs["shared_by"])
				if err != nil {
					t.Fatalf("replan.forecast span attrs %v", sp.Attrs)
				}
				sharedBy = append(sharedBy, n)
			case spanReplanSolve, obs.SpanPlannerSolve:
				// Both solve spans say what the solve did.
				if n, err := strconv.Atoi(sp.Attrs["steps"]); err != nil || n <= 0 {
					t.Fatalf("%s span attrs %v, want a positive steps count", sp.Name, sp.Attrs)
				}
			}
		}
		events := srv.Events(1).Events
		if len(events) != 1 || events[0].Name != "controller.tick" || events[0].Labels["forecasts"] != strconv.Itoa(issued) {
			t.Fatalf("newest event %+v after issuing %d forecasts", events, issued)
		}
		return issued, sharedBy
	}

	manage(ids, horizon)
	if got := forecastsIssued(srv); got != len(ids) {
		t.Fatalf("%d forecasts issued creating %d schedules, want one each", got, len(ids))
	}
	if issued, sharedBy := tick(); issued != 1 || !reflect.DeepEqual(sharedBy, []int{64}) {
		t.Fatalf("one horizon: tick issued %d forecasts shared by %v, want 1 shared by 64", issued, sharedBy)
	}
	// Restart a quarter of the fleet on a second horizon.
	manage(ids[:16], 20*3600)
	issued, sharedBy := tick()
	if issued != 2 || len(sharedBy) != 2 || sharedBy[0]+sharedBy[1] != 64 || sharedBy[0]*sharedBy[1] != 16*48 {
		t.Fatalf("two horizons: tick issued %d forecasts shared by %v, want 2 shared by 16 and 48", issued, sharedBy)
	}
	// A tick with nothing to roll (same instant, same revision) issues none.
	before := forecastsIssued(srv)
	if st := srv.TickController(); st.LastTickError != "" || forecastsIssued(srv) != before {
		t.Fatalf("idle tick: error %q, %d forecasts issued", st.LastTickError, forecastsIssued(srv)-before)
	}
}

// TestTickSharesViews pins the tick view's signal memo: 64 managed jobs
// planning one forecast at one quantile to one deadline end a tick
// holding the same quantile view — one pointer — and were all solved on
// one window object; a second quantile or a second deadline among them
// makes it two of each. Under -race the 64 solves reading one window
// from two workers also check that nothing writes it.
func TestTickSharesViews(t *testing.T) {
	var mu sync.Mutex
	windows := map[*grid.Signal]int{}
	srv, clock, ids := fleetServer(t, 64, func(_ string, sig *grid.Signal) error {
		if sig != nil {
			mu.Lock()
			windows[sig]++
			mu.Unlock()
		}
		return nil
	})
	truth := grid.Diurnal24h()
	horizon := truth.Horizon()
	if _, err := srv.SetGridSignal(*truth, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SetForecast(ForecastRequest{Model: "revisions", Seed: 4, Sigma: 0.2}); err != nil {
		t.Fatal(err)
	}
	manage := func(ids []string, deadline, quantile float64) {
		t.Helper()
		for _, id := range ids {
			tbl, err := srv.Table(id)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.ManageJob(id, math.Floor(0.5*deadline/tbl.Tmin()), deadline, "", quantile); err != nil {
				t.Fatal(err)
			}
		}
	}
	// tick advances an hour, ticks, and returns how many distinct views
	// the schedules hold afterwards and how many distinct windows the
	// tick's solves ran on.
	tick := func() (views, solvedOn int) {
		t.Helper()
		mu.Lock()
		clear(windows)
		mu.Unlock()
		clock.Advance(time.Hour)
		if st := srv.TickController(); st.LastTickError != "" {
			t.Fatal(st.LastTickError)
		}
		held := map[*grid.Signal]bool{}
		srv.replanMu.RLock()
		for _, id := range ids {
			rs := srv.replans[id]
			rs.mu.Lock()
			held[rs.View()] = true
			rs.mu.Unlock()
		}
		srv.replanMu.RUnlock()
		solves := 0
		for _, n := range windows {
			solves += n
		}
		if solves != len(ids) {
			t.Fatalf("tick solved %d times for %d jobs", solves, len(ids))
		}
		return len(held), len(windows)
	}

	manage(ids, horizon, 0)
	if views, solvedOn := tick(); views != 1 || solvedOn != 1 {
		t.Fatalf("one quantile, one deadline: %d views held, solved on %d windows; want 1 and 1", views, solvedOn)
	}
	manage(ids[:16], horizon, 0.9)
	if views, solvedOn := tick(); views != 2 || solvedOn != 2 {
		t.Fatalf("two quantiles: %d views held, solved on %d windows; want 2 and 2", views, solvedOn)
	}
	manage(ids[:16], 20*3600, 0)
	if views, solvedOn := tick(); views != 2 || solvedOn != 2 {
		t.Fatalf("two deadlines: %d views held, solved on %d windows; want 2 and 2", views, solvedOn)
	}
}

// TestTickSkipsJobUnmanagedMidTick holds job 1's solve (the gate
// seam) while the signal is re-installed under a one-worker tick. The
// install un-manages every job and drops every schedule, so whatever job
// 2's turn runs into afterwards is not an error of the tick; and the
// install returns only once job 1's roll-forward is over, so no version
// moves after it.
func TestTickSkipsJobUnmanagedMidTick(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Armed once the schedules exist; sized to every solve the tick can
	// make, so only the gate blocks.
	var armed atomic.Bool
	entered, release := make(chan struct{}, 2), make(chan struct{})
	gated := gate(entered, release)
	srv, clock, ids := fleetServer(t, 2, func(layer string, sig *grid.Signal) error {
		if !armed.Load() {
			return nil
		}
		return gated(layer, sig)
	})
	sig := forecastTestSignal()
	if _, err := srv.SetGridSignal(sig, ""); err != nil {
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
		if _, err := srv.ManageJob(id, math.Floor(0.7*14400/tbl.Tmin()), 14400, "", 0); err != nil {
			t.Fatal(err)
		}
	}
	armed.Store(true)
	versions := func() (out []int) {
		for _, id := range ids {
			s, err := srv.Schedule(id)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s.Version)
		}
		return out
	}

	clock.Advance(time.Hour)
	ticked := make(chan ControllerStatus, 1)
	go func() { ticked <- srv.TickController() }()
	<-entered // job 1 is inside its solve, its schedule locked

	replaced := sig
	replaced.Name = "replacement"
	installed := make(chan error, 1)
	go func() {
		_, err := srv.SetGridSignal(replaced, "")
		installed <- err
	}()
	// The install publishes the signal, then waits for the roll-forward
	// in flight before it clears the schedules.
	for deadline := time.Now().Add(5 * time.Second); ; {
		srv.st.mu.Lock()
		name := srv.st.signal.Name
		srv.st.mu.Unlock()
		if name == replaced.Name {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("signal install never published the new signal")
		}
		runtime.Gosched()
	}
	select {
	case err := <-installed:
		t.Fatalf("signal install returned (%v) while a roll-forward of the replaced trace was in flight", err)
	default:
	}
	close(release)
	if err := <-installed; err != nil {
		t.Fatal(err)
	}
	afterInstall := versions()
	st := <-ticked
	if st.LastTickError != "" {
		t.Fatalf("tick published an error for a job the install un-managed: %q", st.LastTickError)
	}
	if got := versions(); !reflect.DeepEqual(got, afterInstall) {
		t.Fatalf("versions moved %v -> %v after the signal install returned", afterInstall, got)
	}
	if st := srv.ControllerStatus(); len(st.Jobs) != 0 || st.LastTickError != "" {
		t.Fatalf("controller after the install: %+v", st)
	}
	for _, id := range ids {
		if _, err := srv.Rollout(id); err == nil {
			t.Fatalf("%s kept a rolling schedule of the replaced trace", id)
		}
	}
}

// TestFailedRestartKeepsSchedule pins that a schedule enters the map
// only once its first plan is in force: a re-manage with new parameters
// whose solve fails leaves the running schedule in force — the next tick
// is clean and the rollout still shows the first target — and a failed
// first manage leaves the job unmanaged.
func TestFailedRestartKeepsSchedule(t *testing.T) {
	var fail atomic.Bool
	srv, clock, ids := fleetServer(t, 2, func(layer string, _ *grid.Signal) error {
		if layer == "forecast-mpc" && fail.Load() {
			return errors.New("solver down")
		}
		return nil
	})
	if _, err := srv.SetGridSignal(forecastTestSignal(), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SetForecast(ForecastRequest{Model: "revisions", Seed: 5, Sigma: 0.2}); err != nil {
		t.Fatal(err)
	}
	tbl, err := srv.Table(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	target := math.Floor(0.6 * 14400 / tbl.Tmin())
	if _, err := srv.ManageJob(ids[0], target, 14400, "", 0); err != nil {
		t.Fatal(err)
	}
	fail.Store(true)
	if _, err := srv.ManageJob(ids[0], target/2, 14400, "", 0); err == nil {
		t.Fatal("restart planned through a failing solver")
	}
	if _, err := srv.ManageJob(ids[1], target, 14400, "", 0); err == nil {
		t.Fatal("first manage planned through a failing solver")
	}
	fail.Store(false)

	clock.Advance(time.Hour)
	st := srv.TickController()
	if st.LastTickError != "" {
		t.Fatalf("tick after a failed restart: %s", st.LastTickError)
	}
	if len(st.Jobs) != 1 || st.Jobs[0].JobID != ids[0] {
		t.Fatalf("managed jobs %+v, want only %s", st.Jobs, ids[0])
	}
	roll, err := srv.Rollout(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if roll.Target != target || roll.Plans < 2 {
		t.Fatalf("rollout after a failed restart: target %v after %d plans, want %v rolled by the tick", roll.Target, roll.Plans, target)
	}
	if _, err := srv.Rollout(ids[1]); err == nil {
		t.Fatalf("%s has a rolling schedule after its first manage failed", ids[1])
	}
}

// TestControllerConcurrentStress runs everything that touches rolling
// schedules at once, under -race, against a moving clock: ticks, two
// ManageJob callers (one with fixed parameters, one alternating the
// quantile, so restarting), signal and forecast re-installs, a job
// removal, and the two observers. Invariants: no schedule (and no management)
// survives a signal install; no schedule belongs to a trace other than
// the installed one once the install returned; no job's version goes
// backwards; no stepper's clock rewinds.
func TestControllerConcurrentStress(t *testing.T) {
	srv, clock, ids := fleetServer(t, 6, nil)
	truth := forecastTestSignal()
	install := func(seed int64) {
		// Between the two calls nothing can create a schedule (no forecast
		// is installed), so what the install must have dropped is
		// observable.
		if _, err := srv.SetGridSignal(truth, ""); err != nil {
			t.Error(err)
			return
		}
		srv.replanMu.RLock()
		left := len(srv.replans)
		srv.replanMu.RUnlock()
		if st := srv.ControllerStatus(); left != 0 || len(st.Jobs) != 0 {
			t.Errorf("after a signal install: %d schedules, %d managed jobs", left, len(st.Jobs))
		}
		if _, err := srv.SetForecast(ForecastRequest{Model: "revisions", Seed: seed, Sigma: 0.2}); err != nil {
			t.Error(err)
		}
	}
	install(1)
	target := map[string]float64{}
	for _, id := range ids {
		tbl, err := srv.Table(id)
		if err != nil {
			t.Fatal(err)
		}
		target[id] = math.Floor(0.6 * 14400 / tbl.Tmin())
	}

	// Every round runs one call of each kind at once.
	const rounds = 60
	var kinds []func(i int)
	spawn := func(fn func(i int)) { kinds = append(kinds, fn) }
	// Errors from the planning calls are expected while a re-install has
	// the forecast (or a removal the job) gone; the invariants are checked
	// by the observers.
	spawn(func(int) { srv.TickController() })
	spawn(func(i int) {
		clock.Advance(90 * time.Second)
		id := ids[i%len(ids)]
		_, _ = srv.ManageJob(id, target[id], 14400, "", 0)
	})
	spawn(func(i int) {
		id := ids[(i+3)%len(ids)]
		_, _ = srv.ManageJob(id, target[id], 14400, "", []float64{0, 0.9}[i/len(ids)%2])
	})
	spawn(func(i int) {
		switch {
		case i == rounds/2:
			if err := srv.RemoveJob(ids[len(ids)-1]); err != nil {
				t.Error(err)
			}
		case i%12 == 6:
			install(int64(i))
		case i%4 == 1:
			if _, err := srv.SetForecast(ForecastRequest{Model: "revisions", Seed: int64(i), Sigma: 0.2}); err != nil {
				t.Error(err)
			}
		}
	})
	lastVersion := map[string]int{}
	spawn(func(int) {
		for _, js := range srv.ControllerStatus().Jobs {
			if js.JobID == ids[len(ids)-1] {
				continue // removed mid-run: a job that is gone reads version 0
			}
			if js.Version < lastVersion[js.JobID] {
				t.Errorf("%s version went %d -> %d", js.JobID, lastVersion[js.JobID], js.Version)
			}
			lastVersion[js.JobID] = js.Version
		}
	})
	lastAt := map[*replanState]float64{}
	spawn(func(i int) {
		srv.replanMu.RLock()
		for id, rs := range srv.replans {
			rs.mu.Lock()
			if rs.At < lastAt[rs] {
				t.Errorf("%s stepper clock rewound %v -> %v", id, lastAt[rs], rs.At)
			}
			lastAt[rs] = rs.At
			rs.mu.Unlock()
		}
		srv.replanMu.RUnlock()
		if r, err := srv.Rollout(ids[i%len(ids)]); err == nil {
			for k := 1; k < len(r.Frozen); k++ {
				if r.Frozen[k].StartS < r.Frozen[k-1].EndS-1e-9 {
					t.Errorf("%s frozen spans overlap: %+v then %+v", r.JobID, r.Frozen[k-1], r.Frozen[k])
				}
			}
		}
	})
	for i := 0; i < rounds; i++ {
		var wg sync.WaitGroup
		for _, fn := range kinds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(i)
			}()
		}
		wg.Wait()
	}

	srv.st.mu.Lock()
	installed := srv.st.signal
	srv.st.mu.Unlock()
	for id, rs := range srv.replans {
		if rs.Truth != installed {
			t.Errorf("%s kept a schedule of a replaced trace", id)
		}
	}
	if len(srv.order) != len(srv.replans) {
		t.Errorf("%d jobs in management order, %d schedules", len(srv.order), len(srv.replans))
	}
	for _, id := range srv.order {
		if srv.replans[id] == nil {
			t.Errorf("%s managed without a schedule", id)
		}
	}
	if _, ok := srv.replans[ids[len(ids)-1]]; ok {
		t.Errorf("removed job %s kept its schedule", ids[len(ids)-1])
	}
	if st := srv.ControllerStatus(); st.Ticks != rounds {
		t.Errorf("%d ticks counted, want %d", st.Ticks, rounds)
	}
	// The run was not all refusals: schedules were planned and rolled.
	if plans, bumps := srv.obs.replans.Value(), srv.obs.versionBumps.Value(); plans < rounds/2 || bumps < plans {
		t.Errorf("only %v re-plans and %v version bumps in %d rounds", plans, bumps, rounds)
	}
}

// TestControllerTickAllocs gates what a 64-job tick allocates — the
// shape BenchmarkControllerTick/jobs-64 runs: a 96-interval day, a
// revisions feed at sigma 0.2, so every tick re-plans every job, and a
// deadline at the day's end. A tick reads its forecast's draws from the
// installed issuer's memo and finds its metric series without
// rendering label blocks; 4k objects a tick without either. Its spans
// keep their attributes inline and are their own contexts; 2.4k objects
// a tick with a map and a context.WithValue per span. The count is
// exact only without -race: go test -run Allocs asserts it.
func TestControllerTickAllocs(t *testing.T) {
	const maxAllocs = 1110
	srv, clock, ids := fleetServer(t, 64, nil)
	srv.FleetStatus() // the last characterization's fleet recompute is done
	sig := grid.Generate(grid.GenOptions{Intervals: 96, IntervalS: 900, Jitter: 0.1, Seed: 3})
	if _, err := srv.SetGridSignal(*sig, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SetForecast(ForecastRequest{Model: "revisions", Seed: 1, Sigma: 0.2}); err != nil {
		t.Fatal(err)
	}
	for k, id := range ids {
		lt, err := srv.Table(id)
		if err != nil {
			t.Fatal(err)
		}
		target := (0.5 + 0.25*float64(k%8)/8) * sig.Horizon() / lt.TStar()
		if _, err := srv.ManageJob(id, target, sig.Horizon(), "", 0); err != nil {
			t.Fatal(err)
		}
	}
	replans := srv.obs.replans.Value()
	ticks := 0
	allocs := testing.AllocsPerRun(16, func() {
		clock.Advance(15 * time.Minute)
		if st := srv.TickController(); st.LastTickError != "" {
			t.Fatal(st.LastTickError)
		}
		ticks++
	})
	if got := srv.obs.replans.Value() - replans; got != float64(64*ticks) {
		t.Fatalf("%v re-plans over %d ticks, want every job re-planned on every tick", got, ticks)
	}
	if raceEnabled {
		t.Skip("allocation counts vary under -race; go test -run Allocs asserts them")
	}
	t.Logf("%v allocations per 64-job tick", allocs)
	if allocs > maxAllocs {
		t.Fatalf("a 64-job tick allocates %v objects, want at most %d", allocs, maxAllocs)
	}
}

// TestRevisionsFeedRunsForManyCycles: a controller with a revisions
// feed keeps re-planning however long it runs and however many
// intervals its day has. The issuer's cap counts intervals past now,
// not since the signal's start, and a day of more than half the cap
// has its default coverage stopped at the cap rather than refused.
func TestRevisionsFeedRunsForManyCycles(t *testing.T) {
	for _, c := range []struct{ intervals, cycles int }{{96, 30}, {600, 3}, {1100, 3}} {
		t.Run(strconv.Itoa(c.intervals), func(t *testing.T) {
			srv, clock, ids := fleetServer(t, 1, nil)
			sig := grid.Generate(grid.GenOptions{Intervals: c.intervals, IntervalS: 86400 / float64(c.intervals), Jitter: 0.1, Seed: 3})
			if _, err := srv.SetGridSignal(*sig, ""); err != nil {
				t.Fatal(err)
			}
			if _, err := srv.SetForecast(ForecastRequest{Model: "revisions", Seed: 1, Sigma: 0.2}); err != nil {
				t.Fatal(err)
			}
			lt, err := srv.Table(ids[0])
			if err != nil {
				t.Fatal(err)
			}
			h := sig.Horizon()
			for cyc := 0; cyc < c.cycles; cyc++ {
				// A new target restarts the schedule: a fresh default deadline.
				target := (0.4 + 0.001*float64(cyc)) * h / lt.TStar()
				if _, err := srv.ManageJob(ids[0], target, 0, "", 0); err != nil {
					t.Fatalf("cycle %d: %v", cyc, err)
				}
				issued := forecastsIssued(srv)
				for k := 0; k < 8; k++ {
					clock.Advance(time.Duration(h/8) * time.Second)
					if st := srv.TickController(); st.LastTickError != "" {
						t.Fatalf("cycle %d, tick %d: %s", cyc, k, st.LastTickError)
					}
				}
				if forecastsIssued(srv) == issued {
					t.Fatalf("cycle %d: no tick issued a forecast", cyc)
				}
			}
		})
	}
}
