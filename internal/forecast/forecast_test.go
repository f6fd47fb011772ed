package forecast

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"perseus/internal/frontier"
	"perseus/internal/grid"
)

// convexTable hand-builds a lookup table with E(t) = a + b/t on a unit
// grid — the same convex family internal/grid, internal/fleet, and
// internal/region verify their planners on.
func convexTable(unit float64, tminU, tstarU int64, a, b float64) *frontier.LookupTable {
	lt := &frontier.LookupTable{Unit: unit, TminUnits: tminU, TStarUnits: tstarU}
	for u := tminU; u <= tstarU; u++ {
		t := float64(u) * unit
		lt.Points = append(lt.Points, frontier.TablePoint{TimeUnits: u, Energy: a + b/t})
	}
	return lt
}

func TestExtendCyclic(t *testing.T) {
	sig := grid.Diurnal24h()
	ext := ExtendCyclic(sig, 36*3600)
	if err := ext.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := ext.Horizon(); got != 36*3600 {
		t.Fatalf("horizon %v, want 36 h", got)
	}
	if len(ext.Intervals) != 36 {
		t.Fatalf("%d intervals, want 36", len(ext.Intervals))
	}
	// Hour 25 repeats hour 1.
	if ext.Intervals[25].CarbonGPerKWh != sig.Intervals[1].CarbonGPerKWh {
		t.Fatalf("cyclic extension broken: %+v", ext.Intervals[25])
	}
}

func TestWindow(t *testing.T) {
	sig := grid.Diurnal24h()
	w := Window(sig, 2*3600+1800, 5*3600)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := w.Horizon(); math.Abs(got-2.5*3600) > 1e-9 {
		t.Fatalf("window horizon %v, want 2.5 h", got)
	}
	if w.Intervals[0].CarbonGPerKWh != sig.Intervals[2].CarbonGPerKWh {
		t.Fatalf("window first interval %+v", w.Intervals[0])
	}
}

func TestCoarsen(t *testing.T) {
	sig := grid.Diurnal24h()
	c := Coarsen(sig, 8)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.Intervals) != 8 || c.Horizon() != sig.Horizon() {
		t.Fatalf("coarsened %+v", c)
	}
	// Energy-weighted mean preserved: the duration-weighted average
	// carbon over the whole trace is unchanged.
	mean := func(s *grid.Signal) float64 {
		var sum, dur float64
		for _, iv := range s.Intervals {
			sum += iv.CarbonGPerKWh * iv.Duration()
			dur += iv.Duration()
		}
		return sum / dur
	}
	if math.Abs(mean(c)-mean(sig)) > 1e-9 {
		t.Fatalf("coarsen mean %v != %v", mean(c), mean(sig))
	}
}

func TestForecastQuantileSignal(t *testing.T) {
	f := &Forecast{
		IssuedS: 0, Level: 0.9,
		Signal: &grid.Signal{Intervals: []grid.Interval{
			{StartS: 0, EndS: 100, CarbonGPerKWh: 200, PriceUSDPerKWh: 0.1},
		}},
		Carbon: []Band{{Lo: 150, Hi: 300}},
		Price:  []Band{{Lo: 0.05, Hi: 0.2}},
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := f.At(0.5).Intervals[0].CarbonGPerKWh; got != 200 {
		t.Fatalf("q=0.5 carbon %v, want point 200", got)
	}
	if got := f.At(0.9).Intervals[0].CarbonGPerKWh; got != 300 {
		t.Fatalf("q=0.9 carbon %v, want hi 300", got)
	}
	if got := f.At(0.1).Intervals[0].CarbonGPerKWh; got != 150 {
		t.Fatalf("q=0.1 carbon %v, want lo 150", got)
	}
	if got := f.At(0.7).Intervals[0].CarbonGPerKWh; math.Abs(got-250) > 1e-9 {
		t.Fatalf("q=0.7 carbon %v, want 250", got)
	}
	// Quantiles beyond the level clamp at the band edge.
	if got := f.At(0.99).Intervals[0].CarbonGPerKWh; got != 300 {
		t.Fatalf("q=0.99 carbon %v, want clamped 300", got)
	}
}

func TestSeasonalNaiveExactOnPeriodicSeries(t *testing.T) {
	// Two full periods of history: seasonal-naive predicts the third
	// exactly, with zero spread.
	var hist []float64
	for rep := 0; rep < 2; rep++ {
		for _, v := range []float64{400, 300, 200, 350} {
			hist = append(hist, v)
		}
	}
	point, spread := (&SeasonalNaive{}).Predict(hist, 4, 6, 0.9)
	want := []float64{400, 300, 200, 350, 400, 300}
	for i := range want {
		if point[i] != want[i] {
			t.Fatalf("point %v, want %v", point, want)
		}
		if spread[i] != 0 {
			t.Fatalf("spread %v on a perfectly periodic series, want 0", spread)
		}
	}
}

func TestPersistenceBandsWidenWithLead(t *testing.T) {
	hist := []float64{100, 110, 95, 105, 100}
	point, spread := (&Persistence{}).Predict(hist, 0, 5, 0.9)
	for i, p := range point {
		if p != 100 {
			t.Fatalf("persistence point %v, want last value", point)
		}
		if i > 0 && spread[i] <= spread[i-1] {
			t.Fatalf("persistence spread not widening: %v", spread)
		}
	}
}

func TestSmoothedTracksSeasonPlusDecayingAnomaly(t *testing.T) {
	// A periodic series whose last period and a half run high, the last
	// observation most: the anomaly persists from step to step, so the
	// fitted AR(1) decay is positive, and the forecast starts above the
	// seasonal mean and decays toward it.
	var hist []float64
	for rep := 0; rep < 3; rep++ {
		hist = append(hist, 400, 300, 200, 350)
	}
	hist = append(hist, 440, 330, 220, 365, 480)
	point, _ := (&Smoothed{}).Predict(hist, 4, 8, 0.9)
	// Phase of the first forecast step is 1; its seasonal mean is 307.5.
	season := (3*300 + 330) / 4.0
	d0 := point[0] - season
	d4 := point[4] - season // same phase, one period later
	if d0 <= 0 || d0 > 100 {
		t.Fatalf("smoothed lead-1 point %v, want above seasonal %v by a decayed anomaly", point[0], season)
	}
	if d4 <= 0 || d4 >= d0/2 {
		t.Fatalf("anomaly not decaying: lead-1 excess %v, lead-5 excess %v", d0, d4)
	}
}

func TestModelByName(t *testing.T) {
	for _, name := range []string{"persistence", "seasonal", "smoothed"} {
		m, err := ModelByName(name)
		if err != nil || m.Name() != name {
			t.Fatalf("ModelByName(%q) = %v, %v", name, m, err)
		}
	}
	if _, err := ModelByName("vibes"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestFromHistoryRevealsAndForecasts(t *testing.T) {
	truth := grid.Diurnal24h()
	prov := &FromHistory{Truth: truth, Model: &SeasonalNaive{}, HorizonS: 48 * 3600}
	fc, err := prov.At(30 * 3600) // six hours into day 2
	if err != nil {
		t.Fatal(err)
	}
	if err := fc.Validate(); err != nil {
		t.Fatal(err)
	}
	// Revealed prefix (31 intervals: hours 0..30) matches the truth
	// exactly with zero-width bands.
	for i := 0; i <= 30; i++ {
		want := truth.Intervals[i%24].CarbonGPerKWh
		if fc.Signal.Intervals[i].CarbonGPerKWh != want {
			t.Fatalf("revealed interval %d carbon %v, want %v", i, fc.Signal.Intervals[i].CarbonGPerKWh, want)
		}
		if fc.Carbon[i].Lo != want || fc.Carbon[i].Hi != want {
			t.Fatalf("revealed interval %d band %+v, want exact", i, fc.Carbon[i])
		}
	}
	// With a full revealed period, seasonal-naive predicts the diurnal
	// shape exactly (the truth is perfectly periodic).
	for i := 31; i < len(fc.Signal.Intervals); i++ {
		want := truth.Intervals[i%24].CarbonGPerKWh
		if math.Abs(fc.Signal.Intervals[i].CarbonGPerKWh-want) > 1e-9 {
			t.Fatalf("forecast interval %d carbon %v, want %v", i, fc.Signal.Intervals[i].CarbonGPerKWh, want)
		}
	}
}

func TestRevisionsDeterministicAndConverging(t *testing.T) {
	truth := grid.Diurnal24h()
	prov := &Revisions{Truth: truth, Seed: 3, Sigma: 0.15}
	a, err := prov.At(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Revisions{Truth: truth, Seed: 3, Sigma: 0.15}).At(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Signal.Intervals {
		if a.Signal.Intervals[i] != b.Signal.Intervals[i] {
			t.Fatalf("same seed, different forecast at interval %d", i)
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// A different seed produces a different forecast.
	c, err := (&Revisions{Truth: truth, Seed: 4, Sigma: 0.15}).At(0)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Signal.Intervals {
		if a.Signal.Intervals[i].CarbonGPerKWh != c.Signal.Intervals[i].CarbonGPerKWh {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical forecasts")
	}

	// Revealed intervals are exact; future bands straddle the point.
	late, err := prov.At(10 * 3600)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 10; i++ {
		if late.Signal.Intervals[i].CarbonGPerKWh != truth.Intervals[i].CarbonGPerKWh {
			t.Fatalf("revealed interval %d not exact", i)
		}
	}
	for i := 11; i < 24; i++ {
		p := late.Signal.Intervals[i].CarbonGPerKWh
		if !(late.Carbon[i].Lo < p && p < late.Carbon[i].Hi) {
			t.Fatalf("interval %d band %+v does not straddle point %v", i, late.Carbon[i], p)
		}
	}

	// Revisions converge: the mean absolute forecast error over the
	// remaining horizon shrinks as the decision time advances.
	meanErr := func(t0 float64) float64 {
		fc, err := prov.At(t0)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		var n int
		for i, iv := range fc.Signal.Intervals {
			if iv.StartS <= t0 {
				continue
			}
			sum += math.Abs(iv.CarbonGPerKWh-truth.Intervals[i].CarbonGPerKWh) / truth.Intervals[i].CarbonGPerKWh
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	if e0, e18 := meanErr(0), meanErr(18*3600); e18 >= e0 {
		t.Fatalf("forecast error did not shrink with revisions: %v at t=0, %v at t=18h", e0, e18)
	}

	// Consistency across decision times: an innovation once drained
	// never returns — the forecast for interval 23 at t=20h differs
	// from t=0 only by the drained innovations, and the t=20h view is
	// closer to the truth on average (checked above); spot-check that
	// already-revealed innovations do not re-roll the shared suffix.
	f20, _ := prov.At(20 * 3600)
	f21, _ := prov.At(21 * 3600)
	if f20.Signal.Intervals[21].CarbonGPerKWh != truth.Intervals[21].CarbonGPerKWh &&
		f21.Signal.Intervals[21].CarbonGPerKWh != truth.Intervals[21].CarbonGPerKWh {
		// Interval 21 starts at 21h: revealed in the t=21h view.
		t.Fatalf("interval 21 not revealed at t=21h")
	}
}

// testOptions is the bundled single-job planning problem every MPC
// test uses: finish 55% of the day's T* capacity within the day.
func testOptions(lt *frontier.LookupTable, truth *grid.Signal) Options {
	return Options{
		Target:    0.55 * truth.Horizon() / lt.TStar(),
		DeadlineS: truth.Horizon(),
	}
}

func TestMPCWithPerfectForesightMatchesOracle(t *testing.T) {
	lt := convexTable(0.01, 80, 120, 3000, 120)
	truth := grid.Diurnal24h()
	opts := testOptions(lt, truth)
	oracle, err := Oracle(lt, truth, opts)
	if err != nil {
		t.Fatal(err)
	}
	mpc, err := Replan(lt, &Perfect{Truth: truth}, truth, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !oracle.Feasible || !mpc.Feasible {
		t.Fatalf("oracle feasible=%v, mpc feasible=%v", oracle.Feasible, mpc.Feasible)
	}
	if math.Abs(mpc.CarbonG-oracle.CarbonG) > 1e-6*(1+oracle.CarbonG) {
		t.Fatalf("perfect-foresight MPC carbon %v != oracle %v", mpc.CarbonG, oracle.CarbonG)
	}
	// With a perfect provider, predicted and realized coincide.
	if math.Abs(mpc.PredCarbonG-mpc.CarbonG) > 1e-6*(1+mpc.CarbonG) {
		t.Fatalf("perfect-foresight predicted %v != realized %v", mpc.PredCarbonG, mpc.CarbonG)
	}
}

// TestMPCBeatsPlanOnceOnBundledScenarios is the PR's acceptance bar:
// on the bundled noisy-revision scenarios over Diurnal24h, rolling-
// horizon re-planning achieves strictly lower realized carbon than
// plan-once-on-the-first-forecast at equal iterations completed, and
// stays within a bounded regret of the perfect-foresight oracle.
func TestMPCBeatsPlanOnceOnBundledScenarios(t *testing.T) {
	lt := convexTable(0.01, 80, 120, 3000, 120)
	truth := grid.Diurnal24h()
	opts := testOptions(lt, truth)
	oracle, err := Oracle(lt, truth, opts)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		prov := &Revisions{Truth: truth, Seed: seed, Sigma: 0.12}
		once, err := PlanOnce(lt, prov, truth, opts)
		if err != nil {
			t.Fatal(err)
		}
		mpc, err := Replan(lt, prov, truth, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !once.Feasible || !mpc.Feasible {
			t.Fatalf("seed %d: plan-once feasible=%v, mpc feasible=%v", seed, once.Feasible, mpc.Feasible)
		}
		// Equal iterations completed (both complete the target).
		if math.Abs(once.Iterations-mpc.Iterations) > 1e-6*(1+opts.Target) {
			t.Fatalf("seed %d: iterations differ: plan-once %v, mpc %v", seed, once.Iterations, mpc.Iterations)
		}
		if !(mpc.CarbonG < once.CarbonG) {
			t.Fatalf("seed %d: MPC carbon %v not strictly below plan-once %v", seed, mpc.CarbonG, once.CarbonG)
		}
		// Bounded regret vs the oracle: re-planning hourly against a
		// 12%-per-step revision stream stays within 15% of perfect
		// foresight on the bundled trace.
		if mpc.CarbonG < oracle.CarbonG-1e-6*(1+oracle.CarbonG) {
			t.Fatalf("seed %d: MPC carbon %v beats the oracle %v — oracle broken", seed, mpc.CarbonG, oracle.CarbonG)
		}
		if mpc.CarbonG > 1.15*oracle.CarbonG {
			t.Fatalf("seed %d: MPC regret too large: %v vs oracle %v", seed, mpc.CarbonG, oracle.CarbonG)
		}
		// Determinism: the same seed replays to the identical outcome.
		again, err := Replan(lt, prov, truth, opts)
		if err != nil {
			t.Fatal(err)
		}
		if again.CarbonG != mpc.CarbonG || again.CostUSD != mpc.CostUSD || again.Plans != mpc.Plans {
			t.Fatalf("seed %d: replay differs: %v vs %v", seed, again.CarbonG, mpc.CarbonG)
		}
	}
}

func TestRobustMPCPlansAgainstPessimisticQuantile(t *testing.T) {
	lt := convexTable(0.01, 80, 120, 3000, 120)
	truth := grid.Diurnal24h()
	opts := testOptions(lt, truth)
	prov := &Revisions{Truth: truth, Seed: 2, Sigma: 0.12}
	mpc, err := Replan(lt, prov, truth, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Quantile = 0.9
	robust, err := Replan(lt, prov, truth, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !robust.Feasible {
		t.Fatal("robust MPC infeasible")
	}
	if robust.Strategy == mpc.Strategy {
		t.Fatalf("robust strategy label %q should differ", robust.Strategy)
	}
	if math.Abs(robust.Iterations-mpc.Iterations) > 1e-6*(1+opts.Target) {
		t.Fatalf("robust iterations %v != mpc %v", robust.Iterations, mpc.Iterations)
	}
}

func TestMPCExecutedIntervalAccounting(t *testing.T) {
	lt := convexTable(0.01, 80, 120, 3000, 120)
	truth := grid.Diurnal24h()
	opts := testOptions(lt, truth)
	mpc, err := Replan(lt, &Revisions{Truth: truth, Seed: 1, Sigma: 0.12}, truth, opts)
	if err != nil {
		t.Fatal(err)
	}
	var iter, energy, carbon float64
	for _, ei := range mpc.Intervals {
		var run float64
		for _, sl := range ei.Slices {
			run += sl.Seconds
		}
		if run > ei.EndS-ei.StartS+1e-6 {
			t.Fatalf("interval [%v, %v) runs %v s", ei.StartS, ei.EndS, run)
		}
		if math.Abs(ei.IdleS-(ei.EndS-ei.StartS-run)) > 1e-6 {
			t.Fatalf("interval idle %v, want %v", ei.IdleS, ei.EndS-ei.StartS-run)
		}
		// Realized carbon matches an independent accrual of the slices.
		var want float64
		at := ei.StartS
		for _, sl := range ei.Slices {
			_, c, _ := grid.Accrue(truth, at, at+sl.Seconds, lt.AvgPower(sl.Point))
			want += c
			at += sl.Seconds
		}
		if math.Abs(ei.CarbonG-want) > 1e-6*(1+want) {
			t.Fatalf("interval [%v, %v) carbon %v, want %v", ei.StartS, ei.EndS, ei.CarbonG, want)
		}
		iter += ei.Iterations
		energy += ei.EnergyJ
		carbon += ei.CarbonG
	}
	if math.Abs(iter-mpc.Iterations) > 1e-6*(1+mpc.Iterations) ||
		math.Abs(energy-mpc.EnergyJ) > 1e-6*(1+mpc.EnergyJ) ||
		math.Abs(carbon-mpc.CarbonG) > 1e-6*(1+mpc.CarbonG) {
		t.Fatalf("totals do not add up: %v/%v, %v/%v, %v/%v",
			iter, mpc.Iterations, energy, mpc.EnergyJ, carbon, mpc.CarbonG)
	}
	if mpc.FinishS < 0 || mpc.FinishS > opts.DeadlineS+1e-9 {
		t.Fatalf("finish %v outside [0, deadline]", mpc.FinishS)
	}
}

func TestMPCModelProvidersCompleteTarget(t *testing.T) {
	lt := convexTable(0.01, 80, 120, 3000, 120)
	truth := grid.Diurnal24h()
	opts := testOptions(lt, truth)
	for _, name := range []string{"persistence", "seasonal", "smoothed"} {
		m, err := ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Replan(lt, &FromHistory{Truth: truth, Model: m}, truth, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !out.Feasible {
			t.Fatalf("%s: MPC run infeasible", name)
		}
	}
}

// tailRevised wraps a base provider and, from the first re-plan on,
// perturbs every forecast interval at or past ReviseFromS — a tail-only
// revision: the remaining planning window before that point is
// untouched.
type tailRevised struct {
	Base        Provider
	ReviseFromS float64
}

func (p *tailRevised) Name() string { return p.Base.Name() + "/tail-revised" }

func (p *tailRevised) At(t float64) (*Forecast, error) {
	f, err := p.Base.At(t)
	if err != nil {
		return nil, err
	}
	if t == 0 {
		return f, nil
	}
	factor := 1.5 + t/1e7 // a fresh revision at every tick
	for i := range f.Signal.Intervals {
		iv := &f.Signal.Intervals[i]
		if iv.StartS >= p.ReviseFromS {
			iv.CarbonGPerKWh *= factor
			f.Carbon[i].Lo *= factor
			f.Carbon[i].Hi *= factor
		}
	}
	return f, nil
}

// TestMPCWarmStartsOnUnchangedForecast pins the warm-start contract:
// with perfect foresight every re-plan tick sees the identical window,
// so the controller plans exactly once and reuses the running plan's
// suffix at every later tick — and the realized outcome still matches
// the oracle.
func TestMPCWarmStartsOnUnchangedForecast(t *testing.T) {
	lt := convexTable(0.01, 80, 120, 3000, 120)
	truth := grid.Diurnal24h()
	opts := testOptions(lt, truth)
	oracle, err := Oracle(lt, truth, opts)
	if err != nil {
		t.Fatal(err)
	}
	mpc, err := Replan(lt, &Perfect{Truth: truth}, truth, opts)
	if err != nil {
		t.Fatal(err)
	}
	if mpc.Plans != 1 {
		t.Fatalf("perfect-foresight MPC planned %d times, want 1 (all warm)", mpc.Plans)
	}
	if mpc.WarmStarts == 0 {
		t.Fatal("perfect-foresight MPC took no warm starts")
	}
	if math.Abs(mpc.CarbonG-oracle.CarbonG) > 1e-6*(1+oracle.CarbonG) {
		t.Fatalf("warm-started MPC carbon %v != oracle %v", mpc.CarbonG, oracle.CarbonG)
	}
	if math.Abs(mpc.Iterations-opts.Target) > 1e-6*(1+opts.Target) {
		t.Fatalf("warm-started MPC iterations %v != target %v", mpc.Iterations, opts.Target)
	}
}

// TestMPCWarmStartTailOnlyRevision pins the sharper claim: a revision
// that only touches intervals past the planning deadline keeps the
// warm path, while the same revision inside the window forces a cold
// re-plan.
func TestMPCWarmStartTailOnlyRevision(t *testing.T) {
	lt := convexTable(0.01, 80, 120, 3000, 120)
	truth := grid.Diurnal24h()
	opts := testOptions(lt, truth)
	opts.Target *= 0.5
	opts.DeadlineS = 12 * 3600 // plan over half the trace

	// Forecast covers the full day but revisions only touch hours past
	// the deadline: every tick takes the warm path.
	warm, err := Replan(lt, &tailRevised{
		Base:        &Perfect{Truth: truth},
		ReviseFromS: opts.DeadlineS,
	}, truth, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Plans != 1 || warm.WarmStarts == 0 {
		t.Fatalf("tail-only revision: plans %d, warm starts %d; want 1 plan, all ticks warm",
			warm.Plans, warm.WarmStarts)
	}

	// The same revision biting one hour inside the window: cold from
	// the first re-plan on.
	cold, err := Replan(lt, &tailRevised{
		Base:        &Perfect{Truth: truth},
		ReviseFromS: opts.DeadlineS - 3600,
	}, truth, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.WarmStarts != 0 {
		t.Fatalf("in-window revision still took %d warm starts", cold.WarmStarts)
	}
	if cold.Plans < 2 {
		t.Fatalf("in-window revision planned %d times, want a re-plan per tick", cold.Plans)
	}
}

// TestStepperReplanOnlyReadsForecast pins what lets the server hand one
// issued forecast to every schedule of a controller tick: steppers with
// different quantiles, objectives and targets plan and execute from the
// same *Forecast — and, per quantile, from the same view and the same
// re-based window — concurrently (-race flags any write to them); the
// forecast, views and windows equal fresh copies afterwards, and each
// stepper's result equals the one it gets from signals of its own.
func TestStepperReplanOnlyReadsForecast(t *testing.T) {
	truth := grid.Diurnal24h()
	lt := convexTable(0.01, 60, 75, 3000, 200)
	prov := &Revisions{Truth: truth, Seed: 5, Sigma: 0.2}
	steppers := func() []*Stepper {
		var out []*Stepper
		for k, q := range []float64{0, 0.9, 0, 0.8} {
			obj := grid.ObjectiveCarbon
			if k%2 == 1 {
				obj = grid.ObjectiveCost
			}
			out = append(out, NewStepper(lt, truth, Options{
				Target:    (0.3 + 0.1*float64(k)) * truth.Horizon() / lt.TStar(),
				DeadlineS: truth.Horizon(), Objective: obj, Quantile: q,
			}, 0))
		}
		return out
	}
	// Each solve here uses its own solver; what the shared side shares
	// is the forecast, one view per quantile and one window per view.
	solveOn := func(st *Stepper, window func(view *grid.Signal, from, to float64) *grid.Signal) func(*grid.Signal, float64, float64, float64) (*grid.Plan, *grid.Signal, error) {
		return func(view *grid.Signal, from, to, target float64) (*grid.Plan, *grid.Signal, error) {
			win := window(view, from, to)
			p, err := grid.Optimize(st.Table, win, grid.Options{Target: target, Objective: st.Objective, PowerScale: st.Scale})
			return p, win, err
		}
	}
	shared, own := steppers(), steppers()
	for _, at := range []float64{0, 3600, 7200} {
		fc, err := prov.At(at)
		if err != nil {
			t.Fatal(err)
		}
		pristine, err := prov.At(at)
		if err != nil {
			t.Fatal(err)
		}
		views := map[float64]*grid.Signal{}
		for _, st := range shared {
			if views[st.Quantile] == nil {
				views[st.Quantile] = fc.At(st.Quantile)
			}
		}
		var mu sync.Mutex
		windows := map[*grid.Signal]*grid.Signal{}
		sharedWindow := func(view *grid.Signal, from, to float64) *grid.Signal {
			mu.Lock()
			defer mu.Unlock()
			if windows[view] == nil {
				windows[view] = Window(view, from, to)
			}
			return windows[view]
		}
		var wg sync.WaitGroup
		for _, st := range shared {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st.ExecuteTo(at)
				if _, err := st.Replan(fc, views[st.Quantile], solveOn(st, sharedWindow)); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if len(windows) != len(views) {
			t.Fatalf("issue at %v: %d windows for %d views at one (from, to)", at, len(windows), len(views))
		}
		for q, view := range views {
			if !reflect.DeepEqual(view, pristine.At(q)) || !reflect.DeepEqual(windows[view], Window(pristine.At(q), at, truth.Horizon())) {
				t.Fatalf("issue at %v: the shared view or window at q=%v changed under its steppers", at, q)
			}
		}
		if !reflect.DeepEqual(fc, pristine) {
			t.Fatalf("issue at %v: the shared forecast changed under its steppers", at)
		}
		for k, st := range own {
			if shared[k].View() != views[st.Quantile] {
				t.Fatalf("issue at %v: stepper %d does not hold the shared view it planned on", at, k)
			}
			mine, err := prov.At(at)
			if err != nil {
				t.Fatal(err)
			}
			st.ExecuteTo(at)
			if _, err := st.Replan(mine, mine.At(st.Quantile), solveOn(st, Window)); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(st.Plan, shared[k].Plan) || !reflect.DeepEqual(st.Intervals, shared[k].Intervals) {
				t.Fatalf("issue at %v: stepper %d planned differently from a shared forecast", at, k)
			}
		}
	}
}
