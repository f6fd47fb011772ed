package forecast

import (
	"math"
	"strings"
	"testing"

	"perseus/internal/grid"
	"perseus/internal/region"
)

// coarsePair is the bundled multi-region MPC scenario: the
// PhaseShiftedPair truth traces coarsened to 6 four-hour cells each,
// keeping every re-plan's joint placement search tractable.
func coarsePair() []region.Region {
	pair := region.PhaseShiftedPair(0)
	for i := range pair {
		pair[i].Signal = Coarsen(pair[i].Signal, 6)
	}
	return pair
}

func regionTestSetup() ([]region.Region, []region.Job, RegionOptions) {
	lt := convexTable(0.01, 80, 120, 3000, 120)
	pair := coarsePair()
	jobs := []region.Job{{
		ID: "train", Table: lt,
		Target: 0.5 * pair[0].Signal.Horizon() / lt.TStar(),
	}}
	opts := RegionOptions{
		Objective: grid.ObjectiveCarbon,
		Migration: region.MigrationCost{DowntimeS: 600, EnergyJ: 5e6},
	}
	return pair, jobs, opts
}

func TestRegionOracleChasesValleys(t *testing.T) {
	pair, jobs, opts := regionTestSetup()
	oracle, err := OracleRegions(pair, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !oracle.Feasible {
		t.Fatal("oracle infeasible")
	}
	if oracle.Plans != 1 {
		t.Fatalf("oracle plans %d, want 1", oracle.Plans)
	}
	// Perfect foresight on the phase-shifted pair: predicted equals
	// realized.
	if math.Abs(oracle.PredCarbonG-oracle.CarbonG) > 1e-6*(1+oracle.CarbonG) {
		t.Fatalf("oracle predicted %v != realized %v", oracle.PredCarbonG, oracle.CarbonG)
	}
}

// TestRegionOptionsValidated pins the single-region controller's request
// rules on the multi-region options: every bad value is rejected by
// every entry point with an error naming its field. The infinite
// deadline comes last: unchecked, the oracle extends its truth traces
// to it until memory runs out, and the re-planner never returns.
func TestRegionOptionsValidated(t *testing.T) {
	pair, jobs, good := regionTestSetup()
	regs := make([]ForecastRegion, len(pair))
	for i, r := range pair {
		regs[i] = ForecastRegion{Region: r, Provider: &Perfect{Truth: r.Signal}}
	}
	for _, tc := range []struct {
		field string
		edit  func(*RegionOptions)
	}{
		{"PlanQuantile", func(o *RegionOptions) { o.PlanQuantile = math.NaN() }},
		{"PlanQuantile", func(o *RegionOptions) { o.PlanQuantile = -0.3 }},
		{"PlanQuantile", func(o *RegionOptions) { o.PlanQuantile = 1.5 }},
		{"HysteresisMargin", func(o *RegionOptions) { o.HysteresisMargin = math.NaN() }},
		{"HysteresisMargin", func(o *RegionOptions) { o.HysteresisMargin = -2 }},
		{"HysteresisMargin", func(o *RegionOptions) { o.HysteresisMargin = math.Inf(1) }},
		{"DeadlineS", func(o *RegionOptions) { o.DeadlineS = math.NaN() }},
		{"DeadlineS", func(o *RegionOptions) { o.DeadlineS = -1 }},
		{"DeadlineS", func(o *RegionOptions) { o.DeadlineS = math.Inf(1) }},
	} {
		opts := good
		tc.edit(&opts)
		for name, run := range map[string]func() (*RegionOutcome, error){
			"ReplanRegions":   func() (*RegionOutcome, error) { return ReplanRegions(regs, jobs, opts) },
			"PlanOnceRegions": func() (*RegionOutcome, error) { return PlanOnceRegions(regs, jobs, opts) },
			"OracleRegions":   func() (*RegionOutcome, error) { return OracleRegions(pair, jobs, opts) },
		} {
			_, err := run()
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s with %+v: error %v, want one naming %s", name, opts, err, tc.field)
			}
		}
	}
}

func TestRegionMPCUnderRevisions(t *testing.T) {
	pair, jobs, opts := regionTestSetup()
	oracle, err := OracleRegions(pair, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed int64) []ForecastRegion {
		regs := make([]ForecastRegion, len(pair))
		for i, r := range pair {
			regs[i] = ForecastRegion{Region: r, Provider: &Revisions{
				Truth: r.Signal, Seed: seed + int64(i)*100, Sigma: 0.15,
			}}
		}
		return regs
	}
	// Unlike the single-signal controller, per-seed dominance over
	// plan-once is not guaranteed here: migration is a switching cost,
	// so a re-planner can rationally decline a move a lucky plan-once
	// committed to early. The bundled claim is aggregate: across the
	// bundled seeds MPC realizes strictly less carbon, and each run
	// stays within a bounded regret of the perfect-foresight joint plan
	// (the outer placement search carries its own measured 15% bound
	// on top of forecast-error regret).
	var sumOnce, sumMPC float64
	for seed := int64(1); seed <= 6; seed++ {
		regs := mk(seed)
		once, err := PlanOnceRegions(regs, jobs, opts)
		if err != nil {
			t.Fatal(err)
		}
		mpc, err := ReplanRegions(regs, jobs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !once.Feasible || !mpc.Feasible {
			t.Fatalf("seed %d: plan-once feasible=%v, mpc feasible=%v", seed, once.Feasible, mpc.Feasible)
		}
		// Equal iterations completed.
		if math.Abs(once.Jobs[0].Iterations-mpc.Jobs[0].Iterations) > 1e-6*(1+jobs[0].Target) {
			t.Fatalf("seed %d: iterations differ: %v vs %v", seed, once.Jobs[0].Iterations, mpc.Jobs[0].Iterations)
		}
		if mpc.CarbonG > 1.25*oracle.CarbonG {
			t.Fatalf("seed %d: regret too large: mpc %v vs oracle %v", seed, mpc.CarbonG, oracle.CarbonG)
		}
		sumOnce += once.CarbonG
		sumMPC += mpc.CarbonG
		// Determinism.
		again, err := ReplanRegions(regs, jobs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if again.CarbonG != mpc.CarbonG || again.Plans != mpc.Plans {
			t.Fatalf("seed %d: replay differs", seed)
		}
	}
	if !(sumMPC < sumOnce) {
		t.Fatalf("MPC aggregate carbon %v not strictly below plan-once %v", sumMPC, sumOnce)
	}
}

// TestRegionMPCHysteresisMargin pins the switching-cost-aware rule the
// ROADMAP asked for: the raw rolling-horizon controller hesitates — at
// each re-plan the shrinking remaining window understates a move's
// value, so it can decline a migration a lucky plan-once committed to
// early and lose to it per-seed (up to ~7% on the bundled pair). With
// the hysteresis margin scaling the re-planner's view of migration
// cost (0.5: savings need only clear half the real cost, counteracting
// the myopia) plus the robust 0.7-quantile, every bundled seed is at
// parity with plan-once (within 0.5%) or strictly better, and the
// aggregate is strictly better — while execution still charges the
// real migration cost and idles the real transfer window.
func TestRegionMPCHysteresisMargin(t *testing.T) {
	pair, jobs, opts := regionTestSetup()
	mk := func(seed int64) []ForecastRegion {
		regs := make([]ForecastRegion, len(pair))
		for i, r := range pair {
			regs[i] = ForecastRegion{Region: r, Provider: &Revisions{
				Truth: r.Signal, Seed: seed + int64(i)*100, Sigma: 0.15,
			}}
		}
		return regs
	}
	damped := opts
	damped.HysteresisMargin = 0.5
	damped.PlanQuantile = 0.7

	var sumOnce, sumMPC float64
	hesitated := false
	for seed := int64(1); seed <= 6; seed++ {
		regs := mk(seed)
		once, err := PlanOnceRegions(regs, jobs, opts)
		if err != nil {
			t.Fatal(err)
		}
		mpc, err := ReplanRegions(regs, jobs, damped)
		if err != nil {
			t.Fatal(err)
		}
		if !once.Feasible || !mpc.Feasible {
			t.Fatalf("seed %d: plan-once feasible=%v, damped mpc feasible=%v", seed, once.Feasible, mpc.Feasible)
		}
		// Equal iterations completed: the margin is a planning-time
		// view only, execution still pays real downtime and energy.
		if math.Abs(once.Jobs[0].Iterations-mpc.Jobs[0].Iterations) > 1e-6*(1+jobs[0].Target) {
			t.Fatalf("seed %d: iterations differ: %v vs %v", seed, once.Jobs[0].Iterations, mpc.Jobs[0].Iterations)
		}
		// Per-seed parity or better.
		if mpc.CarbonG > once.CarbonG*1.005 {
			t.Fatalf("seed %d: damped MPC %v g loses to plan-once %v g beyond the parity band",
				seed, mpc.CarbonG, once.CarbonG)
		}
		sumOnce += once.CarbonG
		sumMPC += mpc.CarbonG

		// Document the pathology the margin fixes: wherever the raw
		// controller declined every migration and realized more carbon,
		// the damped controller moved.
		raw, err := ReplanRegions(regs, jobs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if raw.Jobs[0].Migrations == 0 && mpc.Jobs[0].Migrations > 0 && raw.CarbonG > mpc.CarbonG {
			hesitated = true
		}
	}
	if !(sumMPC < sumOnce) {
		t.Fatalf("damped MPC aggregate %v not strictly below plan-once %v", sumMPC, sumOnce)
	}
	if !hesitated {
		t.Fatal("no seed exhibited the hesitation the margin exists to fix — the scenario no longer exercises it")
	}
}

func TestRegionMPCChargesMigrationFromOrigin(t *testing.T) {
	pair, jobs, opts := regionTestSetup()
	// Start the job in the region whose valley comes second: a planner
	// that moves it must be charged for the move.
	jobs[0].Origin = pair[1].Name
	regs := make([]ForecastRegion, len(pair))
	for i, r := range pair {
		regs[i] = ForecastRegion{Region: r, Provider: &Perfect{Truth: r.Signal}}
	}
	out, err := ReplanRegions(regs, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Feasible {
		t.Fatal("infeasible")
	}
	moved := false
	for _, p := range out.Jobs[0].Path {
		if p != "" && p != pair[1].Name {
			moved = true
		}
	}
	if moved && out.Jobs[0].Migrations == 0 {
		t.Fatal("job left its origin region without a charged migration")
	}
	if out.Jobs[0].Migrations > 0 && out.Jobs[0].TransferJ <= 0 {
		t.Fatalf("migrations %d charged no transfer energy", out.Jobs[0].Migrations)
	}
}

// TestRegionMPCDowntimeSurvivesReplan pins the carry-over rule: a
// checkpoint transfer longer than the decision interval keeps the job
// paused across the re-plan boundary — the fresh plan only knows the
// new Origin, so execution must keep idling through the residue.
func TestRegionMPCDowntimeSurvivesReplan(t *testing.T) {
	lt := convexTable(0.01, 80, 120, 3000, 120)
	flat := func(name string, carbon float64) *grid.Signal {
		s := &grid.Signal{Name: name}
		for k := 0; k < 6; k++ {
			s.Intervals = append(s.Intervals, grid.Interval{
				StartS: float64(k) * 300, EndS: float64(k+1) * 300,
				CarbonGPerKWh: carbon, PriceUSDPerKWh: 0.1,
			})
		}
		return s
	}
	regions := []region.Region{
		// The origin region's cap excludes every point: the job must
		// migrate to make any progress at all.
		{Name: "dead", Signal: flat("dead", 500), CapW: 1e-9},
		{Name: "live", Signal: flat("live", 100)},
	}
	regs := make([]ForecastRegion, len(regions))
	for i, r := range regions {
		regs[i] = ForecastRegion{Region: r, Provider: &Perfect{Truth: r.Signal}}
	}
	horizon := 1800.0
	downtime := 600.0 // spans two 300 s decision intervals
	jobs := []region.Job{{
		ID: "train", Table: lt, Origin: "dead",
		// More work than fits after the transfer: honest execution must
		// come up short.
		Target: 1600,
	}}
	out, err := ReplanRegions(regs, jobs, RegionOptions{
		Objective: grid.ObjectiveCarbon,
		Migration: region.MigrationCost{DowntimeS: downtime, EnergyJ: 1e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Jobs[0].Migrations < 1 {
		t.Fatal("job never escaped the dead region")
	}
	// Physical bound: at most (horizon − downtime)/Tmin iterations can
	// really run; executing during the transfer residue would exceed it.
	bound := (horizon - downtime) / lt.Tmin()
	if out.Jobs[0].Iterations > bound+1e-6*bound {
		t.Fatalf("realized %v iterations > physical bound %v: job worked during its checkpoint transfer",
			out.Jobs[0].Iterations, bound)
	}
	if out.Feasible {
		t.Fatal("target beyond the post-transfer capacity cannot be feasible")
	}
}
