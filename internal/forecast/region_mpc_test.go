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

// revisionsOn puts a Revisions provider (σ 0.15, one seed per region)
// on every region of pair.
func revisionsOn(pair []region.Region, seed int64) []ForecastRegion {
	regs := make([]ForecastRegion, len(pair))
	for i, r := range pair {
		regs[i] = ForecastRegion{Region: r, Provider: &Revisions{
			Truth: r.Signal, Seed: seed + int64(i)*100, Sigma: 0.15,
		}}
	}
	return regs
}

// regionSetup is one multi-region scenario the parity golden and the
// feasibility sweep run.
type regionSetup struct {
	name string
	pair []region.Region
	jobs []region.Job
	opts RegionOptions
}

// regionSetups lists them: regionTestSetup's job; that job with a
// second one starting in east; and the two on 1-GPU regions, contending
// for them, with 5 h transfers, so a transfer in flight crosses
// re-plans.
func regionSetups() []regionSetup {
	pair, one, opts := regionTestSetup()
	two := append(one[:1:1], region.Job{
		ID: "eval", Table: one[0].Table, Origin: pair[1].Name,
		Target: 0.7 * one[0].Target, PowerScale: 2,
	})
	narrow := coarsePair()
	for i := range narrow {
		narrow[i].GPUs = 1
	}
	slow := opts
	slow.Migration.DowntimeS = 5 * 3600
	return []regionSetup{
		{"region/1job", pair, one, opts},
		{"region/2jobs", pair, two, opts},
		{"region/2jobs/1gpu/transfer5h", narrow, two, slow},
	}
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
		regs := revisionsOn(pair, seed)
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

// TestRegionMPCRobustQuantile pins what robust-quantile re-planning
// buys on the bundled pair. The rolling-horizon controller on the point
// forecast hesitates — at each re-plan the shrinking remaining window
// understates a move's value, so it can decline a migration a lucky
// plan-once committed to early and lose to it per-seed (up to ~7%).
// Planning on the 0.7-quantile, every bundled seed is at parity with
// plan-once (within 0.5%) or strictly better, and the aggregate is
// strictly better, with every re-plan pricing the real migration cost.
func TestRegionMPCRobustQuantile(t *testing.T) {
	pair, jobs, opts := regionTestSetup()
	robust := opts
	robust.PlanQuantile = 0.7

	var sumOnce, sumMPC float64
	hesitated := false
	for seed := int64(1); seed <= 6; seed++ {
		regs := revisionsOn(pair, seed)
		once, err := PlanOnceRegions(regs, jobs, opts)
		if err != nil {
			t.Fatal(err)
		}
		mpc, err := ReplanRegions(regs, jobs, robust)
		if err != nil {
			t.Fatal(err)
		}
		if !once.Feasible || !mpc.Feasible {
			t.Fatalf("seed %d: plan-once feasible=%v, robust mpc feasible=%v", seed, once.Feasible, mpc.Feasible)
		}
		// Equal iterations completed.
		if math.Abs(once.Jobs[0].Iterations-mpc.Jobs[0].Iterations) > 1e-6*(1+jobs[0].Target) {
			t.Fatalf("seed %d: iterations differ: %v vs %v", seed, once.Jobs[0].Iterations, mpc.Jobs[0].Iterations)
		}
		// Per-seed parity or better.
		if mpc.CarbonG > once.CarbonG*1.005 {
			t.Fatalf("seed %d: robust MPC %v g loses to plan-once %v g beyond the parity band",
				seed, mpc.CarbonG, once.CarbonG)
		}
		sumOnce += once.CarbonG
		sumMPC += mpc.CarbonG

		// Document the hesitation: a seed where the point-forecast
		// controller declined every migration and realized more carbon,
		// while the robust one moved.
		raw, err := ReplanRegions(regs, jobs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if raw.Jobs[0].Migrations == 0 && mpc.Jobs[0].Migrations > 0 && raw.CarbonG > mpc.CarbonG {
			hesitated = true
		}
	}
	if !(sumMPC < sumOnce) {
		t.Fatalf("robust MPC aggregate %v not strictly below plan-once %v", sumMPC, sumOnce)
	}
	if !hesitated {
		t.Fatal("no seed exhibited the hesitation the robust quantile overcomes — the scenario no longer exercises it")
	}
}

// TestRegionMPCFeasibleWherePlanOnce holds the region controller to the
// plan it makes: on the parity golden's three setups, at the point
// forecast and the 0.7-quantile, over revisions seeds 1–30, MPC
// completes every job wherever plan-once does. A re-plan that budgeted
// less idle than a transfer takes, or did not see one still in flight,
// would plan work the transfer then covers, late in the run with no
// span left to make it up.
func TestRegionMPCFeasibleWherePlanOnce(t *testing.T) {
	for _, su := range regionSetups() {
		for _, q := range []float64{0.5, 0.7} {
			opts := su.opts
			opts.PlanQuantile = q
			for seed := int64(1); seed <= 30; seed++ {
				regs := revisionsOn(su.pair, seed)
				once, err := PlanOnceRegions(regs, su.jobs, opts)
				if err != nil {
					t.Fatal(err)
				}
				mpc, err := ReplanRegions(regs, su.jobs, opts)
				if err != nil {
					t.Fatal(err)
				}
				if once.Feasible && !mpc.Feasible {
					for _, jo := range mpc.Jobs {
						t.Logf("%s: %v of its target, path %v", jo.JobID, jo.Iterations, jo.Path)
					}
					t.Errorf("%s q%v revisions%d: plan-once finishes, MPC does not", su.name, q, seed)
				}
			}
		}
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
// paused across the re-plan boundary — the fresh plan sees the rest of
// the transfer as the job's PausedUntilS and idles through it.
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
