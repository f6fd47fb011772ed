package plan_test

import (
	"math"
	"testing"

	"perseus/internal/forecast"
	"perseus/internal/frontier"
	"perseus/internal/grid"
	"perseus/internal/plan"
	"perseus/internal/region"
)

func TestParseObjective(t *testing.T) {
	for s, want := range map[string]plan.Objective{
		"":       plan.ObjectiveCarbon,
		"carbon": plan.ObjectiveCarbon,
		"cost":   plan.ObjectiveCost,
		"energy": plan.ObjectiveEnergy,
	} {
		got, err := plan.ParseObjective(s)
		if err != nil || got != want {
			t.Errorf("ParseObjective(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := plan.ParseObjective("vibes"); err == nil {
		t.Error("unknown objective accepted")
	}
}

func TestRequestValidate(t *testing.T) {
	good := plan.Request{Target: 10, DeadlineS: 100, Quantile: 0.9}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, req := range map[string]plan.Request{
		"zero target":      {},
		"negative target":  {Target: -1},
		"infinite target":  {Target: math.Inf(1)},
		"NaN deadline":     {Target: 1, DeadlineS: math.NaN()},
		"infinite dl":      {Target: 1, DeadlineS: math.Inf(1)},
		"negative dl":      {Target: 1, DeadlineS: -1},
		"bad objective":    {Target: 1, Objective: "vibes"},
		"quantile too big": {Target: 1, Quantile: 1},
		"quantile < 0":     {Target: 1, Quantile: -0.1},
	} {
		if err := req.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestResolveDeadline(t *testing.T) {
	r := plan.Request{Target: 1}
	if d, err := r.ResolveDeadline(3600); err != nil || d != 3600 {
		t.Fatalf("default deadline = %v, %v", d, err)
	}
	r.DeadlineS = 1800
	if d, err := r.ResolveDeadline(3600); err != nil || d != 1800 {
		t.Fatalf("explicit deadline = %v, %v", d, err)
	}
	r.DeadlineS = 3601
	if _, err := r.ResolveDeadline(3600); err == nil {
		t.Fatal("deadline beyond horizon accepted")
	}
}

func TestRequestDefaults(t *testing.T) {
	var r plan.Request
	if r.Scale() != 1 {
		t.Errorf("zero PowerScale should resolve to 1, got %v", r.Scale())
	}
	if r.PlanQuantile() != 0.5 {
		t.Errorf("zero Quantile should resolve to 0.5, got %v", r.PlanQuantile())
	}
	r.PowerScale, r.Quantile = 4, 0.9
	if r.Scale() != 4 || r.PlanQuantile() != 0.9 {
		t.Errorf("explicit values not preserved: %v, %v", r.Scale(), r.PlanQuantile())
	}
}

func TestAccount(t *testing.T) {
	a := plan.Account{EnergyJ: 1, CarbonG: 2, CostUSD: 3}
	a.Accumulate(plan.Account{EnergyJ: 10, CarbonG: 20, CostUSD: 30})
	if a.EnergyJ != 11 || a.CarbonG != 22 || a.CostUSD != 33 {
		t.Fatalf("accumulate: %+v", a)
	}
	for obj, want := range map[plan.Objective]float64{
		plan.ObjectiveEnergy: 11,
		plan.ObjectiveCarbon: 22,
		plan.ObjectiveCost:   33,
		"":                   22, // default = carbon
	} {
		if got := a.Total(obj); got != want {
			t.Errorf("Total(%q) = %v, want %v", obj, got, want)
		}
	}
	p := plan.Predicted{PredCarbonG: 1, PredCostUSD: 2}
	p.Accumulate(plan.Predicted{PredCarbonG: 3, PredCostUSD: 4})
	if p.PredCarbonG != 4 || p.PredCostUSD != 6 {
		t.Fatalf("predicted accumulate: %+v", p)
	}
}

// convexTable builds a small convex E(t) frontier table, the family
// every solver's optimality argument assumes.
func convexTable() *frontier.LookupTable {
	lt := &frontier.LookupTable{Unit: 0.01, TminUnits: 80, TStarUnits: 120}
	for u := int64(80); u <= 120; u++ {
		t := float64(u) * lt.Unit
		lt.Points = append(lt.Points, frontier.TablePoint{
			TimeUnits: u, Energy: 3000 + 120/t,
		})
	}
	return lt
}

func flatSignal(name string, carbon float64) *grid.Signal {
	s := &grid.Signal{Name: name}
	for k := 0; k < 4; k++ {
		s.Intervals = append(s.Intervals, grid.Interval{
			StartS: float64(k) * 900, EndS: float64(k+1) * 900,
			CarbonGPerKWh: carbon, PriceUSDPerKWh: 0.1,
		})
	}
	return s
}

// TestLayersAgreeOnOneRegion checks the layers that share this
// package's request rules on the one problem they all can solve — one
// job, one region, an easy target: the temporal planner, the joint
// region planner and the forecast MPC controller under perfect
// foresight all complete the target with a non-empty account, the
// temporal and region planners realize the same carbon, and each
// rejects a negative target.
func TestLayersAgreeOnOneRegion(t *testing.T) {
	lt := convexTable()
	sig := flatSignal("flat", 300)
	target := 0.5 * sig.Horizon() / lt.TStar()
	regions := []region.Region{{Name: "a", Signal: sig}}

	g, err := grid.Optimize(lt, sig, grid.Options{Target: target})
	if err != nil {
		t.Fatal(err)
	}
	r, err := region.Optimize(regions, []region.Job{{ID: "train", Table: lt, Target: target}}, region.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := forecast.Replan(lt, &forecast.Perfect{Truth: sig}, sig, plan.Request{Target: target})
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []struct {
		layer      string
		feasible   bool
		iterations float64
		account    plan.Account
	}{
		{"grid", g.Feasible, g.Iterations, g.Account},
		{"region", r.Feasible, r.Jobs[0].Temporal.Iterations, r.Account},
		{"forecast-mpc", f.Feasible, f.Iterations, f.Account},
	} {
		if !got.feasible || math.Abs(got.iterations-target) > 1e-6*(1+target) {
			t.Errorf("%s: feasible %v, iterations %v; want %v", got.layer, got.feasible, got.iterations, target)
		}
		if got.account.EnergyJ <= 0 || got.account.CarbonG <= 0 || got.account.CostUSD <= 0 {
			t.Errorf("%s: empty account %+v", got.layer, got.account)
		}
	}
	if math.Abs(g.CarbonG-r.CarbonG) > 1e-6*(1+g.CarbonG) {
		t.Errorf("grid %v vs region %v carbon on the same problem", g.CarbonG, r.CarbonG)
	}

	if _, err := grid.Optimize(lt, sig, grid.Options{Target: -1}); err == nil {
		t.Error("grid: negative target accepted")
	}
	if _, err := region.Optimize(regions, []region.Job{{ID: "train", Table: lt, Target: -1}}, region.Options{}); err == nil {
		t.Error("region: negative target accepted")
	}
	if _, err := forecast.Replan(lt, &forecast.Perfect{Truth: sig}, sig, plan.Request{Target: -1}); err == nil {
		t.Error("forecast-mpc: negative target accepted")
	}
}
