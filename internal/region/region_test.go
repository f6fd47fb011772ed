package region

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"perseus/internal/frontier"
	"perseus/internal/grid"
)

// convexTable hand-builds a lookup table with E(t) = a + b/t on a unit
// grid — the same convex family internal/grid and internal/fleet verify
// their planners on.
func convexTable(unit float64, tminU, tstarU int64, a, b float64) *frontier.LookupTable {
	lt := &frontier.LookupTable{Unit: unit, TminUnits: tminU, TStarUnits: tstarU}
	for u := tminU; u <= tstarU; u++ {
		t := float64(u) * unit
		lt.Points = append(lt.Points, frontier.TablePoint{TimeUnits: u, Energy: a + b/t})
	}
	return lt
}

// compile is compileInto on fresh buffers and the regions' own rates.
func compile(regions []Region, cells []Cell, placement []int, origin int, mig MigrationCost, capOverride func(region, cell int) float64) (*grid.Signal, migSummary, []int) {
	return compileInto(&compileScratch{}, cells, rateTable(regions, cells), placement, origin, 0, mig, capOverride)
}

// flatSignal builds a constant-rate signal over [0, dur).
func flatSignal(name string, dur, carbon, price float64) *grid.Signal {
	return &grid.Signal{Name: name, Intervals: []grid.Interval{
		{StartS: 0, EndS: dur, CarbonGPerKWh: carbon, PriceUSDPerKWh: price},
	}}
}

func TestValidateErrors(t *testing.T) {
	lt := convexTable(0.01, 80, 84, 3000, 120)
	good := []Region{{Name: "a", Signal: flatSignal("a", 3600, 300, 0.1)}}
	goodJob := Job{ID: "j", Table: lt, Target: 10}
	cases := []struct {
		name    string
		regions []Region
		jobs    []Job
		opts    Options
	}{
		{"no regions", nil, []Job{goodJob}, Options{}},
		{"unnamed region", []Region{{Signal: flatSignal("", 10, 1, 1)}}, []Job{goodJob}, Options{}},
		{"dup region", append(append([]Region(nil), good...), good...), []Job{goodJob}, Options{}},
		{"nil signal", []Region{{Name: "a"}}, []Job{goodJob}, Options{}},
		{"bad signal", []Region{{Name: "a", Signal: &grid.Signal{}}}, []Job{goodJob}, Options{}},
		{"bad cap", []Region{{Name: "a", Signal: flatSignal("a", 10, 1, 1), CapW: math.NaN()}}, []Job{goodJob}, Options{}},
		{"no jobs", good, nil, Options{}},
		{"unnamed job", good, []Job{{Table: lt, Target: 1}}, Options{}},
		{"dup job", good, []Job{goodJob, goodJob}, Options{}},
		{"no table", good, []Job{{ID: "j", Target: 1}}, Options{}},
		{"bad target", good, []Job{{ID: "j", Table: lt, Target: -1}}, Options{}},
		{"bad deadline", good, []Job{{ID: "j", Table: lt, Target: 1, DeadlineS: -3}}, Options{}},
		{"inf deadline", good, []Job{{ID: "j", Table: lt, Target: 1, DeadlineS: math.Inf(1)}}, Options{}},
		{"nan pause", good, []Job{{ID: "j", Table: lt, Target: 1, PausedUntilS: math.NaN()}}, Options{}},
		{"negative pause", good, []Job{{ID: "j", Table: lt, Target: 1, PausedUntilS: -1}}, Options{}},
		{"inf pause", good, []Job{{ID: "j", Table: lt, Target: 1, PausedUntilS: math.Inf(1)}}, Options{}},
		{"pause past downtime", good, []Job{{ID: "j", Table: lt, Target: 1, PausedUntilS: 61}}, Options{Migration: MigrationCost{DowntimeS: 60}}},
		{"bad migration", good, []Job{goodJob}, Options{Migration: MigrationCost{DowntimeS: -1}}},
		{"bad objective", good, []Job{goodJob}, Options{Objective: "vibes"}},
	}
	for _, tc := range cases {
		if _, err := Optimize(tc.regions, tc.jobs, tc.opts); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if _, err := Fixed(good, []Job{goodJob}, "nope", Options{}); err == nil {
		t.Error("unknown fixed region should error")
	}
}

func TestCommonGridMergesBoundaries(t *testing.T) {
	a := &grid.Signal{Intervals: []grid.Interval{
		{StartS: 0, EndS: 600}, {StartS: 600, EndS: 1200},
	}}
	b := &grid.Signal{Intervals: []grid.Interval{
		{StartS: 0, EndS: 400}, {StartS: 400, EndS: 1200},
	}}
	cells := commonGrid([]Region{{Name: "a", Signal: a}, {Name: "b", Signal: b}}, 1200)
	want := []Cell{{0, 400}, {400, 600}, {600, 1200}}
	if len(cells) != len(want) {
		t.Fatalf("cells %+v, want %+v", cells, want)
	}
	for i := range want {
		if cells[i] != want[i] {
			t.Fatalf("cell %d = %+v, want %+v", i, cells[i], want[i])
		}
	}
	// Cyclic repetition past a signal's horizon also produces edges.
	cells = commonGrid([]Region{{Name: "a", Signal: a}}, 2400)
	if len(cells) != 4 || cells[3].StartS != 1800 {
		t.Fatalf("cyclic cells %+v", cells)
	}
}

func TestMigrationsSemantics(t *testing.T) {
	cases := []struct {
		placement []int
		want      []int
	}{
		{[]int{0, 0, 0}, nil},
		{[]int{Paused, Paused, Paused}, nil},
		{[]int{0, 1, 0}, []int{1, 2}},
		{[]int{Paused, 0, 1}, []int{2}},
		// A pause between two regions still moves the checkpoint.
		{[]int{0, Paused, 1}, []int{2}},
		{[]int{0, Paused, 0}, nil},
	}
	// With an origin, the first placement elsewhere is a migration too.
	originCases := []struct {
		origin    int
		placement []int
		want      []int
	}{
		{0, []int{0, 0, 1}, []int{2}},
		{0, []int{1, 1, 1}, []int{0}},
		{0, []int{Paused, 1, 1}, []int{1}},
		{1, []int{Paused, 1, 1}, nil},
	}
	for _, tc := range originCases {
		got := migrations(tc.origin, tc.placement)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Fatalf("migrations(%d, %v) = %v, want %v", tc.origin, tc.placement, got, tc.want)
		}
	}
	for _, tc := range cases {
		got := migrations(Paused, tc.placement)
		if len(got) != len(tc.want) {
			t.Fatalf("migrations(%v) = %v, want %v", tc.placement, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("migrations(%v) = %v, want %v", tc.placement, got, tc.want)
			}
		}
	}
}

func TestCompileCompositeSignal(t *testing.T) {
	regions := []Region{
		{Name: "a", Signal: flatSignal("a", 1800, 400, 0.2)},
		{Name: "b", Signal: flatSignal("b", 1800, 100, 0.05)},
	}
	cells := commonGrid(regions, 1800)
	if len(cells) != 1 {
		t.Fatalf("cells %+v", cells)
	}
	// Split the single 1800 s cell into three for placement control.
	cells = []Cell{{0, 600}, {600, 1200}, {1200, 1800}}

	mig := MigrationCost{DowntimeS: 100, EnergyJ: 3.6e6} // 1 kWh
	sig, sum, cellOf := compile(regions, cells, []int{0, Paused, 1}, Paused, mig, nil)
	if err := sig.Validate(); err != nil {
		t.Fatalf("composite invalid: %v", err)
	}
	// Intervals: [0,600)@a, [600,1200) paused, [1200,1300) downtime,
	// [1300,1800)@b.
	if len(sig.Intervals) != 4 {
		t.Fatalf("intervals %+v", sig.Intervals)
	}
	if iv := sig.Intervals[1]; iv.CapW != forceIdleCapW || iv.CarbonGPerKWh != 0 {
		t.Fatalf("paused interval %+v", iv)
	}
	if iv := sig.Intervals[2]; iv.StartS != 1200 || iv.EndS != 1300 || iv.CapW != forceIdleCapW || iv.CarbonGPerKWh != 100 {
		t.Fatalf("downtime interval %+v", iv)
	}
	if iv := sig.Intervals[3]; iv.StartS != 1300 || iv.CapW != 0 {
		t.Fatalf("post-downtime interval %+v", iv)
	}
	if sum.count != 1 || sum.downtimeS != 100 || sum.EnergyJ != 3.6e6 {
		t.Fatalf("summary %+v", sum)
	}
	// 1 kWh at the arrival region's rates.
	if math.Abs(sum.CarbonG-100) > 1e-9 || math.Abs(sum.CostUSD-0.05) > 1e-12 {
		t.Fatalf("migration pricing %+v", sum)
	}
	wantCells := []int{0, 1, 2, 2}
	for i, k := range cellOf {
		if k != wantCells[i] {
			t.Fatalf("cellOf %v, want %v", cellOf, wantCells)
		}
	}

	// Downtime longer than the arrival cell spills into the next.
	sig, _, _ = compile(regions, cells, []int{0, 1, 1}, Paused, MigrationCost{DowntimeS: 700}, nil)
	if err := sig.Validate(); err != nil {
		t.Fatalf("spill composite invalid: %v", err)
	}
	// [0,600)@a, [600,1200) idle (downtime), [1200,1300) idle (spill),
	// [1300,1800)@b.
	if len(sig.Intervals) != 4 || sig.Intervals[2].EndS != 1300 || sig.Intervals[2].CapW != forceIdleCapW {
		t.Fatalf("spill intervals %+v", sig.Intervals)
	}
}

func TestPhaseShiftedPair(t *testing.T) {
	pair := PhaseShiftedPair(8)
	if len(pair) != 2 || pair[0].Name != "west" || pair[1].Name != "east" {
		t.Fatalf("pair %+v", pair)
	}
	for _, r := range pair {
		if err := r.Signal.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", r.Name, err)
		}
		if r.GPUs != 8 {
			t.Fatalf("%s capacity %d, want 8", r.Name, r.GPUs)
		}
	}
	w, e := pair[0].Signal, pair[1].Signal
	for h := 0; h < 24; h++ {
		if e.Intervals[h].CarbonGPerKWh != w.Intervals[(h+12)%24].CarbonGPerKWh {
			t.Fatalf("east hour %d not west hour %d", h, (h+12)%24)
		}
	}
}

func TestPlannerPrefersCleanRegion(t *testing.T) {
	lt := convexTable(0.01, 80, 90, 3000, 120)
	regions := []Region{
		{Name: "dirty", Signal: flatSignal("dirty", 3600, 500, 0.25)},
		{Name: "clean", Signal: flatSignal("clean", 3600, 100, 0.04)},
	}
	jobs := []Job{{ID: "j", Table: lt, Target: 1000}}
	plan, err := Optimize(regions, jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatalf("plan infeasible: %+v", plan)
	}
	for _, a := range plan.Jobs[0].Assignments {
		if a.Region == 0 {
			t.Fatalf("planner placed work in the dirty region: %+v", a)
		}
	}
	if plan.Jobs[0].Migrations != 0 {
		t.Fatalf("constant rates cannot justify migration: %+v", plan.Jobs[0])
	}
	// With constant rates NoMigration matches the planner, and pinning
	// to the dirty region costs strictly more.
	noMig, err := NoMigration(regions, jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(noMig.CarbonG-plan.CarbonG) > 1e-9*(1+plan.CarbonG) {
		t.Fatalf("no-migration %v != planner %v under constant rates", noMig.CarbonG, plan.CarbonG)
	}
	dirty, err := Fixed(regions, jobs, "dirty", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !(plan.CarbonG < dirty.CarbonG) {
		t.Fatalf("planner %v not below dirty-region pin %v", plan.CarbonG, dirty.CarbonG)
	}
	// Plans survive JSON encoding (the server returns them over HTTP).
	if _, err := json.Marshal(plan); err != nil {
		t.Fatalf("plan does not marshal: %v", err)
	}
}

func TestCapacityForcesSpread(t *testing.T) {
	lt := convexTable(0.01, 80, 90, 3000, 120)
	regions := []Region{
		{Name: "clean", GPUs: 1, Signal: flatSignal("clean", 3600, 100, 0.04)},
		{Name: "dirty", GPUs: 1, Signal: flatSignal("dirty", 3600, 500, 0.25)},
	}
	jobs := []Job{
		{ID: "a", Table: lt, Target: 2000},
		{ID: "b", Table: lt, Target: 2000},
	}
	plan, err := Optimize(regions, jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatalf("plan infeasible: %+v", plan)
	}
	// Both jobs need most of the hour: capacity 1 per region forces
	// them apart whenever both run.
	for k := range plan.Cells {
		count := map[int]int{}
		for _, jp := range plan.Jobs {
			if r := jp.Assignments[k].Region; r >= 0 {
				count[r]++
			}
		}
		for r, n := range count {
			if n > 1 {
				t.Fatalf("cell %d: %d jobs in region %s (capacity 1)", k, n, plan.Regions[r])
			}
		}
	}
}

func TestRegionCapForcesIdleOrElsewhere(t *testing.T) {
	lt := convexTable(0.01, 80, 90, 3000, 120)
	minPower := lt.AvgPower(len(lt.Points) - 1)
	regions := []Region{
		// The starved region cannot run even the T* point.
		{Name: "starved", Signal: flatSignal("starved", 3600, 50, 0.01), CapW: minPower * 0.5},
		{Name: "open", Signal: flatSignal("open", 3600, 400, 0.2)},
	}
	jobs := []Job{{ID: "j", Table: lt, Target: 1000}}
	plan, err := Optimize(regions, jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatal("open region should make the target feasible")
	}
	// All completed iterations must come from the open region.
	for i, a := range plan.Jobs[0].Assignments {
		if a.Region == 0 {
			// Placing in the starved region is legal but can only idle.
			for ip := range plan.Jobs[0].Temporal.Intervals(lt, plan.Jobs[0].Signal) {
				if ip.Index == i && ip.Iterations > 0 {
					t.Fatalf("iterations ran in the power-starved region: %+v", ip)
				}
			}
		}
	}
}

// TestBundledPhaseShiftedBeatsBaselines is the acceptance-criteria demo
// check: on the bundled two-region phase-shifted diurnal pair, at equal
// iterations completed, the region planner's total carbon is strictly
// below both the best fixed-placement plan and the no-migration plan —
// chasing the two out-of-phase solar valleys pays for the checkpoint
// moves.
func TestBundledPhaseShiftedBeatsBaselines(t *testing.T) {
	lt := convexTable(0.01, 80, 110, 3000, 120)
	regions := PhaseShiftedPair(8)
	// Target: ~60% of one region's T*-speed daily capacity — too much to
	// fit inside a single region's clean window.
	target := math.Floor(0.6 * 86400 / lt.TStar())
	opts := Options{Migration: MigrationCost{DowntimeS: 600, EnergyJ: 1e6}}
	jobs := []Job{{ID: "train", Table: lt, Target: target}}

	plan, err := Optimize(regions, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	bestFixed, err := BestFixed(regions, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	noMig, err := NoMigration(regions, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*Plan{"planner": plan, "best-fixed": bestFixed, "no-migration": noMig} {
		if !p.Feasible {
			t.Fatalf("%s infeasible", name)
		}
		got := p.Jobs[0].Temporal.Iterations
		if math.Abs(got-target) > 1e-6*target {
			t.Fatalf("%s completes %.3f iterations, want %.3f", name, got, target)
		}
	}
	if !(plan.CarbonG < bestFixed.CarbonG) {
		t.Fatalf("planner carbon %.1f g not strictly below best fixed placement %.1f g",
			plan.CarbonG, bestFixed.CarbonG)
	}
	if !(plan.CarbonG < noMig.CarbonG) {
		t.Fatalf("planner carbon %.1f g not strictly below no-migration %.1f g",
			plan.CarbonG, noMig.CarbonG)
	}
	if plan.Jobs[0].Migrations == 0 {
		t.Fatal("the phase-shifted pair should make at least one migration pay")
	}
	// The savings must exceed the migration overhead it paid — the
	// planner internalizes the pause-cost.
	if plan.CarbonG+plan.Jobs[0].MigrationCarbonG >= noMig.CarbonG+plan.Jobs[0].MigrationCarbonG {
		t.Fatal("bookkeeping: totals must already include migration carbon")
	}
}
