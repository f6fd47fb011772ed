package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"perseus/internal/frontier"
	"perseus/internal/region"
)

// regionTestTable hand-builds a convex lookup table.
func regionTestTable() *frontier.LookupTable {
	lt := &frontier.LookupTable{Unit: 0.01, TminUnits: 80, TStarUnits: 110}
	for u := int64(80); u <= 110; u++ {
		t := float64(u) * 0.01
		lt.Points = append(lt.Points, frontier.TablePoint{TimeUnits: u, Energy: 3000 + 120/t})
	}
	return lt
}

func TestRegionComparison(t *testing.T) {
	lt := regionTestTable()
	regions := region.PhaseShiftedPair(8)
	target := math.Floor(0.6 * 86400 / lt.TStar())
	mig := region.MigrationCost{DowntimeS: 600, EnergyJ: 1e6}

	strategies, err := RegionComparison(lt, regions, target, 0, mig)
	if err != nil {
		t.Fatal(err)
	}
	// Rows: fixed @ west, fixed @ east, no-migration, planner.
	if len(strategies) != 4 {
		t.Fatalf("got %d strategies, want 4", len(strategies))
	}
	planner := strategies[len(strategies)-1].Plan
	for _, st := range strategies {
		if !st.Plan.Feasible {
			t.Fatalf("%s infeasible", st.Name)
		}
		if st.Plan != planner && !(planner.CarbonG < st.Plan.CarbonG) {
			t.Fatalf("planner carbon %v not strictly below %s (%v)",
				planner.CarbonG, st.Name, st.Plan.CarbonG)
		}
	}

	var buf bytes.Buffer
	if err := RegionComparisonTable(strategies).Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fixed @ west", "no-migration", "region planner", "Carbon vs fixed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("comparison table missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := RegionPlanTable(regions, lt, planner, 0).Render(&buf); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if !strings.Contains(out, "migrate") {
		t.Fatalf("plan table shows no migration:\n%s", out)
	}
	if !strings.Contains(out, "migration(s)") {
		t.Fatalf("plan table missing migration note:\n%s", out)
	}
}
