package experiments

import (
	"math"
	"strings"
	"testing"

	"perseus/internal/fleet"
	"perseus/internal/gpu"
)

func TestFleetScenarioEndToEnd(t *testing.T) {
	for _, bad := range []float64{0, -0.5, math.NaN()} {
		if _, err := BuildFleetScenario(gpu.A100PCIe, Quick, bad); err == nil {
			t.Errorf("cap fraction %v accepted", bad)
		}
	}
	built, err := BuildFleetScenario(gpu.A100PCIe, Quick, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if built.CapW >= built.UncappedW {
		t.Fatalf("cap %v not below uncapped draw %v", built.CapW, built.UncappedW)
	}
	series, err := fleet.Replay(built.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Segments) == 0 || len(series.Totals) != len(FleetWorkloads()) {
		t.Fatalf("replay produced %d segments, %d totals", len(series.Segments), len(series.Totals))
	}

	// Every capped segment keeps the allocator's budget under the cap.
	capped := 0
	for _, seg := range series.Segments {
		if seg.CapW > 0 {
			capped++
			if !seg.Feasible {
				t.Fatalf("segment [%v,%v] infeasible under cap %v", seg.Start, seg.End, seg.CapW)
			}
			if seg.AllocPowerW > seg.CapW+1e-9 {
				t.Fatalf("segment [%v,%v] allocates %v W over cap %v", seg.Start, seg.End, seg.AllocPowerW, seg.CapW)
			}
		}
	}
	if capped == 0 {
		t.Fatal("scenario never engaged the cap")
	}

	// The straggler segment frees power: the healthy jobs run no slower
	// than in the preceding capped segment.
	var pre, during *fleet.Segment
	for i := range series.Segments {
		seg := &series.Segments[i]
		straggling := false
		for _, j := range seg.Jobs {
			if j.StragglerFactor > 1 {
				straggling = true
			}
		}
		if straggling && during == nil {
			during = seg
			pre = &series.Segments[i-1]
		}
	}
	if during == nil {
		t.Fatal("scenario has no straggler segment")
	}
	for k, j := range during.Jobs {
		if j.StragglerFactor > 1 {
			continue
		}
		if j.Point > pre.Jobs[k].Point {
			t.Fatalf("healthy job %s slowed during the straggler: point %d -> %d",
				j.ID, pre.Jobs[k].Point, j.Point)
		}
	}

	// The tables render.
	for _, tbl := range []*Table{
		FleetTimelineTable(series),
		FleetJobsTable(series),
		FleetSummaryTable(series),
	} {
		var b strings.Builder
		if err := tbl.Render(&b); err != nil {
			t.Fatal(err)
		}
		if len(b.String()) == 0 {
			t.Fatalf("table %q rendered empty", tbl.Title)
		}
	}
}
