package fleet

import (
	"math"
	"testing"
)

// segmentIDs lists the job IDs of a segment in allocation order.
func segmentIDs(seg Segment) []string {
	ids := make([]string, len(seg.Jobs))
	for k, sj := range seg.Jobs {
		ids[k] = sj.ID
	}
	return ids
}

// TestFleetStateModel checks the fleet state Replay keeps between
// events: jobs are allocated in arrival order, a straggler raises its
// job's floor until recovery, caps are set and lifted, malformed caps
// are rejected, and a departed job leaves the allocation.
func TestFleetStateModel(t *testing.T) {
	a := buildSimJob(t, "a", 2, 3)
	b := buildSimJob(t, "b", 2, 4)
	series, err := Replay(Scenario{
		Horizon: 7,
		Events: []Event{
			{At: 0, Kind: EventArrive, Job: a},
			{At: 1, Kind: EventArrive, Job: b},
			{At: 2, Kind: EventStraggler, JobID: "a", Factor: 1.2},
			{At: 3, Kind: EventStraggler, JobID: "a", Factor: 1},
			{At: 4, Kind: EventSetCap, CapW: 1234},
			{At: 5, Kind: EventSetCap, CapW: 0},
			{At: 6, Kind: EventDepart, JobID: "a"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	segs := series.Segments
	if len(segs) != 7 {
		t.Fatalf("got %d segments, want 7", len(segs))
	}
	wantIDs := [][]string{{"a"}, {"a", "b"}, {"a", "b"}, {"a", "b"}, {"a", "b"}, {"a", "b"}, {"b"}}
	for i, want := range wantIDs {
		got := segmentIDs(segs[i])
		if len(got) != len(want) {
			t.Fatalf("segment %d jobs %v, want %v", i, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("segment %d jobs %v, want registration order %v", i, got, want)
			}
		}
	}

	// Uncapped jobs run at their floor: Tmin when healthy, the point
	// for T' = 1.2 × Tmin while straggling, Tmin again after recovery.
	strag := segs[2].Jobs[0]
	if strag.StragglerFactor != 1.2 || segs[2].Jobs[1].StragglerFactor != 1 {
		t.Fatalf("straggler factors %v, %v, want 1.2, 1", strag.StragglerFactor, segs[2].Jobs[1].StragglerFactor)
	}
	if want := a.Table.LookupIndex(a.Table.Tmin() * 1.2); strag.Point != want || want == 0 {
		t.Fatalf("straggling job at point %d, want raised floor %d", strag.Point, want)
	}
	if rec := segs[3].Jobs[0]; rec.StragglerFactor != 1 || rec.Point != 0 {
		t.Fatalf("after recovery: factor %v point %d, want 1 and 0", rec.StragglerFactor, rec.Point)
	}

	if segs[3].CapW != 0 || segs[4].CapW != 1234 || segs[5].CapW != 0 {
		t.Fatalf("caps %v, %v, %v, want 0, 1234, 0", segs[3].CapW, segs[4].CapW, segs[5].CapW)
	}
	if len(series.Totals) != 2 || series.Totals[0].ID != "a" || series.Totals[1].ID != "b" {
		t.Fatalf("totals %+v, want registration order a,b", series.Totals)
	}

	// Malformed caps are rejected, at the start and mid-replay.
	for _, bad := range []float64{-5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Replay(Scenario{Horizon: 2, CapW: bad}); err == nil {
			t.Errorf("scenario cap %v should be rejected", bad)
		}
		if _, err := Replay(Scenario{Horizon: 2, Events: []Event{
			{At: 0, Kind: EventArrive, Job: a},
			{At: 1, Kind: EventSetCap, CapW: bad},
		}}); err == nil {
			t.Errorf("cap event %v should be rejected", bad)
		}
	}
}

// TestFleetAllocateUsesCurrentState checks Replay reallocates on the
// state in force: a cap set after arrival constrains the job, and a
// straggler at T* makes the same cap free.
func TestFleetAllocateUsesCurrentState(t *testing.T) {
	a := buildSimJob(t, "a", 2, 3)
	capW := 0.96 * Allocate([]Job{a.Job}, 0).PowerW
	last := len(a.Table.Points) - 1
	series, err := Replay(Scenario{
		Horizon: 3,
		Events: []Event{
			{At: 0, Kind: EventArrive, Job: a},
			{At: 1, Kind: EventSetCap, CapW: capW},
			{At: 2, Kind: EventStraggler, JobID: "a", Factor: 1.5 * a.Table.TStar() / a.Table.Tmin()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	segs := series.Segments
	if len(segs) != 3 {
		t.Fatalf("got %d segments, want 3", len(segs))
	}
	if free := segs[0].Jobs[0]; segs[0].CapW != 0 || free.Point != 0 {
		t.Fatalf("uncapped segment: cap %v point %d, want 0 and 0", segs[0].CapW, free.Point)
	}
	capped := segs[1]
	if !capped.Feasible || capped.AllocPowerW > capW+1e-9 {
		t.Fatalf("capped segment: feasible %v power %v over cap %v", capped.Feasible, capped.AllocPowerW, capW)
	}
	if p := capped.Jobs[0].Point; p == 0 || p == last {
		t.Fatalf("cap at 96%% should slow the job off Tmin but not to T*: point %d of %d", p, last)
	}
	// T' beyond T* clamps the floor to T*, the slowest point, so the
	// job meets the cap at its floor: zero loss.
	slow := segs[2]
	if sj := slow.Jobs[0]; !slow.Feasible || sj.Point != last || sj.PlannedTime != a.Table.TStar() {
		t.Fatalf("straggler at T*: feasible %v point %d time %v, want %d at T* %v",
			slow.Feasible, sj.Point, sj.PlannedTime, last, a.Table.TStar())
	}
}
