package fleet

import (
	"math"
	"testing"

	"perseus/internal/cluster"
	"perseus/internal/dag"
	"perseus/internal/frontier"
	"perseus/internal/gpu"
	"perseus/internal/model"
	"perseus/internal/partition"
	"perseus/internal/profile"
	"perseus/internal/sched"
)

// buildSimJob characterizes a small real workload into a SimJob.
func buildSimJob(t *testing.T, id string, stages, micro int) *SimJob {
	t.Helper()
	m, err := model.GPT3("1.3b")
	if err != nil {
		t.Fatal(err)
	}
	g := gpu.A100PCIe
	part, err := partition.MinImbalance(m.LayerCosts(), stages)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.FromWorkload(profile.Workload{
		Model: m, GPU: g, Stages: stages, Chunks: 1,
		Partition: part.Boundaries, MicrobatchSize: 4, TensorParallel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ByName("1f1b", stages, micro, 1)
	if err != nil {
		t.Fatal(err)
	}
	graph, err := dag.Build(s, func(op sched.Op) int64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	front, err := frontier.Characterize(graph, prof, frontier.Options{Unit: 5e-3})
	if err != nil {
		t.Fatal(err)
	}
	return &SimJob{
		Job:  Job{ID: id, Table: front.Table()},
		Spec: cluster.Spec{Schedule: s, Profile: prof},
	}
}

func TestReplayScenario(t *testing.T) {
	a := buildSimJob(t, "gpt-a", 2, 4)
	b := buildSimJob(t, "gpt-b", 2, 3)

	// The cap forces loss: set it at 90% of the two jobs' uncapped draw.
	uncapped := Allocate([]Job{a.Job, b.Job}, 0).PowerW
	capW := 0.9 * uncapped

	series, err := Replay(Scenario{
		Horizon: 600,
		Events: []Event{
			{At: 0, Kind: EventArrive, Job: a},
			{At: 100, Kind: EventArrive, Job: b},
			{At: 200, Kind: EventSetCap, CapW: capW},
			{At: 300, Kind: EventStraggler, JobID: "gpt-a", Factor: 1.3},
			{At: 400, Kind: EventStraggler, JobID: "gpt-a", Factor: 1},
			{At: 500, Kind: EventDepart, JobID: "gpt-b"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Segments partition [0, horizon] at the event times.
	wantBounds := []float64{0, 100, 200, 300, 400, 500, 600}
	if len(series.Segments) != len(wantBounds)-1 {
		t.Fatalf("got %d segments, want %d", len(series.Segments), len(wantBounds)-1)
	}
	for i, seg := range series.Segments {
		if seg.Start != wantBounds[i] || seg.End != wantBounds[i+1] {
			t.Fatalf("segment %d spans [%v,%v], want [%v,%v]", i, seg.Start, seg.End, wantBounds[i], wantBounds[i+1])
		}
	}

	segs := series.Segments
	if len(segs[0].Jobs) != 1 || len(segs[1].Jobs) != 2 || len(segs[5].Jobs) != 1 {
		t.Fatalf("job counts per segment: %d,%d,...,%d, want 1,2,...,1",
			len(segs[0].Jobs), len(segs[1].Jobs), len(segs[5].Jobs))
	}
	if segs[5].Jobs[0].ID != "gpt-a" {
		t.Fatalf("after departure the remaining job is %s, want gpt-a", segs[5].Jobs[0].ID)
	}

	// Uncapped segments run at each job's Tmin point with no allocation
	// pressure; the capped segment keeps model power under the cap.
	if segs[1].CapW != 0 || segs[1].Jobs[0].Point != 0 {
		t.Fatalf("uncapped segment: cap %v point %d", segs[1].CapW, segs[1].Jobs[0].Point)
	}
	if segs[2].CapW != capW || !segs[2].Feasible {
		t.Fatalf("capped segment: cap %v feasible %v", segs[2].CapW, segs[2].Feasible)
	}
	if segs[2].AllocPowerW > capW+1e-9 {
		t.Fatalf("capped segment model power %v exceeds cap %v", segs[2].AllocPowerW, capW)
	}
	if segs[2].AllocPowerW >= segs[1].AllocPowerW {
		t.Fatalf("cap did not reduce model power: %v -> %v", segs[1].AllocPowerW, segs[2].AllocPowerW)
	}

	// Straggler onset drags gpt-a's simulated iteration time by ~1.3×
	// and recovery restores it.
	healthy := segs[2].Jobs[0].IterTime
	dragged := segs[3].Jobs[0].IterTime
	if segs[3].Jobs[0].StragglerFactor != 1.3 {
		t.Fatalf("straggler factor %v, want 1.3", segs[3].Jobs[0].StragglerFactor)
	}
	if dragged < healthy {
		t.Fatalf("straggler iteration time %v not above healthy %v", dragged, healthy)
	}
	if recovered := segs[4].Jobs[0].IterTime; recovered != healthy {
		t.Fatalf("recovered iteration time %v, want %v", recovered, healthy)
	}

	// Totals: both jobs progressed; fleet energy is the power integral.
	if len(series.Totals) != 2 {
		t.Fatalf("got %d totals, want 2", len(series.Totals))
	}
	for _, tot := range series.Totals {
		if tot.Iterations <= 0 || tot.EnergyJ <= 0 || tot.ActiveS <= 0 {
			t.Fatalf("degenerate total %+v", tot)
		}
	}
	if series.Totals[1].ActiveS != 400 {
		t.Fatalf("gpt-b active %vs, want 400", series.Totals[1].ActiveS)
	}
	var sum float64
	for _, seg := range series.Segments {
		sum += seg.PowerW * (seg.End - seg.Start)
	}
	if math.Abs(series.EnergyJ-sum) > 1e-6*sum {
		t.Fatalf("fleet energy %v != power integral %v", series.EnergyJ, sum)
	}
	// Per-job totals are the sums of the job's segments, and their
	// energy is the fleet's.
	var totE float64
	for _, tot := range series.Totals {
		var iters, active float64
		for _, seg := range series.Segments {
			for _, sj := range seg.Jobs {
				if sj.ID == tot.ID {
					iters += sj.Iterations
					active += seg.End - seg.Start
				}
			}
		}
		if tot.Iterations != iters || tot.ActiveS != active {
			t.Fatalf("%s totals %v iterations over %vs, segments sum to %v over %vs",
				tot.ID, tot.Iterations, tot.ActiveS, iters, active)
		}
		totE += tot.EnergyJ
	}
	if math.Abs(totE-series.EnergyJ) > 1e-9*series.EnergyJ {
		t.Fatalf("job totals energy %v != fleet energy %v", totE, series.EnergyJ)
	}
	if series.PeakPowerW <= 0 {
		t.Fatal("no peak power recorded")
	}
}

func TestReplayErrors(t *testing.T) {
	a := buildSimJob(t, "a", 2, 3)
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"nonpositive horizon", Scenario{Horizon: 0}},
		{"event beyond horizon", Scenario{Horizon: 10, Events: []Event{{At: 11, Kind: EventSetCap}}}},
		{"negative event time", Scenario{Horizon: 10, Events: []Event{{At: -1, Kind: EventSetCap}}}},
		{"arrival without job", Scenario{Horizon: 10, Events: []Event{{At: 0, Kind: EventArrive}}}},
		{"unknown departure", Scenario{Horizon: 10, Events: []Event{{At: 0, Kind: EventDepart, JobID: "x"}}}},
		{"unknown straggler", Scenario{Horizon: 10, Events: []Event{{At: 0, Kind: EventStraggler, JobID: "x", Factor: 2}}}},
		{"negative scenario cap", Scenario{Horizon: 10, CapW: -1}},
		{"nan cap event", Scenario{Horizon: 10, Events: []Event{{At: 0, Kind: EventSetCap, CapW: math.NaN()}}}},
		{"arrival with empty ID", Scenario{Horizon: 10, Events: []Event{
			{At: 0, Kind: EventArrive, Job: &SimJob{Job: Job{Table: a.Table}, Spec: a.Spec}},
		}}},
		{"arrival without a table", Scenario{Horizon: 10, Events: []Event{
			{At: 0, Kind: EventArrive, Job: &SimJob{Job: Job{ID: "b"}, Spec: a.Spec}},
		}}},
		{"straggler after departure", Scenario{Horizon: 10, Events: []Event{
			{At: 0, Kind: EventArrive, Job: a},
			{At: 1, Kind: EventDepart, JobID: "a"},
			{At: 2, Kind: EventStraggler, JobID: "a", Factor: 2},
		}}},
		{"duplicate arrival", Scenario{Horizon: 10, Events: []Event{
			{At: 0, Kind: EventArrive, Job: a},
			{At: 1, Kind: EventArrive, Job: a},
		}}},
	}
	for _, tc := range cases {
		if _, err := Replay(tc.sc); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestEventKindString(t *testing.T) {
	for k, want := range map[EventKind]string{
		EventArrive: "arrive", EventDepart: "depart",
		EventStraggler: "straggler", EventSetCap: "set-cap",
		EventKind(9): "event(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("EventKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
