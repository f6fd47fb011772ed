package cluster

import (
	"math"
	"testing"

	"perseus/internal/gpu"
	"perseus/internal/model"
	"perseus/internal/partition"
	"perseus/internal/profile"
	"perseus/internal/sched"
)

func testSpec(t *testing.T, g *gpu.Model, stages, micro, dp int) Spec {
	t.Helper()
	m, err := model.GPT3("1.3b")
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.MinImbalance(m.LayerCosts(), stages)
	if err != nil {
		t.Fatal(err)
	}
	p, err := profile.FromWorkload(profile.Workload{
		Model: m, GPU: g, Stages: stages, Chunks: 1,
		Partition: part.Boundaries, MicrobatchSize: 4, TensorParallel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.OneFOneB(stages, micro)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{Schedule: s, Profile: p, DataParallel: dp, TensorParallel: 1}
}

func TestIterTimeMatchesProfile(t *testing.T) {
	// At all-max frequencies with balanced-ish stages, the simulated
	// iteration time must equal the DAG longest path over per-op
	// max-frequency times.
	spec := testSpec(t, gpu.A100PCIe, 4, 6, 1)
	plan := PlanAllMax(spec.Schedule, gpu.A100PCIe)
	res, err := Simulate(spec, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Lower bound: the heaviest stage's busy time.
	var heaviest float64
	for st := 0; st < 4; st++ {
		var busy float64
		for _, op := range spec.Schedule.Ops {
			if op.Stage != st {
				continue
			}
			tp, err := spec.Profile.For(op)
			if err != nil {
				t.Fatal(err)
			}
			busy += tp.MinTime()
		}
		heaviest = math.Max(heaviest, busy)
	}
	if res.IterTime < heaviest {
		t.Errorf("iteration time %v below heaviest stage busy %v", res.IterTime, heaviest)
	}
	if res.IterTime > heaviest*2 {
		t.Errorf("iteration time %v implausibly above heaviest stage busy %v", res.IterTime, heaviest)
	}
}

func TestEnergyDecomposition(t *testing.T) {
	spec := testSpec(t, gpu.A100PCIe, 4, 6, 1)
	plan := PlanAllMax(spec.Schedule, gpu.A100PCIe)
	res, err := Simulate(spec, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Energy-(res.ComputeJ+res.BlockJ)) > 1e-6 {
		t.Errorf("Energy %v != ComputeJ %v + BlockJ %v", res.Energy, res.ComputeJ, res.BlockJ)
	}
	// Eq. 3 identity: BlockJ = P_blocking * (N*T - sum of busy time).
	var busy float64
	for _, op := range spec.Schedule.Ops {
		tp, err := spec.Profile.For(op)
		if err != nil {
			t.Fatal(err)
		}
		busy += tp.MinTime()
	}
	wantBlock := spec.Profile.PBlocking * (4*res.IterTime - busy)
	if math.Abs(res.BlockJ-wantBlock) > 1e-6*wantBlock {
		t.Errorf("BlockJ = %v, want %v per Eq. 3", res.BlockJ, wantBlock)
	}
	if res.ComputeJ <= 0 || res.BlockJ <= 0 {
		t.Errorf("degenerate energy split: %+v", res)
	}
}

func TestDataParallelReplication(t *testing.T) {
	spec1 := testSpec(t, gpu.A100PCIe, 4, 6, 1)
	plan := PlanAllMax(spec1.Schedule, gpu.A100PCIe)
	r1, err := Simulate(spec1, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec4 := spec1
	spec4.DataParallel = 4
	r4, err := Simulate(spec4, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r4.IterTime-r1.IterTime) > 1e-12 {
		t.Errorf("DP should not change iteration time without stragglers: %v vs %v", r4.IterTime, r1.IterTime)
	}
	if math.Abs(r4.Energy-4*r1.Energy) > 1e-6*r1.Energy {
		t.Errorf("DP=4 energy %v, want 4x %v", r4.Energy, r1.Energy)
	}
	if len(r4.PerPipeline) != 4 {
		t.Fatalf("expected 4 pipeline results")
	}
}

func TestTensorParallelScalesEnergyOnly(t *testing.T) {
	spec := testSpec(t, gpu.A100PCIe, 4, 6, 1)
	plan := PlanAllMax(spec.Schedule, gpu.A100PCIe)
	r1, err := Simulate(spec, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec.TensorParallel = 8
	r8, err := Simulate(spec, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r8.IterTime-r1.IterTime) > 1e-12 {
		t.Errorf("TP must not change time: %v vs %v", r8.IterTime, r1.IterTime)
	}
	if math.Abs(r8.Energy-8*r1.Energy) > 1e-6*r1.Energy {
		t.Errorf("TP=8 energy %v, want 8x %v", r8.Energy, r1.Energy)
	}
	if spec.GPUs() != 4*8 {
		t.Errorf("GPUs() = %d, want 32", spec.GPUs())
	}
}

func TestStragglerStretchesIteration(t *testing.T) {
	spec := testSpec(t, gpu.A100PCIe, 4, 8, 4)
	plan := PlanAllMax(spec.Schedule, gpu.A100PCIe)
	base, err := Simulate(spec, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(spec, plan, []Straggler{{Pipeline: 2, Factor: 1.3}})
	if err != nil {
		t.Fatal(err)
	}
	want := base.IterTime * 1.3
	if math.Abs(res.IterTime-want) > 1e-9*want {
		t.Errorf("straggler iteration time %v, want %v", res.IterTime, want)
	}
	// Non-straggler pipelines burn more blocking energy while waiting.
	if res.PerPipeline[0].BlockJ <= base.PerPipeline[0].BlockJ {
		t.Errorf("non-straggler blocking energy should grow: %v vs %v",
			res.PerPipeline[0].BlockJ, base.PerPipeline[0].BlockJ)
	}
	// The straggler's own computation energy grows with the factor.
	if res.PerPipeline[2].ComputeJ <= base.PerPipeline[2].ComputeJ {
		t.Errorf("straggler compute energy should grow")
	}
}

func TestExtrinsicBloatReducedBySlowingDown(t *testing.T) {
	// Figure 2: with a straggler, slowing the non-straggler pipelines to
	// the straggler's pace must save energy without delaying sync.
	spec := testSpec(t, gpu.A100PCIe, 4, 8, 2)
	fast := PlanAllMax(spec.Schedule, gpu.A100PCIe)
	straggle := []Straggler{{Pipeline: 0, Factor: 1.25}}
	base, err := Simulate(spec, fast, straggle)
	if err != nil {
		t.Fatal(err)
	}
	// Slow every computation of both pipelines one step down the Pareto
	// frontier (a crude stand-in for a frontier schedule).
	slow := make(Plan, len(fast))
	for i, op := range spec.Schedule.Ops {
		tp, err := spec.Profile.For(op)
		if err != nil {
			t.Fatal(err)
		}
		k := len(tp.Points) / 2
		slow[i] = tp.Points[k].Freq
	}
	// Perseus deploys the slow plan to the non-straggler only; the
	// straggler keeps running as it is.
	res, err := SimulateMulti(spec, func(p int) Plan {
		if p == 0 {
			return fast
		}
		return slow
	}, straggle)
	if err != nil {
		t.Fatal(err)
	}
	if res.IterTime > base.IterTime+1e-9 {
		t.Fatalf("slowing non-critical pipelines must not extend iteration: %v vs %v (pipeline time %v)",
			res.IterTime, base.IterTime, res.PerPipeline[1].Time)
	}
	if res.Energy >= base.Energy {
		t.Errorf("slowed plan energy %v >= all-max %v: no extrinsic savings", res.Energy, base.Energy)
	}
}

func TestValidation(t *testing.T) {
	spec := testSpec(t, gpu.A100PCIe, 2, 2, 1)
	plan := PlanAllMax(spec.Schedule, gpu.A100PCIe)
	if _, err := Simulate(Spec{}, plan, nil); err == nil {
		t.Error("nil schedule should error")
	}
	if _, err := Simulate(spec, plan[:1], nil); err == nil {
		t.Error("short plan should error")
	}
	if _, err := Simulate(spec, plan, []Straggler{{Pipeline: 9, Factor: 1.5}}); err == nil {
		t.Error("out-of-range straggler should error")
	}
	if _, err := Simulate(spec, plan, []Straggler{{Pipeline: 0, Factor: 0.5}}); err == nil {
		t.Error("speed-up straggler should error")
	}
	bad := append(Plan(nil), plan...)
	bad[0] = 123 // not on the ladder
	if _, err := Simulate(spec, bad, nil); err == nil {
		t.Error("off-profile frequency should error")
	}
}

func TestTimeline(t *testing.T) {
	spec := testSpec(t, gpu.A100PCIe, 4, 6, 1)
	plan := PlanAllMax(spec.Schedule, gpu.A100PCIe)
	spans, err := Timeline(spec, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != len(spec.Schedule.Ops) {
		t.Fatalf("%d spans for %d ops", len(spans), len(spec.Schedule.Ops))
	}
	// Spans on one stage must not overlap, and starts respect deps.
	byStage := map[int][]OpSpan{}
	for _, sp := range spans {
		if sp.Dur <= 0 || sp.Start < 0 {
			t.Fatalf("bad span %+v", sp)
		}
		if sp.Power <= 0 {
			t.Fatalf("span power %v", sp.Power)
		}
		byStage[sp.Op.Stage] = append(byStage[sp.Op.Stage], sp)
	}
	for st, list := range byStage {
		for i := 1; i < len(list); i++ {
			if list[i].Start < list[i-1].Start+list[i-1].Dur-1e-9 {
				t.Fatalf("stage %d: spans overlap: %+v then %+v", st, list[i-1], list[i])
			}
		}
	}
}

func TestSimulationDeterministic(t *testing.T) {
	spec := testSpec(t, gpu.A40, 4, 8, 2)
	plan := PlanAllMax(spec.Schedule, gpu.A40)
	r1, err := Simulate(spec, plan, []Straggler{{Pipeline: 1, Factor: 1.2}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Simulate(spec, plan, []Straggler{{Pipeline: 1, Factor: 1.2}})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Energy != r2.Energy || r1.IterTime != r2.IterTime {
		t.Errorf("simulation not deterministic: %+v vs %+v", r1, r2)
	}
}

func TestAveragePowerDraw(t *testing.T) {
	// Paper §1/§8: saving energy at unchanged iteration time reduces
	// average power draw by the same fraction.
	spec := testSpec(t, gpu.A100PCIe, 4, 8, 1)
	base, err := Simulate(spec, PlanAllMax(spec.Schedule, gpu.A100PCIe), nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.AvgPowerW <= gpu.A100PCIe.BlockingW || base.AvgPowerW > gpu.A100PCIe.TDP {
		t.Errorf("baseline average power %v W outside (P_blocking, TDP]", base.AvgPowerW)
	}
	want := base.Energy / base.IterTime / float64(spec.GPUs())
	if math.Abs(base.AvgPowerW-want) > 1e-9 {
		t.Errorf("AvgPowerW = %v, want %v", base.AvgPowerW, want)
	}
}
