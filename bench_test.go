// Benchmarks regenerating the paper's tables and figures (DESIGN.md §4):
// one benchmark per experiment, each at reduced scale so the full suite
// completes in minutes. Savings percentages are reported as custom
// metrics; cmd/perseus-tables -scale full regenerates everything at the
// paper's parameters.
package perseus

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"
	"time"

	"perseus/internal/client"
	"perseus/internal/dag"
	"perseus/internal/experiments"
	"perseus/internal/fit"
	"perseus/internal/fleet"
	"perseus/internal/frontier"
	"perseus/internal/gpu"
	"perseus/internal/grid"
	"perseus/internal/maxflow"
	"perseus/internal/model"
	"perseus/internal/obs"
	"perseus/internal/partition"
	"perseus/internal/plan"
	"perseus/internal/profile"
	"perseus/internal/region"
	"perseus/internal/sched"
	"perseus/internal/server"
)

// benchScale keeps each experiment iteration around a second.
var benchScale = experiments.Scale{MaxMicrobatches: 8, TargetSteps: 200}

func reportSavings(b *testing.B, tab *experiments.Table, col int, metric string) {
	b.Helper()
	var sum float64
	var n int
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			continue
		}
		sum += v
		n++
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n), metric)
	}
}

func BenchmarkTable1ImbalanceRatios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure1(io.Discard, "gpt3-1.3b", benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPotentialSavings(b *testing.B) {
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.PotentialSavings(gpu.A100PCIe, experiments.A100Workloads()[:2], benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSavings(b, tab, 1, "potential-%")
}

func benchTable3(b *testing.B, g *gpu.Model, cfgs []experiments.WorkloadConfig) {
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Table3(g, cfgs[:2], benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSavings(b, tab, 1, "perseus-%")
	reportSavings(b, tab, 2, "envpipe-%")
}

func BenchmarkTable3IntrinsicA100(b *testing.B) {
	benchTable3(b, gpu.A100PCIe, experiments.A100Workloads())
}

func BenchmarkTable3IntrinsicA40(b *testing.B) {
	benchTable3(b, gpu.A40, experiments.A40Workloads())
}

func benchTable4(b *testing.B, g *gpu.Model, cfgs []experiments.WorkloadConfig) {
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Table4(g, cfgs[:1], benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Column for slowdown 1.2 (third slowdown in the header).
	reportSavings(b, tab, 4, "savings-at-1.2-%")
}

func BenchmarkTable4StragglerA100(b *testing.B) {
	benchTable4(b, gpu.A100PCIe, experiments.A100Workloads())
}

func BenchmarkTable4StragglerA40(b *testing.B) {
	benchTable4(b, gpu.A40, experiments.A40Workloads())
}

func BenchmarkTable6Emulation(b *testing.B) {
	// One emulation cell: Bloom 176B at the smallest Table 5 point.
	for i := 0; i < b.N; i++ {
		sys, err := experiments.BuildSystem(experiments.WorkloadConfig{
			Display: "Bloom 176B", Model: "bloom-176b", Stages: 8,
			MicrobatchSize: 1, Microbatches: 12, TensorParallel: 8,
		}, gpu.A100SXM, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.SimulatePlan(sys.PerseusPlan(0))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(100*(1-res.Energy/sys.Base.Energy), "intrinsic-%")
		}
	}
}

func BenchmarkFigure7Breakdown(b *testing.B) {
	// One breakdown cell (GPT-3 175B on A100) instead of the full grid.
	for i := 0; i < b.N; i++ {
		sys, err := experiments.BuildSystem(experiments.WorkloadConfig{
			Display: "GPT-3 175B", Model: "gpt3-175b", Stages: 8,
			MicrobatchSize: 1, Microbatches: 12, TensorParallel: 8,
		}, gpu.A100SXM, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		intrinsic, both, err := sys.StragglerBreakdown(16, 1.2)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(100*intrinsic, "intrinsic-%")
			b.ReportMetric(100*both, "intrinsic+extrinsic-%")
		}
	}
}

func BenchmarkFigure8StragglerSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8("bloom-176b", "Bloom 176B", gpu.A100SXM,
			experiments.Scale{MaxMicrobatches: 8, TargetSteps: 150}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9Frontiers(b *testing.B) {
	panel := experiments.Figure9Configs()[0]
	for i := 0; i < b.N; i++ {
		sys, err := experiments.BuildSystem(panel.Config, panel.GPU, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.FrontierComparison(sys, 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11Fit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure11(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure12Frontiers(b *testing.B) {
	cfg := experiments.A40Workloads()[1] // BERT on A40, 8 stages
	for i := 0; i < b.N; i++ {
		sys, err := experiments.BuildSystem(cfg, gpu.A40, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.FrontierComparison(sys, 15); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure13Frontiers(b *testing.B) {
	cfg := experiments.A100Workloads()[1] // BERT on A100, 4 stages
	for i := 0; i < b.N; i++ {
		sys, err := experiments.BuildSystem(cfg, gpu.A100PCIe, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.FrontierComparison(sys, 15); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizerRuntime(b *testing.B) {
	// §6.5: frontier characterization cost for the GPT-3 A100 workload.
	cfg := experiments.A100Workloads()[0]
	for i := 0; i < b.N; i++ {
		sys, err := experiments.BuildSystem(cfg, gpu.A100PCIe,
			experiments.Scale{MaxMicrobatches: 16, TargetSteps: 400})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(sys.Frontier.Points())), "frontier-points")
	}
}

// charShapes are the characterize workload's six jobs (bench/gen.go's
// fullShapes): 300-450 frontier points each.
var charShapes = []struct {
	model, schedule        string
	stages, chunks, mbSize int
	microbatches           int
	unit                   float64
}{
	{"gpt3-1.3b", "1f1b", 4, 1, 4, 16, 7.5e-3},
	{"gpt3-1.3b", "gpipe", 4, 1, 4, 24, 11e-3},
	{"bert-1.3b", "1f1b", 8, 1, 8, 32, 4e-3},
	{"gpt3-2.7b", "interleaved-1f1b", 4, 2, 4, 16, 14e-3},
	{"t5-3b", "early-recompute-1f1b", 4, 1, 4, 16, 5.5e-3},
	{"bloom-3b", "1f1b", 8, 1, 4, 16, 9.5e-3},
}

// charShape builds the DAG and the profile the server would derive for
// the named characterize-workload shape at seed 1, drawing each stage's
// ±2 % speed offset from the seeded stream in the order bench/gen.go
// does: the shapes in a seeded order, one draw per virtual stage.
func charShape(tb testing.TB, name string) (*dag.Graph, *profile.Profile, float64) {
	tb.Helper()
	g := gpu.A100PCIe
	rng := rand.New(rand.NewSource(1))
	for _, i := range rng.Perm(len(charShapes)) {
		sp := charShapes[i]
		if sp.model+"-"+sp.schedule != name {
			for range sp.stages * sp.chunks { // its virtual stages' draws
				rng.Float64()
			}
			continue
		}
		m, err := model.ByName(sp.model)
		if err != nil {
			tb.Fatal(err)
		}
		part, err := partition.MinImbalance(m.LayerCosts(), sp.stages*sp.chunks)
		if err != nil {
			tb.Fatal(err)
		}
		refs, err := profile.Workload{
			Model: m, GPU: g, Stages: sp.stages, Chunks: sp.chunks,
			Partition: part.Boundaries, MicrobatchSize: sp.mbSize, TensorParallel: 1,
		}.StageRefTimes()
		if err != nil {
			tb.Fatal(err)
		}
		var meas []profile.Measurement
		for v, ref := range refs {
			ref *= 1 + 0.02*(2*rng.Float64()-1)
			for _, f := range g.Frequencies() {
				meas = append(meas,
					profile.Measurement{Virtual: v, Kind: sched.Forward, Freq: f,
						Time: g.Time(ref, f, g.MemBoundFwd), Energy: g.Energy(ref, f, g.MemBoundFwd)},
					profile.Measurement{Virtual: v, Kind: sched.Backward, Freq: f,
						Time: g.Time(2*ref, f, g.MemBoundBwd), Energy: g.Energy(2*ref, f, g.MemBoundBwd)})
			}
		}
		sc, err := sched.ByName(sp.schedule, sp.stages, sp.microbatches, sp.chunks)
		if err != nil {
			tb.Fatal(err)
		}
		graph, err := dag.Build(sc, func(sched.Op) int64 { return 1 })
		if err != nil {
			tb.Fatal(err)
		}
		prof, err := profile.Assemble(g, profile.MeasurePBlocking(g), meas)
		if err != nil {
			tb.Fatal(err)
		}
		return graph, prof, sp.unit
	}
	tb.Fatalf("no characterize shape %s", name)
	return nil, nil, 0
}

// charTableSHA256 is the SHA-256 of each characterize-workload shape's
// lookup table as PLT1 bytes, recorded before FitExp's search moved to
// Brent's method. A change to the fit, the profile assembly or the
// optimizer that moves any table by a byte fails TestCharTablesPinned.
var charTableSHA256 = map[string]string{
	"gpt3-1.3b-1f1b":             "5639dffddb285abaa0cda3d8bb6837bfa1969a2c708a85782f312b2ff0f8908b",
	"gpt3-1.3b-gpipe":            "2668c7d8a984a72132038fed2a71bbb84fc3402af179f97c448ba3b544785a95",
	"bert-1.3b-1f1b":             "eef769231b4f5e9f15af11731166b594b28ecf94bd37294f631f9d7abebbced5",
	"gpt3-2.7b-interleaved-1f1b": "4f0984987e8fb116105e0744c79590faa55fb1e02f73480ac119a860251102fc",
	"t5-3b-early-recompute-1f1b": "c38678da5e0bd477a2abe7bba69b6834eb46c5fe688874f4a2c4616a7ae974f8",
	"bloom-3b-1f1b":              "0b4b5a6f2cadb2ce32f5b5a8988b98823f7850fa18d9deac4f6d0577d5e27dfa",
}

// TestCharTablesPinned characterizes the six characterize-workload shapes
// as the server does and holds each table's PLT1 bytes to charTableSHA256.
func TestCharTablesPinned(t *testing.T) {
	for _, sp := range charShapes {
		name := sp.model + "-" + sp.schedule
		graph, prof, unit := charShape(t, name)
		f, err := frontier.Characterize(graph, prof, frontier.Options{Unit: unit})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := f.Table().Save(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != charTableSHA256[name] {
			t.Errorf("%s: table SHA-256 %s, want %s", name, got, charTableSHA256[name])
		}
	}
}

// BenchmarkFitExp fits the exponential to a backward computation's A100
// sweep, blocking power subtracted: its 25 Pareto points, as
// profile.Assemble fits them, and all 81 frequencies.
func BenchmarkFitExp(b *testing.B) {
	g := gpu.A100PCIe
	pb := profile.MeasurePBlocking(g)
	var sweep []gpu.Point // counts down from FMax, so time increases
	for _, f := range g.Frequencies() {
		t := g.Time(0.05, f, g.MemBoundBwd)
		sweep = append(sweep, gpu.Point{Freq: f, Time: t, Energy: g.Energy(0.05, f, g.MemBoundBwd) - pb*t})
	}
	for _, pts := range [][]gpu.Point{g.ParetoPoints(0.05, g.MemBoundBwd, pb), sweep} {
		ts, es := make([]float64, len(pts)), make([]float64, len(pts))
		for i, p := range pts {
			ts[i], es[i] = p.Time, p.Energy
		}
		b.Run(fmt.Sprintf("points-%d", len(pts)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fit.FitExp(ts, es); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCharacterize times frontier.Characterize alone on two of the
// characterize workload's shapes, built as that workload builds them, and
// reports the frontier's points and the min-cut solves that grew the last
// S side instead of searching from s.
func BenchmarkCharacterize(b *testing.B) {
	for _, name := range []string{"gpt3-2.7b-interleaved-1f1b", "bloom-3b-1f1b"} {
		b.Run(name, func(b *testing.B) {
			graph, prof, unit := charShape(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			var f *frontier.Frontier
			for i := 0; i < b.N; i++ {
				var err error
				if f, err = frontier.Characterize(graph, prof, frontier.Options{Unit: unit}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(f.Points())), "points/op")
			b.ReportMetric(float64(f.Stats().Grown), "grown/op")
		})
	}
}

// BenchmarkFrontierTable measures materializing the lookup table of one
// characterized ~400-point frontier: what stands between the optimizer's
// last step and the version bump that wakes the trainer.
func BenchmarkFrontierTable(b *testing.B) {
	sys, err := experiments.BuildSystem(experiments.A100Workloads()[0], gpu.A100PCIe,
		experiments.Scale{MaxMicrobatches: 16, TargetSteps: 400})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lt := sys.Frontier.Table(); len(lt.Points) != len(sys.Frontier.Points()) {
			b.Fatal("short table")
		}
	}
}

func BenchmarkScheduleLookup(b *testing.B) {
	// §6.5: "Looking up the optimal energy schedule ... is instantaneous."
	sys, err := experiments.BuildSystem(experiments.A100Workloads()[0], gpu.A100PCIe, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	tmin := sys.Frontier.Tmin()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sys.Frontier.Lookup(tmin * (1 + float64(i%50)/100))
	}
}

func BenchmarkClusterSimulation(b *testing.B) {
	sys, err := experiments.BuildSystem(experiments.A100Workloads()[0], gpu.A100PCIe, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	plan := sys.PerseusPlan(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.SimulatePlan(plan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGreedyVsMinCut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationGreedy(experiments.A100Workloads()[0], gpu.A100PCIe, benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFitChoice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationFit(experiments.A100Workloads()[0], gpu.A100PCIe, benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTau(b *testing.B) {
	cfg := experiments.WorkloadConfig{
		Display: "GPT-3 1.3B", Model: "gpt3-1.3b", Stages: 2,
		MicrobatchSize: 4, Microbatches: 4,
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationTau(cfg, gpu.A100PCIe, []float64{20e-3, 5e-3}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFleet builds a synthetic fleet of convex frontiers (E = a + b/t,
// the family the allocator's optimality tests use) so the fleet hot
// path benchmarks without paying for characterization.
func benchFleet(n int) []fleet.Job {
	jobs := make([]fleet.Job, n)
	for i := range jobs {
		tmin := int64(60 + 17*(i%8))
		lt := &frontier.LookupTable{Unit: 0.01, TminUnits: tmin, TStarUnits: tmin + 40}
		for u := tmin; u <= tmin+40; u++ {
			t := float64(u) * lt.Unit
			lt.Points = append(lt.Points, frontier.TablePoint{
				TimeUnits: u,
				Energy:    2000 + 300*float64(i%5) + (100+25*float64(i%7))/t,
			})
		}
		jobs[i] = fleet.Job{
			ID:        fmt.Sprintf("job-%d", i),
			Table:     lt,
			Pipelines: 1 + i%3,
			Weight:    1 + float64(i%4)/2,
		}
	}
	return jobs
}

// BenchmarkFleetAllocate measures the power-budget allocator — the
// fleet layer's hot path, re-run on every arrival, departure,
// straggler, and cap or grid-signal change — at 90 % of the uncapped
// draw. jobs-N runs on benchFleet's convex tables, where every point is
// a power-hull vertex. characterized-64 gives 64 jobs the table
// benchUpload's job characterizes to, and stragglers-64 puts a third of
// them at T' = 1.1 × Tmin, a floor off that table's power hull, so each
// call derives their suffix hulls (PowerHullFrom) afresh.
func BenchmarkFleetAllocate(b *testing.B) {
	run := func(name string, jobs []fleet.Job) {
		b.Run(name, func(b *testing.B) {
			capW := fleet.Allocate(jobs, 0).PowerW * 0.9
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				alloc := fleet.Allocate(jobs, capW)
				if !alloc.Feasible {
					b.Fatal("benchmark cap unexpectedly infeasible")
				}
			}
		})
	}
	for _, n := range []int{4, 16, 64} {
		run(fmt.Sprintf("jobs-%d", n), benchFleet(n))
	}
	srv := server.New()
	lt, err := srv.Table(benchJob(b, srv, benchUpload(b, 2)))
	if err != nil {
		b.Fatal(err)
	}
	jobs := benchFleet(64)
	for i := range jobs {
		jobs[i].Table = lt
	}
	run("characterized-64", jobs)
	straggling := append([]fleet.Job(nil), jobs...)
	for i := 0; i < len(straggling); i += 3 {
		straggling[i].TPrime = 1.1 * lt.Tmin()
	}
	if fi := lt.LookupIndex(1.1 * lt.Tmin()); slices.Contains(lt.PowerHull(), fi) {
		b.Fatalf("straggler floor %d is a power-hull vertex", fi)
	}
	run("stragglers-64", straggling)
}

// BenchmarkFrontierMerge measures merging N frontiers into one
// fleet-level descent over every table point: the figure
// bench/layers.go reports as frontier.merge_ms.
func BenchmarkFrontierMerge(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("tables-%d", n), func(b *testing.B) {
			jobs := benchFleet(n)
			inputs := make([]frontier.MergeInput, len(jobs))
			for i, j := range jobs {
				inputs[i] = frontier.MergeInput{
					Table:      j.Table,
					PowerScale: float64(j.Pipelines),
					LossWeight: j.Weight,
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, steps := frontier.Merge(inputs); len(steps) == 0 {
					b.Fatal("degenerate merge")
				}
			}
		})
	}
}

// BenchmarkGridOptimize measures the temporal planner — the inner
// solver every region placement evaluation and every forecast re-plan
// runs, so its cost multiplies through both outer layers. intervals-N
// plans the 41-point synthetic table through the package Optimize (its
// pooled Solver); characterized-96 plans the table benchUpload's job
// characterizes to (222 Pareto points, 25 on the hull the solver steps
// over: the regime a controller tick lives in), and reused-96 does so
// on one Solver, as every hot caller does. steps/op is Solver.Steps,
// the steps a one-at-a-time fill would take: the solver prices them
// instead, so it pins the plans, not the solver's work.
func BenchmarkGridOptimize(b *testing.B) {
	synthetic := benchFleet(1)[0].Table
	srv := server.New()
	characterized, err := srv.Table(benchJob(b, srv, benchUpload(b, 2)))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		lt     *frontier.LookupTable
		n      int
		reused bool
	}{
		{"intervals-24", synthetic, 24, false},
		{"intervals-96", synthetic, 96, false},
		{"intervals-288", synthetic, 288, false},
		{"characterized-96", characterized, 96, false},
		{"reused-96", characterized, 96, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			sig := grid.Generate(grid.GenOptions{Intervals: c.n, IntervalS: 86400 / float64(c.n), Jitter: 0.1, Seed: 3})
			opts := grid.Options{Target: 0.55 * sig.Horizon() / c.lt.TStar()}
			var solver grid.Solver
			optimize := grid.Optimize
			if c.reused {
				optimize = solver.Optimize
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, err := optimize(c.lt, sig, opts)
				if err != nil {
					b.Fatal(err)
				}
				if !plan.Feasible {
					b.Fatal("benchmark target unexpectedly infeasible")
				}
			}
			b.StopTimer()
			if _, err := solver.Evaluate(c.lt, sig, opts); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(solver.Steps()), "steps/op")
		})
	}
}

// BenchmarkRegionPlan measures the joint spatio-temporal planner on
// the bundled phase-shifted pair — the synchronous cost behind GET
// /regions/plan and each multi-region re-plan. solves/op is the inner
// temporal solves one Optimize runs (Plan.Stats.InnerSolves). In the
// jobs-N cases every region seats the whole fleet, so nothing binds and
// the first descents run side by side; in jobs-8-contended each region
// seats one job fewer, so capacity binds and the planner runs every job
// order with its descents in sequence.
func BenchmarkRegionPlan(b *testing.B) {
	for _, c := range []struct {
		nJobs     int
		contended bool
	}{{1, false}, {2, false}, {4, false}, {8, false}, {8, true}} {
		name := fmt.Sprintf("jobs-%d", c.nJobs)
		if c.contended {
			name += "-contended"
		}
		b.Run(name, func(b *testing.B) {
			regions, jobs, opts := benchRegionCase(c.nJobs)
			if c.contended {
				for r := range regions {
					regions[r].GPUs = 8 * (c.nJobs - 1)
				}
			}
			var plan *region.Plan
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if plan, err = region.Optimize(regions, jobs, opts); err != nil {
					b.Fatal(err)
				}
				if !plan.Feasible {
					b.Fatal("benchmark plan unexpectedly infeasible")
				}
			}
			b.ReportMetric(float64(plan.Stats.InnerSolves), "solves/op")
		})
	}
}

// benchRegionCase builds the BenchmarkRegionPlan inputs: the bundled
// phase-shifted pair scaled to the job count, with migration friction.
func benchRegionCase(nJobs int) ([]region.Region, []region.Job, region.Options) {
	regions := region.PhaseShiftedPair(8 * nJobs)
	fl := benchFleet(nJobs)
	jobs := make([]region.Job, nJobs)
	for i, fj := range fl {
		jobs[i] = region.Job{
			ID: fj.ID, Table: fj.Table, GPUs: 8,
			Target: 0.4 * regions[0].Signal.Horizon() / fj.Table.TStar(),
		}
	}
	return regions, jobs, region.Options{Migration: region.MigrationCost{DowntimeS: 600, EnergyJ: 5e6}}
}

// BenchmarkRegionPlanWarm measures a seeded re-plan: the previous
// solve's placement is fed back through Options.Seeds, so descent
// starts at (or next to) the optimum instead of from the generic
// single-region and rate-envelope candidates. forecast.ReplanRegions
// does not take this path: it re-solves every decision cold.
func BenchmarkRegionPlanWarm(b *testing.B) {
	for _, nJobs := range []int{2, 8} {
		b.Run(fmt.Sprintf("jobs-%d", nJobs), func(b *testing.B) {
			regions, jobs, opts := benchRegionCase(nJobs)
			cold, err := region.Optimize(regions, jobs, opts)
			if err != nil {
				b.Fatal(err)
			}
			seeds := make(map[string][]region.SeedSpan, len(cold.Jobs))
			for _, jp := range cold.Jobs {
				spans := make([]region.SeedSpan, 0, len(jp.Assignments))
				for _, a := range jp.Assignments {
					name := ""
					if a.Region >= 0 {
						name = cold.Regions[a.Region]
					}
					spans = append(spans, region.SeedSpan{StartS: a.StartS, EndS: a.EndS, Region: name})
				}
				seeds[jp.JobID] = spans
			}
			opts.Seeds = seeds
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, err := region.Optimize(regions, jobs, opts)
				if err != nil {
					b.Fatal(err)
				}
				if !plan.Feasible {
					b.Fatal("benchmark plan unexpectedly infeasible")
				}
			}
		})
	}
}

// benchUpload synthesizes the profile a GPT-3 1.3B job of the given
// number of stages reports.
func benchUpload(b *testing.B, stages int) server.ProfileUpload {
	b.Helper()
	g := gpu.A100PCIe
	m, err := model.GPT3("1.3b")
	if err != nil {
		b.Fatal(err)
	}
	part, err := partition.MinImbalance(m.LayerCosts(), stages)
	if err != nil {
		b.Fatal(err)
	}
	w := profile.Workload{
		Model: m, GPU: g, Stages: stages, Chunks: 1,
		Partition: part.Boundaries, MicrobatchSize: 4, TensorParallel: 1,
	}
	refs, err := w.StageRefTimes()
	if err != nil {
		b.Fatal(err)
	}
	up := server.ProfileUpload{PBlocking: profile.MeasurePBlocking(g)}
	for v, ref := range refs {
		for _, f := range g.Frequencies() {
			up.Measurements = append(up.Measurements,
				server.MeasurementJSON{Virtual: v, Kind: "forward", Freq: int(f),
					Time: g.Time(ref, f, g.MemBoundFwd), Energy: g.Energy(ref, f, g.MemBoundFwd)},
				server.MeasurementJSON{Virtual: v, Kind: "backward", Freq: int(f),
					Time: g.Time(2*ref, f, g.MemBoundBwd), Energy: g.Energy(2*ref, f, g.MemBoundBwd)})
		}
	}
	return up
}

// BenchmarkProfileUpload is a profile's way from the trainer to the
// optimizer for an 8-stage job, 16 computation types: the client's
// binary encoding of the upload, the handler's decoding of it, and
// profile.Assemble. bytes/op is the request body's size.
func BenchmarkProfileUpload(b *testing.B) {
	up := benchUpload(b, 8)
	g := gpu.A100PCIe
	var size int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		body, err := up.MarshalBinary() // as the client sends it
		if err != nil {
			b.Fatal(err)
		}
		size = len(body)
		var got server.ProfileUpload
		if err := got.UnmarshalBinary(body); err != nil {
			b.Fatal(err)
		}
		ms := make([]profile.Measurement, len(got.Measurements))
		for j, m := range got.Measurements {
			kind := sched.Forward
			if m.Kind == "backward" {
				kind = sched.Backward
			}
			ms[j] = profile.Measurement{Virtual: m.Virtual, Kind: kind, Freq: gpu.Frequency(m.Freq), Time: m.Time, Energy: m.Energy}
		}
		if _, err := profile.Assemble(g, got.PBlocking, ms); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size), "bytes/op")
}

// BenchmarkAssemble times profile.Assemble alone on two sweeps of the
// same 8-stage job (16 computation types), both counting down from FMax
// as trainers send them. "repeats-1" is BenchmarkProfileUpload's: one
// measurement per frequency and type, all 81 frequencies. "repeats-40" is
// what client.Trainer.ProfileSweep(5) collects with 8 microbatches: 40
// repeats per frequency and type, until its stopping rule ends the sweep.
func BenchmarkAssemble(b *testing.B) {
	g := gpu.A100PCIe
	up := benchUpload(b, 8)
	one := make([]profile.Measurement, len(up.Measurements))
	for i, m := range up.Measurements {
		kind := sched.Forward
		if m.Kind == "backward" {
			kind = sched.Backward
		}
		one[i] = profile.Measurement{Virtual: m.Virtual, Kind: kind, Freq: gpu.Frequency(m.Freq), Time: m.Time, Energy: m.Energy}
	}
	m, err := model.GPT3("1.3b")
	if err != nil {
		b.Fatal(err)
	}
	part, err := partition.MinImbalance(m.LayerCosts(), 8)
	if err != nil {
		b.Fatal(err)
	}
	w := profile.Workload{
		Model: m, GPU: g, Stages: 8, Chunks: 1,
		Partition: part.Boundaries, MicrobatchSize: 4, TensorParallel: 1,
	}
	refs, err := w.StageRefTimes()
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.OneFOneB(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := client.NewTrainer(s, g, refs, m.BwdFactor)
	if err != nil {
		b.Fatal(err)
	}
	swept, err := tr.ProfileSweep(5)
	tr.Close()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ms   []profile.Measurement
	}{{"repeats-1", one}, {"repeats-40", swept}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := profile.Assemble(g, up.PBlocking, c.ms); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchJob registers one job on the server and waits for its frontier.
func benchJob(b *testing.B, srv *server.Server, up server.ProfileUpload) string {
	b.Helper()
	id, err := srv.Register(server.JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.UploadProfile(id, up); err != nil {
		b.Fatal(err)
	}
	if err := srv.WaitCharacterized(id); err != nil {
		b.Fatal(err)
	}
	return id
}

// benchServer builds a server with one characterized job and a
// 288-interval signal installed — the /grid/plan hot path's inputs.
func benchServer(b *testing.B) (*server.Server, string, float64) {
	b.Helper()
	srv := server.New()
	id := benchJob(b, srv, benchUpload(b, 2))
	sig := grid.Generate(grid.GenOptions{Intervals: 288, IntervalS: 300, Jitter: 0.1, Seed: 3})
	if _, err := srv.SetGridSignal(*sig, ""); err != nil {
		b.Fatal(err)
	}
	lt, err := srv.Table(id)
	if err != nil {
		b.Fatal(err)
	}
	target := 0.5 * sig.Horizon() / lt.TStar()
	return srv, id, target
}

// BenchmarkControllerTick times one controller tick against the number
// of managed jobs: under a fake clock, every iteration advances one
// 15-minute interval of a 96-interval day and ticks, and the revisions
// feed (σ 0.2) moves the whole remaining window every time, so each
// tick settles every job, issues its forecast and re-plans every job
// cold. An episode is 48 ticks — half the day, so no job finishes —
// and starting the next one (signal, forecast and ManageJob per job) is
// off the clock. forecasts/tick reports the forecasts issued per tick:
// 1 however many jobs share it.
func BenchmarkControllerTick(b *testing.B) {
	const interval, episode = 15 * time.Minute, 48
	sig := grid.Generate(grid.GenOptions{Intervals: 96, IntervalS: interval.Seconds(), Jitter: 0.1, Seed: 3})
	up := benchUpload(b, 2)
	for _, jobs := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("jobs-%d", jobs), func(b *testing.B) {
			now := time.Unix(1_700_000_000, 0)
			srv := server.New()
			srv.SetClock(func() time.Time { return now })
			ids := make([]string, jobs)
			for k := range ids {
				ids[k] = benchJob(b, srv, up)
			}
			// Every characterization ends in a fleet recompute on its own
			// goroutine; recomputes are serialized, so this one returns
			// after the last job's instead of letting it run into the
			// first ticks.
			srv.FleetStatus()
			lt, err := srv.Table(ids[0])
			if err != nil {
				b.Fatal(err)
			}
			issued := func() float64 {
				v, _ := srv.Metrics().CounterValue("perseus_controller_forecasts_issued_total")
				return v
			}
			var forecasts float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%episode == 0 {
					b.StopTimer()
					if _, err := srv.SetGridSignal(*sig, ""); err != nil {
						b.Fatal(err)
					}
					if _, err := srv.SetForecast(server.ForecastRequest{Model: "revisions", Seed: int64(i/episode) + 1, Sigma: 0.2}); err != nil {
						b.Fatal(err)
					}
					for k, id := range ids {
						target := (0.5 + 0.25*float64(k%8)/8) * sig.Horizon() / lt.TStar()
						if _, err := srv.ManageJob(id, target, sig.Horizon(), "", 0); err != nil {
							b.Fatal(err)
						}
					}
					forecasts -= issued()
					b.StartTimer()
				}
				now = now.Add(interval)
				if st := srv.TickController(); st.LastTickError != "" {
					b.Fatal(st.LastTickError)
				}
				if (i+1)%episode == 0 || i+1 == b.N {
					forecasts += issued()
				}
			}
			b.ReportMetric(forecasts/float64(b.N), "forecasts/tick")
		})
	}
}

// BenchmarkServerPlanCold measures /grid/plan's solve path with every
// request missing the cache (each iteration asks a new target), i.e.
// the pre-cache behavior of the endpoint. Its solver comes from the
// server's pool, so allocs/op counts the plan and the cache entry, not
// the solver's buffers.
func BenchmarkServerPlanCold(b *testing.B) {
	srv, id, target := benchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := srv.GridPlan(id, target+float64(i)*1e-6, 0, "")
		if err != nil {
			b.Fatal(err)
		}
		if !plan.Feasible {
			b.Fatal("benchmark target unexpectedly infeasible")
		}
	}
}

// BenchmarkServerPlanCached measures the same request stream when
// every request after the first hits the single-flight plan cache —
// the acceptance bar is ≥10× over BenchmarkServerPlanCold.
func BenchmarkServerPlanCached(b *testing.B) {
	srv, id, target := benchServer(b)
	if _, err := srv.GridPlan(id, target, 0, ""); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := srv.GridPlan(id, target, 0, "")
		if err != nil {
			b.Fatal(err)
		}
		if !plan.Feasible {
			b.Fatal("benchmark target unexpectedly infeasible")
		}
	}
}

// BenchmarkDecodePlan decodes the server's PGP1 body of one
// 288-interval plan — what a trainer pays per plan it fetches.
func BenchmarkDecodePlan(b *testing.B) {
	srv, id, target := benchServer(b)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		"/grid/plan/"+id+"?iterations="+strconv.FormatFloat(target, 'g', -1, 64), nil))
	if rec.Code != http.StatusOK {
		b.Fatalf("GET /grid/plan: %d %s", rec.Code, rec.Body)
	}
	body := rec.Body.Bytes()
	b.ReportAllocs()
	b.ReportMetric(float64(len(body)), "bytes")
	for i := 0; i < b.N; i++ {
		var p grid.Plan
		if err := p.UnmarshalBinary(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSocketFetch times the trainer client's four reads over a real
// loopback listener, one keep-alive connection, closed loop: a schedule
// and a cached 288-interval plan, each as a 304 (validator still
// current) and as a 200 carrying the body. These are the trajectory's
// TCP-crossing series; everything else in it is in-process.
func BenchmarkSocketFetch(b *testing.B) {
	srv, id, target := benchServer(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }() // returns when Close closes ln
	defer hs.Close()
	cl := client.NewServerClient("http://" + ln.Addr().String())
	cl.HTTP = &http.Client{Transport: &http.Transport{}}

	sched, err := cl.FetchSchedule(id)
	if err != nil {
		b.Fatal(err)
	}
	_, tag, _, err := cl.FetchGridPlanIfChanged(id, target, 0, "", "", 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		fetch func() (changed bool, err error)
		want  bool
	}{
		{"schedule-304", func() (bool, error) {
			_, changed, err := cl.FetchScheduleIfChanged(id, sched.Version, 0)
			return changed, err
		}, false},
		{"schedule-200", func() (bool, error) {
			s, err := cl.FetchSchedule(id)
			return s.Ready, err
		}, true},
		{"plan-304", func() (bool, error) {
			_, _, changed, err := cl.FetchGridPlanIfChanged(id, target, 0, "", tag, 0)
			return changed, err
		}, false},
		{"plan-200", func() (bool, error) {
			p, err := cl.FetchGridPlan(id, target, 0, "")
			return p.Feasible, err
		}, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got, err := c.fetch(); err != nil || got != c.want {
					b.Fatalf("fetch: body=%v, want %v, err %v", got, c.want, err)
				}
			}
		})
	}
}

// BenchmarkLedgerSettle measures the energy-bloat ledger's settlement
// path once every job's ring is full — the steady state each controller
// tick and emissions read pays per job. The acceptance bar is O(1) and
// allocation-free settlement regardless of job count or history length.
func BenchmarkLedgerSettle(b *testing.B) {
	entry := obs.LedgerEntry{
		StartUnixS: 1.7e9, EndUnixS: 1.7e9 + 600, Kind: obs.LedgerKindSpan,
		BloatSpan: plan.DecomposeSpan(plan.SpanInputs{
			Realized:   plan.Account{EnergyJ: 3.6e6, CarbonG: 500, CostUSD: 0.2},
			Iterations: 120, FloorJ: 3.0e6, TminJ: 3.3e6, MigrationJ: 1e5,
			MeanGPerJ: 200 / 3.6e6, PredC: 480, PredRealC: 495,
		}),
	}
	for _, jobs := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("jobs-%d", jobs), func(b *testing.B) {
			led := obs.NewLedger(0)
			ids := make([]string, jobs)
			for i := range ids {
				ids[i] = fmt.Sprintf("job-%d", i)
			}
			// Fill every ring past capacity so the timed loop measures
			// pure overwrite-and-accumulate, never ring growth.
			for _, id := range ids {
				for k := 0; k < obs.DefaultLedgerRing+1; k++ {
					led.Settle(id, entry)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				led.Settle(ids[i%jobs], entry)
			}
		})
	}
}

// BenchmarkAblationMaxFlowSolver times frontier.Characterize with
// Edmonds-Karp (the paper's solver) and with Dinic on the same workload,
// built once per solver outside the timed loop: Characterize resets the
// graph's durations before it steps, so every run sees the same input.
func BenchmarkAblationMaxFlowSolver(b *testing.B) {
	cfg := experiments.A100Workloads()[0]
	for _, solver := range []struct {
		name string
		s    maxflow.Solver
	}{{"edmonds-karp", maxflow.EdmondsKarp}, {"dinic", maxflow.Dinic}} {
		b.Run(solver.name, func(b *testing.B) {
			graph, prof, unit, err := experiments.BuildForAblation(cfg, gpu.A100PCIe, benchScale)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := frontier.Characterize(graph, prof, frontier.Options{
					Unit: unit, Solver: solver.s,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
