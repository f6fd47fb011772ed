package grid_test

import (
	"testing"

	"perseus/internal/forecast"
	"perseus/internal/frontier"
	"perseus/internal/gpu"
	"perseus/internal/grid"
	"perseus/internal/model"
	"perseus/internal/partition"
	"perseus/internal/plan"
	"perseus/internal/profile"
	"perseus/internal/server"
)

// characterizedTable characterizes the job the controller-tick
// benchmark manages — GPT-3 1.3B over two 1F1B stages on A100-PCIe at
// τ = 5 ms — through a server, as a trainer's profile upload would.
func characterizedTable(t testing.TB) *frontier.LookupTable {
	t.Helper()
	g := gpu.A100PCIe
	m, err := model.GPT3("1.3b")
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.MinImbalance(m.LayerCosts(), 2)
	if err != nil {
		t.Fatal(err)
	}
	w := profile.Workload{
		Model: m, GPU: g, Stages: 2, Chunks: 1,
		Partition: part.Boundaries, MicrobatchSize: 4, TensorParallel: 1,
	}
	refs, err := w.StageRefTimes()
	if err != nil {
		t.Fatal(err)
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
	srv := server.New()
	id, err := srv.Register(server.JobRequest{Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.UploadProfile(id, up); err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitCharacterized(id); err != nil {
		t.Fatal(err)
	}
	lt, err := srv.Table(id)
	if err != nil {
		t.Fatal(err)
	}
	return lt
}

// controlEpisode replays one controller episode of the tick benchmark's
// shape through forecast.Stepper: 64 managed jobs on one characterized
// table over a 96-interval day of 15-minute intervals, targets from
// 0.5 to 0.69 of the day at T*, deadline at the day's end, a revisions
// feed (σ 0.2, the seed given) issued at every tick, and 48 ticks after
// the jobs' first plans, each re-planning every job on the window
// [now, deadline) of its forecast. solve runs every re-plan.
func controlEpisode(t testing.TB, lt *frontier.LookupTable, seed int64, solve func(window *grid.Signal, opts grid.Options) *grid.Plan) {
	t.Helper()
	const interval, jobs, ticks = 900.0, 64, 48
	sig := grid.Generate(grid.GenOptions{Intervals: 96, IntervalS: interval, Jitter: 0.1, Seed: 3})
	feed := &forecast.Revisions{Truth: sig, Seed: seed, Sigma: 0.2}
	steppers := make([]*forecast.Stepper, jobs)
	for k := range steppers {
		target := (0.5 + 0.25*float64(k%8)/8) * sig.Horizon() / lt.TStar()
		steppers[k] = forecast.NewStepper(lt, sig, plan.Request{Target: target, DeadlineS: sig.Horizon()}, 0)
	}
	for tick := 0; tick <= ticks; tick++ {
		now := float64(tick) * interval
		fc, err := feed.At(now)
		if err != nil {
			t.Fatal(err)
		}
		view := fc.At(0)
		for _, st := range steppers {
			st.ExecuteTo(now)
			if _, err := st.Replan(fc, view, func(view *grid.Signal, from, to, target float64) (*grid.Plan, *grid.Signal, error) {
				window := forecast.Window(view, from, to)
				return solve(window, grid.Options{Target: target, Objective: st.Objective, PowerScale: st.Scale}), window, nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDecisionsMatchGreedy holds the price search to the greedy it
// replaced over a controller episode: on every one of the episode's
// solves the two choose the same point in every interval, the same
// fractional interval with the same endpoints and the same number of
// steps, and their totals agree within 1e-12 relative.
func TestDecisionsMatchGreedy(t *testing.T) {
	lt := characterizedTable(t)
	var s grid.Solver
	solves, fractional := 0, 0
	controlEpisode(t, lt, 1, func(window *grid.Signal, opts grid.Options) *grid.Plan {
		p, err := s.Optimize(lt, window, opts)
		if err != nil {
			t.Fatal(err)
		}
		diff, err := grid.GreedyDecisions(&s, lt, window, opts, p)
		if err != nil {
			t.Fatalf("solve %d: %v", solves, err)
		}
		if diff != "" {
			t.Fatalf("solve %d (%d intervals, target %v): %s", solves, len(window.Intervals), opts.Target, diff)
		}
		for _, r := range p.Runs {
			if len(r.Slices) > 0 {
				fractional++
			}
		}
		solves++
		return p
	})
	if want := 64 * 49; solves != want {
		t.Fatalf("episode ran %d solves, want %d", solves, want)
	}
	if fractional == 0 {
		t.Fatal("no solve cut a step fractionally")
	}
}

// BenchmarkControlEpisodeSolves times the solves of one controller
// episode on one reused Solver, the way a tick's roll-forwards run
// them.
func BenchmarkControlEpisodeSolves(b *testing.B) {
	lt := characterizedTable(b)
	var windows []*grid.Signal
	var opts []grid.Options
	var s grid.Solver
	controlEpisode(b, lt, 1, func(window *grid.Signal, o grid.Options) *grid.Plan {
		windows, opts = append(windows, window), append(opts, o)
		p, err := s.Optimize(lt, window, o)
		if err != nil {
			b.Fatal(err)
		}
		return p
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, w := range windows {
			if _, err := s.Optimize(lt, w, opts[k]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(windows)), "ns/solve")
}
