package frontier_test

import (
	"testing"

	"perseus/internal/frontier"
	"perseus/internal/grid"
)

// TestPlannerWorkOnCharacterizedTable pins what a characterized table
// costs the temporal planner: the gpt3-1.3b 1F1B 4×6 table's points,
// its hull's, and the greedy steps of one solve over a day of
// 15-minute intervals. The planner steps over hull points only, so
// the steps track the hull, not the table: stepping every point of the
// unpruned 273-point table took 2,791 steps for the same solve.
func TestPlannerWorkOnCharacterizedTable(t *testing.T) {
	f := frontier.CharacterizeGPT3(t)
	lt := f.Table()
	sig := grid.Generate(grid.GenOptions{Intervals: 96, IntervalS: 900, Jitter: 0.2, Seed: 7})
	var s grid.Solver
	if _, err := s.Evaluate(lt, sig, grid.Options{Target: 0.55 * sig.Horizon() / lt.TStar()}); err != nil {
		t.Fatal(err)
	}
	got := [3]int{len(lt.Points), len(lt.Hull()), s.Steps()}
	t.Logf("frontier %d points, %+v", len(f.Points()), f.Stats())
	if want := [3]int{268, 31, 427}; got != want {
		t.Fatalf("table points, hull points, solver steps = %v, want %v", got, want)
	}
}
