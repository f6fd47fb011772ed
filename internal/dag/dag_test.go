package dag

import (
	"math/rand"
	"slices"
	"testing"

	"perseus/internal/sched"
)

func unitDur(op sched.Op) int64 { return 1 }

func build(t *testing.T, s *sched.Schedule, dur func(sched.Op) int64) *Graph {
	t.Helper()
	g, err := Build(s, dur)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAllSchedulesAcyclic(t *testing.T) {
	mk := func(name string, n, m, c int) *sched.Schedule {
		s, err := sched.ByName(name, n, m, c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return s
	}
	cases := []*sched.Schedule{
		mk("1f1b", 4, 6, 1),
		mk("1f1b", 8, 32, 1),
		mk("1f1b", 4, 2, 1), // fewer microbatches than stages
		mk("gpipe", 4, 6, 1),
		mk("interleaved-1f1b", 4, 8, 2),
		mk("interleaved-1f1b", 2, 6, 3),
		mk("early-recompute-1f1b", 4, 6, 1),
	}
	for _, s := range cases {
		g := build(t, s, unitDur)
		if got := len(g.Topo()); got != len(s.Ops)+2 {
			t.Errorf("%s: topo covers %d of %d nodes", s.Name, got, len(s.Ops)+2)
		}
	}
}

func TestMakespanBalanced1F1B(t *testing.T) {
	// With perfectly balanced unit-duration stages and forward ==
	// backward time, 1F1B's makespan is (M + N - 1) * (tf + tb):
	// pipeline fill of N-1 slots plus M steady slots.
	for _, c := range []struct{ n, m int }{{2, 2}, {2, 4}, {4, 6}, {4, 8}, {8, 32}} {
		s, err := sched.OneFOneB(c.n, c.m)
		if err != nil {
			t.Fatal(err)
		}
		g := build(t, s, unitDur)
		want := int64((c.m + c.n - 1) * 2)
		if got := g.Makespan(); got != want {
			t.Errorf("1f1b %dx%d makespan = %d, want %d", c.n, c.m, got, want)
		}
	}
}

func TestMakespanBalancedGPipe(t *testing.T) {
	// GPipe with unit durations: (M + N - 1) forwards then (M + N - 1)
	// backwards.
	for _, c := range []struct{ n, m int }{{2, 2}, {3, 4}, {4, 8}} {
		s, err := sched.GPipe(c.n, c.m)
		if err != nil {
			t.Fatal(err)
		}
		g := build(t, s, unitDur)
		want := int64(2 * (c.m + c.n - 1))
		if got := g.Makespan(); got != want {
			t.Errorf("gpipe %dx%d makespan = %d, want %d", c.n, c.m, got, want)
		}
	}
}

func TestFigure1Timing(t *testing.T) {
	// Paper Figure 1a geometry: with backward = 2x forward and balanced
	// stages, the 1F1B makespan is (N-1)*tf (fill) + M*(tf+tb) (steady
	// on the last stage) + (N-1)*tb (drain).
	const n, m = 4, 6
	s, err := sched.OneFOneB(n, m)
	if err != nil {
		t.Fatal(err)
	}
	g := build(t, s, func(op sched.Op) int64 {
		if op.Kind == sched.Backward {
			return 2
		}
		return 1
	})
	want := int64((n-1)*1 + m*3 + (n-1)*2)
	if got := g.Makespan(); got != want {
		t.Errorf("makespan = %d, want %d", got, want)
	}
}

func TestImbalancedStageDominates(t *testing.T) {
	// One stage 3x heavier: in steady state the heavy stage is busy
	// back-to-back and the makespan is governed by it.
	const n, m = 4, 16
	heavy := 2 // stage index
	s, err := sched.OneFOneB(n, m)
	if err != nil {
		t.Fatal(err)
	}
	g := build(t, s, func(op sched.Op) int64 {
		d := int64(1)
		if op.Kind == sched.Backward {
			d = 2
		}
		if op.Stage == heavy {
			d *= 3
		}
		return d
	})
	// Lower bound: heavy stage busy time = M*(3+6)=144 plus at least the
	// fill before it and drain after it.
	if got := g.Makespan(); got < int64(m*9) {
		t.Errorf("makespan %d < heavy stage busy time %d", got, m*9)
	}
	// The heavy stage must have zero-slack computations in steady state.
	crit, _ := g.Critical()
	heavyCrit := 0
	for i, op := range g.Ops {
		if op.Stage == heavy && crit[i] {
			heavyCrit++
		}
	}
	if heavyCrit < m {
		t.Errorf("heavy stage has %d critical ops, want >= %d", heavyCrit, m)
	}
}

func TestCriticalPathProperties(t *testing.T) {
	s, err := sched.OneFOneB(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	g := build(t, s, func(op sched.Op) int64 { return 1 + int64(rng.Intn(5)) })
	est := g.EarliestStarts()
	mk := est[g.Sink]
	lst := g.LatestStarts(mk)
	for v := range est {
		if lst[v] < est[v] {
			t.Fatalf("node %d: latest start %d < earliest %d", v, lst[v], est[v])
		}
	}
	// Edge feasibility: est[w] >= est[v]+dur[v] for every edge.
	for v := range g.Succ {
		for _, w := range g.Succ[v] {
			if est[w] < est[v]+g.Dur[v] {
				t.Fatalf("edge %d->%d violates earliest-start recurrence", v, w)
			}
		}
	}
	// There is at least one critical path: walk greedily from Source.
	crit, _ := g.Critical()
	if !crit[g.Source] || !crit[g.Sink] {
		t.Fatal("source/sink must be critical")
	}
	v := g.Source
	steps := 0
	for v != g.Sink {
		next := -1
		for _, w := range g.Succ[v] {
			if crit[w] && est[w] == est[v]+g.Dur[v] {
				next = int(w)
				break
			}
		}
		if next == -1 {
			t.Fatalf("critical path dead-ends at node %d", v)
		}
		v = next
		if steps++; steps > len(g.Dur) {
			t.Fatal("critical path walk did not terminate")
		}
	}
}

func TestSlackConsistency(t *testing.T) {
	s, err := sched.GPipe(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	g := build(t, s, func(op sched.Op) int64 { return 1 + int64(rng.Intn(4)) })
	slack := g.Slack()
	crit, _ := g.Critical()
	for v := range slack {
		if (slack[v] == 0) != crit[v] {
			t.Fatalf("node %d: slack %d vs critical %v", v, slack[v], crit[v])
		}
		if slack[v] < 0 {
			t.Fatalf("node %d: negative slack", v)
		}
	}
}

func TestGrowingDurationGrowsMakespan(t *testing.T) {
	s, err := sched.OneFOneB(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := build(t, s, unitDur)
	before := g.Makespan()
	// Grow a critical node: makespan must grow by the same amount.
	crit, _ := g.Critical()
	for i := range g.Ops {
		if crit[i] {
			g.Dur[i] += 5
			break
		}
	}
	if got := g.Makespan(); got != before+5 {
		t.Errorf("makespan after critical +5: %d, want %d", got, before+5)
	}
}

func TestNonCriticalSlackAbsorbs(t *testing.T) {
	s, err := sched.OneFOneB(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Make stage 0 light so its mid-pipeline ops have slack.
	g := build(t, s, func(op sched.Op) int64 {
		if op.Stage == 0 {
			return 1
		}
		return 4
	})
	before := g.Makespan()
	slack := g.Slack()
	grew := false
	for i := range g.Ops {
		if slack[i] >= 2 {
			g.Dur[i]++ // grow within slack
			grew = true
			break
		}
	}
	if !grew {
		t.Skip("no slack found in this configuration")
	}
	if got := g.Makespan(); got != before {
		t.Errorf("makespan changed from %d to %d despite slack", before, got)
	}
}

func TestBuildRejectsNonPositiveDuration(t *testing.T) {
	s, err := sched.OneFOneB(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(s, func(op sched.Op) int64 { return 0 }); err == nil {
		t.Fatal("zero duration should be rejected")
	}
}

func TestClone(t *testing.T) {
	s, err := sched.OneFOneB(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := build(t, s, unitDur)
	c := g.Clone()
	c.Dur[0] = 99
	if g.Dur[0] == 99 {
		t.Fatal("clone shares duration storage")
	}
	if c.Makespan() == g.Makespan() {
		t.Fatal("mutated clone should differ in makespan")
	}
}

// TestIntoFormsMatchAndReuse checks the buffer-taking passes return what
// the allocating ones do, in the buffer they were handed.
func TestIntoFormsMatchAndReuse(t *testing.T) {
	s, err := sched.OneFOneB(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	g := build(t, s, func(op sched.Op) int64 { return int64(3 + op.Stage) })
	est := make([]int64, len(g.Dur))
	lst := make([]int64, len(g.Dur))
	for i := range est {
		est[i], lst[i] = -7, -7 // stale contents must not leak through
	}
	gotEst := g.EarliestStartsInto(est)
	gotLst := g.LatestStartsInto(lst, gotEst[g.Sink])
	if &gotEst[0] != &est[0] || &gotLst[0] != &lst[0] {
		t.Fatal("a buffer of the right length was not reused")
	}
	if !slices.Equal(gotEst, g.EarliestStarts()) {
		t.Errorf("EarliestStartsInto = %v, want %v", gotEst, g.EarliestStarts())
	}
	if want := g.LatestStarts(gotEst[g.Sink]); !slices.Equal(gotLst, want) {
		t.Errorf("LatestStartsInto = %v, want %v", gotLst, want)
	}
	if n := testing.AllocsPerRun(10, func() {
		est = g.EarliestStartsInto(est)
		lst = g.LatestStartsInto(lst, est[g.Sink])
	}); n != 0 {
		t.Errorf("the Into passes allocate %v times per call", n)
	}
}
