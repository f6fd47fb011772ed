package frontier

import (
	"math"
	"slices"
	"testing"

	"perseus/internal/gpu"
)

func TestTableMatchesFrontierLookup(t *testing.T) {
	g, p, opts := buildCase(t, "gpt3-1.3b", gpu.A100PCIe, 4, 6, 4, "1f1b")
	f := characterize(t, g, p, opts)
	lt := f.Table()
	if lt.Tmin() != f.Tmin() || lt.TStar() != f.TStar() {
		t.Fatalf("table bounds (%v, %v) != frontier (%v, %v)", lt.Tmin(), lt.TStar(), f.Tmin(), f.TStar())
	}
	for _, factor := range []float64{0.5, 1.0, 1.02, 1.1, 1.25, 2.0} {
		tPrime := f.Tmin() * factor
		want := f.Lookup(tPrime)
		got := lt.Lookup(tPrime)
		if got.TimeUnits != want.TimeUnits {
			t.Fatalf("factor %v: table %d units, frontier %d", factor, got.TimeUnits, want.TimeUnits)
		}
		wantPlan := want.Plan()
		for i := range wantPlan {
			if got.Freqs[i] != wantPlan[i] {
				t.Fatalf("factor %v: plan mismatch at op %d", factor, i)
			}
		}
	}
}

// TestLookupIndexMatchesFrontierLookup holds the table's Eq. 2 lookup,
// through LookupIndex, to the frontier's at every probe: every unit from
// two below Tmin to two past T* and half a unit either side of it, zero,
// half of Tmin, twice T* and +Inf. Both answer with the same point, on
// shapes whose walk drops steps a faster one matches in energy.
func TestLookupIndexMatchesFrontierLookup(t *testing.T) {
	for _, c := range []struct {
		model    string
		gpu      *gpu.Model
		schedule string
	}{
		{"gpt3-1.3b", gpu.A100PCIe, "1f1b"},
		{"bloom-3b", gpu.A40, "1f1b"},
		{"t5-3b", gpu.A100PCIe, "gpipe"},
	} {
		g, p, opts := buildCase(t, c.model, c.gpu, 4, 8, 4, c.schedule)
		f := characterize(t, g, p, opts)
		lt := f.Table()
		if lt.Tmin() != f.Tmin() || lt.TStar() != f.TStar() {
			t.Fatalf("%s: table bounds (%v, %v) != frontier (%v, %v)", c.model, lt.Tmin(), lt.TStar(), f.Tmin(), f.TStar())
		}
		times := []float64{0, f.Tmin() / 2, f.TStar() * 2, math.Inf(1)}
		for u := lt.TminUnits - 2; u <= lt.TStarUnits+2; u++ {
			at := float64(u) * lt.Unit
			times = append(times, at-lt.Unit/2, at, at+lt.Unit/2)
		}
		for _, tPrime := range times {
			i := lt.LookupIndex(tPrime)
			if got, want := f.Lookup(tPrime), f.Points()[i]; got != want || got.TimeUnits != lt.Points[i].TimeUnits || got.Energy != lt.Points[i].Energy {
				t.Fatalf("%s at %v s: frontier (%d units, %v J), table row %d (%d units, %v J)",
					c.model, tPrime, got.TimeUnits, got.Energy, i, lt.Points[i].TimeUnits, lt.Points[i].Energy)
			}
		}
	}
}

// TestTableMatchesEveryPlan checks the table's replay of the walk by
// deltas against the per-point reconstruction: every row is the plan,
// energy and time of the frontier point at its position, with keyframes
// every 7 steps so that the points' own reconstruction starts from many
// different snapshots. The points are the walk's Pareto set: a walk step
// is missing only when a faster point costs no more energy, and a kept
// one has the step's durations.
func TestTableMatchesEveryPlan(t *testing.T) {
	for _, schedule := range []string{"1f1b", "gpipe"} {
		g, p, opts := buildCase(t, "gpt3-1.3b", gpu.A100PCIe, 4, 6, 4, schedule)
		opts.keyframeEvery = 7
		steps := walkOf(t, g, p, opts).Points()
		f := characterize(t, g, p, opts)
		lt, pts := f.Table(), f.Points()
		if len(lt.Points) < 30 || len(lt.Points) != len(pts) || len(pts) == len(steps) {
			t.Fatalf("%s: table has %d points, frontier %d, walk %d", schedule, len(lt.Points), len(pts), len(steps))
		}
		if lt.TStarUnits != f.tstarUnits || lt.TStarUnits != pts[len(pts)-1].TimeUnits {
			t.Fatalf("%s: T* %d units (frontier %d) is not the slowest row's %d", schedule, lt.TStarUnits, f.tstarUnits, pts[len(pts)-1].TimeUnits)
		}
		for row, pt := range pts {
			r := lt.Points[row]
			if r.TimeUnits != pt.TimeUnits || r.Energy != pt.Energy {
				t.Fatalf("%s: row %d is (%d units, %v J), point (%d units, %v J)", schedule, row, r.TimeUnits, r.Energy, pt.TimeUnits, pt.Energy)
			}
			if !slices.Equal(r.Freqs, pt.Plan()) {
				t.Fatalf("%s: row %d's frequencies differ from its point's plan", schedule, row)
			}
			if row > 0 && !(r.Energy < lt.Points[row-1].Energy) {
				t.Fatalf("%s: row %d (%v J) is dominated by row %d (%v J)", schedule, row, r.Energy, row-1, lt.Points[row-1].Energy)
			}
		}
		row := 0
		for k, st := range steps {
			if row < len(pts) && pts[row].TimeUnits == st.TimeUnits {
				if pts[row].Energy != st.Energy || !slices.Equal(pts[row].Durations(), st.Durations()) {
					t.Fatalf("%s: point %d differs from walk step %d", schedule, row, k)
				}
				row++
				continue
			}
			if row == 0 || st.Energy < pts[row-1].Energy {
				t.Fatalf("%s: step %d (%d units, %v J) is missing but no faster point costs less", schedule, k, st.TimeUnits, st.Energy)
			}
		}
		if row != len(pts) {
			t.Fatalf("%s: %d points match no walk step", schedule, len(pts)-row)
		}
		// Rows share one array; appending to one must not reach the next.
		_ = append(lt.Points[0].Freqs, 1)
		if !slices.Equal(lt.Points[1].Freqs, pts[1].Plan()) {
			t.Fatalf("%s: appending to row 0 overwrote row 1", schedule)
		}
	}
}

// TestHull checks the hull index on a characterized table and on a
// hand-built one that never passed through Table: it runs from the
// Tmin row to the T* row, every row it skips lies on or above the
// chord of the hull vertices around it, and every vertex lies strictly
// below the chord of its neighbours. HullOf of a suffix keeps every
// table vertex in it. The index is cached: a second call returns the
// same slice and allocates nothing, and a table whose Points are
// replaced is indexed again.
func TestHull(t *testing.T) {
	g, p, opts := buildCase(t, "gpt3-1.3b", gpu.A100PCIe, 4, 6, 4, "1f1b")
	f := characterize(t, g, p, opts)
	built := &LookupTable{Unit: 0.01, TminUnits: 10, TStarUnits: 15}
	for u, e := range []float64{90, 70, 66, 50, 48.5, 46} {
		built.Points = append(built.Points, TablePoint{TimeUnits: int64(10 + u), Energy: e})
	}
	for name, lt := range map[string]*LookupTable{"characterized": f.Table(), "hand-built": built} {
		h := lt.Hull()
		n := len(lt.Points)
		if h[0] != 0 || h[len(h)-1] != n-1 {
			t.Fatalf("%s: hull %v does not span rows 0..%d", name, h, n-1)
		}
		above := func(i, a, b int) float64 { // row i's energy minus the a→b chord's at its time
			pa, pb, pi := lt.Points[a], lt.Points[b], lt.Points[i]
			frac := float64(pi.TimeUnits-pa.TimeUnits) / float64(pb.TimeUnits-pa.TimeUnits)
			return pi.Energy - (pa.Energy + frac*(pb.Energy-pa.Energy))
		}
		for v := 1; v < len(h); v++ {
			for i := h[v-1] + 1; i < h[v]; i++ {
				if d := above(i, h[v-1], h[v]); d < -1e-9 {
					t.Fatalf("%s: skipped row %d is %v J below the hull", name, i, -d)
				}
			}
			if v+1 < len(h) && above(h[v], h[v-1], h[v+1]) >= 0 {
				t.Fatalf("%s: vertex %d is not below its neighbours' chord", name, h[v])
			}
		}
		if name == "characterized" && f.Stats().HullPoints != len(h) {
			t.Fatalf("Stats counts %d hull points, Hull %d", f.Stats().HullPoints, len(h))
		}
		for _, lo := range []int{1, n / 2, n - 1} {
			sub := lt.HullOf(nil, lo, n-1)
			for _, v := range h {
				if v >= lo && !slices.Contains(sub, v) {
					t.Fatalf("%s: HullOf(%d..) %v drops table vertex %d", name, lo, sub, v)
				}
			}
		}
		if again := lt.Hull(); &again[0] != &h[0] {
			t.Fatalf("%s: second Hull call rebuilt the index", name)
		}
		if n := testing.AllocsPerRun(10, func() { lt.Hull() }); n != 0 {
			t.Fatalf("%s: cached Hull allocates %v times", name, n)
		}
	}
	if h := built.Hull(); !slices.Equal(h, []int{0, 1, 3, 5}) {
		t.Fatalf("hand-built hull %v, want [0 1 3 5]", h)
	}
	built.Points = built.Points[:3]
	if h := built.Hull(); !slices.Equal(h, []int{0, 1, 2}) {
		t.Fatalf("hull of the truncated table %v, want [0 1 2]", h)
	}
}

// TestPowerHull checks the (time, average power) hull a fleet
// allocator walks: on a characterized table, which is not convex in
// power, PowerHullFrom(lo) equals the monotone chain run on points
// lo..T* alone for every floor lo, shares the cached index without
// allocating when lo is a vertex, and the index is cached and
// re-built like Hull's.
func TestPowerHull(t *testing.T) {
	g, p, opts := buildCase(t, "gpt3-1.3b", gpu.A100PCIe, 4, 6, 4, "1f1b")
	lt := characterize(t, g, p, opts).Table()
	n := len(lt.Points)
	h := lt.PowerHull()
	if len(h) == n || h[0] != 0 || h[len(h)-1] != n-1 {
		t.Fatalf("power hull %v of %d rows: want a proper subset spanning 0..%d", h, n, n-1)
	}
	for lo := 0; lo < n; lo++ {
		want := lt.powerHullOf(nil, lo, n-1)
		if got := lt.PowerHullFrom(lo); !slices.Equal(got, want) {
			t.Fatalf("PowerHullFrom(%d) = %v, direct hull %v", lo, got, want)
		}
	}
	for _, v := range h {
		if a := testing.AllocsPerRun(10, func() { lt.PowerHullFrom(v) }); a != 0 {
			t.Fatalf("PowerHullFrom(vertex %d) allocates %v times", v, a)
		}
	}
	if again := lt.PowerHull(); &again[0] != &h[0] {
		t.Fatal("second PowerHull call rebuilt the index")
	}
	if &lt.Hull()[0] == &h[0] {
		t.Fatal("Hull and PowerHull share one cache")
	}
	lt.Points = lt.Points[:3]
	if got := lt.PowerHull(); !slices.Equal(got, lt.powerHullOf(nil, 0, 2)) {
		t.Fatalf("power hull of the truncated table %v", got)
	}
}
