package frontier

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"perseus/internal/gpu"
)

// edgeTable hand-builds a 3-point table with gaps between knots
// (units 10, 12, 15 at τ = 1 ms), so lookups can fall below Tmin, above
// T*, exactly on a knot, and between knots.
func edgeTable() *LookupTable {
	return &LookupTable{
		Unit:       1e-3,
		TminUnits:  10,
		TStarUnits: 15,
		Points: []TablePoint{
			{TimeUnits: 10, Energy: 100},
			{TimeUnits: 12, Energy: 80},
			{TimeUnits: 15, Energy: 65},
		},
	}
}

func TestLookupEdgeCases(t *testing.T) {
	lt := edgeTable()
	cases := []struct {
		name   string
		tPrime float64
		want   int64 // expected TimeUnits
	}{
		{"below Tmin", 0.005, 10},
		{"zero", 0, 10},
		{"negative", -1, 10},
		{"exactly Tmin", 0.010, 10},
		{"between Tmin and knot", 0.011, 10},
		{"exactly at a knot", 0.012, 12},
		{"between knots floors", 0.014, 12},
		{"exactly T*", 0.015, 15},
		{"above T* clamps (Eq. 2)", 0.5, 15},
		{"far above T*", math.Inf(1), 15},
	}
	for _, c := range cases {
		if got := lt.Lookup(c.tPrime); got.TimeUnits != c.want {
			t.Errorf("%s: Lookup(%v) = %d units, want %d", c.name, c.tPrime, got.TimeUnits, c.want)
		}
		wantIdx := map[int64]int{10: 0, 12: 1, 15: 2}[c.want]
		if got := lt.LookupIndex(c.tPrime); got != wantIdx {
			t.Errorf("%s: LookupIndex(%v) = %d, want %d", c.name, c.tPrime, got, wantIdx)
		}
	}
}

func TestLookupSinglePoint(t *testing.T) {
	lt := &LookupTable{
		Unit:       1e-3,
		TminUnits:  7,
		TStarUnits: 7,
		Points:     []TablePoint{{TimeUnits: 7, Energy: 42}},
	}
	for _, tPrime := range []float64{0, 0.001, 0.007, 1} {
		if got := lt.Lookup(tPrime); got.TimeUnits != 7 || got.Energy != 42 {
			t.Errorf("Lookup(%v) on 1-point table = %+v", tPrime, got)
		}
		if got := lt.LookupIndex(tPrime); got != 0 {
			t.Errorf("LookupIndex(%v) on 1-point table = %d", tPrime, got)
		}
	}
	if got := lt.Tmin(); got != 0.007 {
		t.Errorf("Tmin %v, want 0.007", got)
	}
}

func TestLookupEmptyTable(t *testing.T) {
	lt := &LookupTable{Unit: 1e-3}
	if got := lt.Lookup(0.5); got.TimeUnits != 0 || got.Energy != 0 || got.Freqs != nil {
		t.Errorf("Lookup on empty table = %+v, want zero point", got)
	}
	if got := lt.LookupIndex(0.5); got != -1 {
		t.Errorf("LookupIndex on empty table = %d, want -1", got)
	}
}

func TestAvgPowerMonotoneOnCharacterizedTable(t *testing.T) {
	g, p, opts := buildCase(t, "gpt3-1.3b", gpu.A100PCIe, 2, 4, 4, "1f1b")
	f := characterize(t, g, p, opts)
	lt := f.Table()
	for i := 1; i < len(lt.Points); i++ {
		if lt.PointTime(i) <= lt.PointTime(i-1) {
			t.Fatalf("point time not increasing at %d", i)
		}
		if lt.AvgPower(i) >= lt.AvgPower(i-1) {
			t.Fatalf("average power not strictly decreasing at point %d: %v -> %v",
				i, lt.AvgPower(i-1), lt.AvgPower(i))
		}
	}
	pt := lt.Points[0]
	if want := pt.Energy / (float64(pt.TimeUnits) * lt.Unit); lt.AvgPower(0) != want {
		t.Fatalf("AvgPower(0) = %v, want Energy/Time = %v", lt.AvgPower(0), want)
	}
}

func TestMergeDescent(t *testing.T) {
	a := edgeTable()
	b := &LookupTable{
		Unit:       1e-3,
		TminUnits:  20,
		TStarUnits: 22,
		Points: []TablePoint{
			{TimeUnits: 20, Energy: 300},
			{TimeUnits: 21, Energy: 280},
			{TimeUnits: 22, Energy: 270},
		},
	}
	start, steps := Merge([]MergeInput{
		{Table: a},
		{Table: b, PowerScale: 2},
	})
	if want := a.AvgPower(0) + 2*b.AvgPower(0); math.Abs(start-want) > 1e-9 {
		t.Fatalf("start power %v, want %v", start, want)
	}
	// Every table descends fully: 2 steps for a, 2 for b.
	if len(steps) != 4 {
		t.Fatalf("got %d steps, want 4", len(steps))
	}
	for i, st := range steps {
		if st.Loss <= 0 || st.Slope <= 0 {
			t.Fatalf("step %d has non-positive loss/slope: %+v", i, st)
		}
		if i > 0 && st.Power >= steps[i-1].Power {
			t.Fatalf("power not strictly decreasing at step %d", i)
		}
	}
	last := steps[len(steps)-1]
	if want := a.AvgPower(2) + 2*b.AvgPower(2); math.Abs(last.Power-want) > 1e-9 {
		t.Fatalf("final power %v, want all-T* %v", last.Power, want)
	}

	// A Start index excludes the points before it.
	start2, steps2 := Merge([]MergeInput{{Table: a, Start: 1}})
	if start2 != a.AvgPower(1) || len(steps2) != 1 || steps2[0].Point != 2 {
		t.Fatalf("start-index merge: power %v steps %+v", start2, steps2)
	}

	// An empty table contributes nothing and never advances.
	start3, steps3 := Merge([]MergeInput{{Table: &LookupTable{Unit: 1e-3}}, {Table: a}})
	if start3 != a.AvgPower(0) || len(steps3) != 2 {
		t.Fatalf("empty-table merge: power %v, %d steps", start3, len(steps3))
	}
	for _, st := range steps3 {
		if st.Table != 1 {
			t.Fatalf("empty table advanced: %+v", st)
		}
	}
}

// mergeScan is the merge as first written — every step rescans every
// job for the steepest next step, first index winning ties — kept as
// the oracle for the heap in Merge.
func mergeScan(inputs []MergeInput) (startPower float64, steps []MergeStep) {
	cur := make([]int, len(inputs))
	scaleOf := func(in MergeInput) float64 {
		if in.PowerScale <= 0 {
			return 1
		}
		return in.PowerScale
	}
	weightOf := func(in MergeInput) float64 {
		if in.LossWeight <= 0 {
			return 1
		}
		return in.LossWeight
	}
	for i, in := range inputs {
		cur[i] = max(in.Start, 0)
		if n := len(in.Table.Points); n == 0 {
			cur[i] = 0
		} else {
			cur[i] = min(cur[i], n-1)
			startPower += scaleOf(in) * in.Table.AvgPower(cur[i])
		}
	}
	power := startPower
	for {
		best, bestSlope := -1, 0.0
		var bestDP, bestLoss float64
		for i, in := range inputs {
			if cur[i]+1 >= len(in.Table.Points) {
				continue
			}
			dp := scaleOf(in) * (in.Table.AvgPower(cur[i]) - in.Table.AvgPower(cur[i]+1))
			loss := weightOf(in) * (in.Table.PointTime(cur[i]+1) - in.Table.PointTime(cur[i]))
			if slope := dp / loss; best < 0 || slope > bestSlope {
				best, bestSlope, bestDP, bestLoss = i, slope, dp, loss
			}
		}
		if best < 0 {
			return startPower, steps
		}
		cur[best]++
		power -= bestDP
		steps = append(steps, MergeStep{Table: best, Point: cur[best], Power: power, Loss: bestLoss, Slope: bestSlope})
	}
}

// TestMergeMatchesScan pins the heap against the rescan bit for bit,
// on random convex fleets and on fleets of identical tables, where
// every comparison is a tie and only the index rule orders the steps.
func TestMergeMatchesScan(t *testing.T) {
	check := func(name string, inputs []MergeInput) {
		t.Helper()
		wantStart, want := mergeScan(inputs)
		gotStart, got := Merge(inputs)
		if gotStart != wantStart || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: heap merge differs from the rescan:\nheap %v %+v\nscan %v %+v", name, gotStart, got, wantStart, want)
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		inputs := fuzzMergeInputs(seed)
		check(fmt.Sprint("seed ", seed), inputs)
		// The same fleet three times over: every job has two twins.
		check(fmt.Sprint("tripled seed ", seed), append(append(append([]MergeInput(nil), inputs...), inputs...), inputs...))
	}
	check("empty", nil)
	check("empty table", []MergeInput{{Table: &LookupTable{Unit: 1e-3}}, {Table: edgeTable(), Start: 9}})
}
