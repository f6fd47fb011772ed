package frontier

import (
	"bytes"
	"slices"
	"strings"
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

// TestTableMatchesEveryPlan checks the table's walk by deltas against the
// per-point reconstruction: every row is the plan, energy and time of the
// frontier point it came from, with keyframes every 7 points so that the
// points' own reconstruction starts from many different snapshots.
func TestTableMatchesEveryPlan(t *testing.T) {
	for _, schedule := range []string{"1f1b", "gpipe"} {
		g, p, opts := buildCase(t, "gpt3-1.3b", gpu.A100PCIe, 4, 6, 4, schedule)
		opts.keyframeEvery = 7
		f := characterize(t, g, p, opts)
		lt := f.Table()
		if len(lt.Points) != len(f.Points()) || len(lt.Points) < 30 {
			t.Fatalf("%s: table has %d points, frontier %d", schedule, len(lt.Points), len(f.Points()))
		}
		for k, pt := range f.Points() {
			row := lt.Points[k]
			if row.TimeUnits != pt.TimeUnits || row.Energy != pt.Energy {
				t.Fatalf("%s: row %d is (%d units, %v J), point (%d units, %v J)", schedule, k, row.TimeUnits, row.Energy, pt.TimeUnits, pt.Energy)
			}
			if !slices.Equal(row.Freqs, pt.Plan()) {
				t.Fatalf("%s: row %d's frequencies differ from the point's plan", schedule, k)
			}
		}
		// Rows share one array; appending to one must not reach the next.
		_ = append(lt.Points[0].Freqs, 1)
		if !slices.Equal(lt.Points[1].Freqs, f.Points()[1].Plan()) {
			t.Fatalf("%s: appending to row 0 overwrote row 1", schedule)
		}
	}
}

func TestTableSaveLoadRoundTrip(t *testing.T) {
	g, p, opts := buildCase(t, "bert-1.3b", gpu.A40, 2, 4, 8, "1f1b")
	f := characterize(t, g, p, opts)
	lt := f.Table()
	var buf bytes.Buffer
	if err := lt.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Unit != lt.Unit || len(got.Points) != len(lt.Points) {
		t.Fatalf("round trip mismatch: %v/%d vs %v/%d", got.Unit, len(got.Points), lt.Unit, len(lt.Points))
	}
	probe := f.Tmin() * 1.07
	a, b := lt.Lookup(probe), got.Lookup(probe)
	if a.TimeUnits != b.TimeUnits || a.Energy != b.Energy {
		t.Fatalf("loaded table lookup differs: %+v vs %+v", b, a)
	}
	for i := range a.Freqs {
		if a.Freqs[i] != b.Freqs[i] {
			t.Fatalf("loaded plan differs at op %d", i)
		}
	}
}

func TestLoadTableValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"garbage", "{"},
		{"no points", `{"unit_s":0.001,"tmin_units":1,"tstar_units":2,"points":[]}`},
		{"bad unit", `{"unit_s":0,"tmin_units":1,"tstar_units":2,"points":[{"time_units":1,"energy_j":1,"freqs_mhz":[100]}]}`},
		{"non-increasing", `{"unit_s":0.001,"tmin_units":1,"tstar_units":2,"points":[
			{"time_units":2,"energy_j":1,"freqs_mhz":[100]},
			{"time_units":2,"energy_j":1,"freqs_mhz":[100]}]}`},
		{"ragged freqs", `{"unit_s":0.001,"tmin_units":1,"tstar_units":2,"points":[
			{"time_units":1,"energy_j":1,"freqs_mhz":[100]},
			{"time_units":2,"energy_j":1,"freqs_mhz":[100,200]}]}`},
		{"bad endpoints", `{"unit_s":0.001,"tmin_units":5,"tstar_units":9,"points":[
			{"time_units":1,"energy_j":1,"freqs_mhz":[100]},
			{"time_units":2,"energy_j":1,"freqs_mhz":[100]}]}`},
	}
	for _, c := range cases {
		if _, err := LoadTable(strings.NewReader(c.json)); err == nil {
			t.Errorf("%s: LoadTable accepted invalid input", c.name)
		}
	}
}
