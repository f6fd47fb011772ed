package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedianAndBlockMedian(t *testing.T) {
	cases := []struct {
		name   string
		blocks [][]float64
		want   float64
	}{
		{"empty", nil, 0},
		{"one block, odd", [][]float64{{3, 1, 2}}, 2},
		{"one block, even", [][]float64{{4, 1, 3, 2}}, 2.5},
		{"a slow block does not move the figure", [][]float64{{1, 1, 1}, {1, 1, 1}, {9, 9, 9}, {1, 1, 1}, {1, 1, 1}}, 1},
		{"outliers inside a block do not move it", [][]float64{{1, 1, 100}, {2, 2, 100}, {3, 3, 100}}, 2},
		{"empty blocks are skipped", [][]float64{{}, {5}, {}, {7}}, 6},
	}
	for _, c := range cases {
		if got := blockMedian(c.blocks); !near(got, c.want) {
			t.Errorf("%s: blockMedian = %v, want %v", c.name, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its argument: %v", in)
	}
}

func TestGeomean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{1, 100}, 10},
		{[]float64{2, 8, 4}, 4},
		{[]float64{5, 0}, 0},
		{[]float64{5, -1}, 0},
	}
	for _, c := range cases {
		if got := geomean(c.xs); !near(got, c.want) {
			t.Errorf("geomean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n       int
		ok      bool
		pct     float64
		value   float64
		comment string
	}{
		{50, false, 0, 0, "p90 of 50 has 5 beyond"},
		{99, false, 0, 0, "p90 of 99 has 9 beyond"},
		{100, true, 90, 90, "p90 of 100 has exactly 10 beyond"},
		{199, true, 90, 180, "p95 of 199 has 9 beyond"},
		{200, true, 95, 190, "p95 of 200 has exactly 10 beyond"},
		{1000, true, 99, 990, "p99 of 1000 has exactly 10 beyond"},
		{10000, true, 99.9, 9990, "p99.9 of 10000 has exactly 10 beyond"},
	}
	for _, c := range cases {
		pct, v, ok := tail(seq(c.n))
		if ok != c.ok || pct != c.pct || v != c.value {
			t.Errorf("n=%d (%s): got p%g=%v ok=%v, want p%g=%v ok=%v", c.n, c.comment, pct, v, ok, c.pct, c.value, c.ok)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  []int64
	}{
		{"leaf", []span{{ID: 1, StartNs: 0, EndNs: 10}}, []int64{10}},
		{"one child", []span{
			{ID: 1, StartNs: 0, EndNs: 100},
			{ID: 2, Parent: 1, StartNs: 10, EndNs: 40},
		}, []int64{70, 30}},
		{"disjoint children", []span{
			{ID: 1, StartNs: 0, EndNs: 100},
			{ID: 2, Parent: 1, StartNs: 10, EndNs: 40},
			{ID: 3, Parent: 1, StartNs: 50, EndNs: 90},
		}, []int64{30, 30, 40}},
		{"overlapping children count once", []span{
			{ID: 1, StartNs: 0, EndNs: 100},
			{ID: 2, Parent: 1, StartNs: 10, EndNs: 60},
			{ID: 3, Parent: 1, StartNs: 40, EndNs: 90},
		}, []int64{20, 50, 50}},
		{"a child inside another child", []span{
			{ID: 1, StartNs: 0, EndNs: 100},
			{ID: 2, Parent: 1, StartNs: 10, EndNs: 90},
			{ID: 3, Parent: 1, StartNs: 20, EndNs: 30},
		}, []int64{20, 80, 10}},
		{"a child that started before its parent is clipped", []span{
			{ID: 1, StartNs: 50, EndNs: 100},
			{ID: 2, Parent: 1, StartNs: 0, EndNs: 70},
		}, []int64{30, 70}},
		{"grandchildren are the child's business", []span{
			{ID: 1, StartNs: 0, EndNs: 100},
			{ID: 2, Parent: 1, StartNs: 0, EndNs: 80},
			{ID: 3, Parent: 2, StartNs: 0, EndNs: 50},
		}, []int64{20, 30, 50}},
		{"an unknown parent makes a root", []span{
			{ID: 5, Parent: 99, StartNs: 0, EndNs: 10},
		}, []int64{10}},
	}
	for _, c := range cases {
		got := selfTimes(c.spans)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: self times %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}

func TestLayerSelfCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: layerHarness, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Layer: "client", StartNs: 5, EndNs: 95},
		{ID: 3, Layer: layerHarness, StartNs: 200, EndNs: 300},
		{ID: 4, Parent: 3, Layer: "region", StartNs: 200, EndNs: 290},
	}
	byLayer, coverage := layerSelf(spans)
	if byLayer["client"] != 90 || byLayer["region"] != 90 || byLayer[layerHarness] != 20 {
		t.Errorf("self time by layer: %v", byLayer)
	}
	if !near(coverage, 0.9) {
		t.Errorf("coverage %v, want 0.9", coverage)
	}
}

func TestTracerLinksSpans(t *testing.T) {
	var none *tracer
	none.op("x").child("layer", "y").end() // a nil tracer records nothing and does not panic

	tr := newTracer()
	a := tr.op("first")
	b := a.child("client", "call")
	b.end()
	a.end()
	c := tr.op("second")
	c.end()
	spans := tr.finished()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[1].Op != spans[0].Op || spans[0].Parent != 0 {
		t.Errorf("child not linked to its operation's root: %+v", spans[:2])
	}
	if spans[2].Op == spans[0].Op {
		t.Errorf("two operations share id %d", spans[2].Op)
	}
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %d ends before it starts", s.ID)
		}
	}
}

func TestHostSpeedFactor(t *testing.T) {
	var h hostSpeed
	if h.factor() != 1 {
		t.Errorf("factor before any sample = %v, want 1", h.factor())
	}
	h.passMs = []float64{24, 6, 8} // median 8: the host runs 1.5x faster than nominal
	if want := calibNominalMs / 8; !near(h.factor(), want) {
		t.Errorf("factor = %v, want %v", h.factor(), want)
	}
	h = hostSpeed{}
	h.sample()
	if len(h.passMs) != 1 || !(h.passMs[0] > 0) {
		t.Errorf("sample recorded %v", h.passMs)
	}
}
