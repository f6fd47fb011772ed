package obs

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry exercising every metric kind, label
// sorting, and the exposition escaping rules. Observed values are
// binary-exact floats so the rendered sums are stable across platforms.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("test_requests_total", "Total requests.").Add(3)

	cv := r.CounterVec("test_cache_ops_total", "Cache operations.", "op")
	cv.With("miss").Inc()
	cv.With("hit").Add(5) // registered after "miss": output must still sort hit first

	r.Gauge("test_in_flight", "In-flight requests.").Set(2)

	gv := r.GaugeVec("test_weird_labels", "Escaping: backslash \\ and\nnewline.", "path")
	gv.With("a\\b\"c\nd").Set(1)

	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.0078125, 0.0625, 0.5, 4} {
		h.Observe(v)
	}

	hv := r.HistogramVec("test_op_seconds", "Per-op latency.", []float64{1}, "op")
	hv.With("plan").Observe(0.5)

	// Function-backed twins of test_cache_ops_total and test_in_flight.
	r.CounterView("test_view_ops_total", "Cache operations.", func(emit func(float64, ...string)) {
		emit(1, "miss")
		emit(5, "hit")
	}, "op")
	r.GaugeView("test_view_in_flight", "In-flight requests.", func(emit func(float64, ...string)) {
		emit(2)
	})
	return r
}

// TestWritePrometheusGolden pins the full exposition output — family
// and series ordering, histogram bucket/sum/count layout, HELP and
// label escaping — against testdata/exposition.golden.
func TestWritePrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	path := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// A view renders byte for byte like the handle family it mirrors.
	for handle, view := range map[string]string{"test_cache_ops_total": "test_view_ops_total", "test_in_flight": "test_view_in_flight"} {
		if h, v := familyText(got, handle), familyText(got, view); h == "" || strings.ReplaceAll(v, view, handle) != h {
			t.Errorf("view %s renders\n%s\nunlike its handle twin\n%s", view, v, h)
		}
	}
}

// familyText returns the exposition lines of one family.
func familyText(expo, name string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(expo, "\n") {
		if fields := strings.Fields(strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")); len(fields) > 0 &&
			strings.SplitN(fields[0], "{", 2)[0] == name {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestCounterViewMonotone: a counter view never reads lower than it
// last did, wherever it is read, and forgets a series it stops emitting.
func TestCounterViewMonotone(t *testing.T) {
	r := NewRegistry()
	vals := map[string]float64{"a": 10}
	r.CounterView("test_view_total", "v", func(emit func(float64, ...string)) {
		for _, k := range []string{"a", "b"} {
			if v, ok := vals[k]; ok {
				emit(v, k)
			}
		}
	}, "k")
	read := func() float64 {
		v, ok := r.CounterValue("test_view_total")
		if !ok {
			t.Fatal("view family missing")
		}
		return v
	}
	for i, step := range []struct{ set, want float64 }{{10, 10}, {10 - 1e-12, 10}, {11, 11}} {
		vals["a"] = step.set
		if got := read(); got != step.want {
			t.Fatalf("read %d = %v, want %v", i, got, step.want)
		}
	}
	// The scrape applies the same floor.
	vals["a"] = 5
	if out := exposition(t, r); !strings.Contains(out, `test_view_total{k="a"} 11`+"\n") {
		t.Fatalf("scrape went below the last read:\n%s", out)
	}
	// A series the view stops emitting is forgotten: it leaves the
	// exposition, and when it returns it reads as emitted.
	vals["b"] = 7
	_ = read()
	delete(vals, "b")
	if out := exposition(t, r); strings.Contains(out, `k="b"`) {
		t.Fatalf("dropped series still rendered:\n%s", out)
	}
	vals["b"] = 3
	if got := read(); got != 11+3 {
		t.Fatalf("returning series reads %v, want 11 + 3", got-11)
	}
}

// TestGaugeViewReadsAsEmitted: a gauge view may go down.
func TestGaugeViewReadsAsEmitted(t *testing.T) {
	r := NewRegistry()
	v := 4.0
	r.GaugeView("test_view_gauge", "v", func(emit func(float64, ...string)) { emit(v) })
	for _, want := range []float64{4, -2} {
		v = want
		if got, ok := r.GaugeValue("test_view_gauge"); !ok || got != want {
			t.Fatalf("GaugeValue = %v, %v, want %v", got, ok, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a view did not panic")
		}
	}()
	r.GaugeView("test_view_gauge", "v", func(func(float64, ...string)) {})
}

func exposition(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestExpositionDeterministic re-renders the same registry and demands
// byte-identical output — scrapes must be stable under map iteration.
func TestExpositionDeterministic(t *testing.T) {
	r := goldenRegistry()
	var a, b strings.Builder
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two renders of one registry differ")
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	a.Add(2)
	if got := r.Counter("x_total", "x").Value(); got != 2 {
		t.Errorf("re-registration returned a fresh counter: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "q", []float64{1, 2, 4})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("quantile of an empty histogram should be NaN")
	}
	// 10 observations in (1,2]: cumulative crosses anywhere inside that
	// bucket, interpolated linearly from 1 to 2.
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
	}
	if got := h.Quantile(0.5); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("p50 = %v, want 1.5 (midpoint of the (1,2] bucket)", got)
	}
	// Push 10 more into (2,4]: p99 lands near that bucket's top.
	for i := 0; i < 10; i++ {
		h.Observe(3)
	}
	p99 := h.Quantile(0.99)
	if p99 < 2 || p99 > 4 {
		t.Errorf("p99 = %v, want inside (2,4]", p99)
	}
	// Beyond the last finite bound: saturates at it.
	h.Observe(100)
	if got := h.Quantile(1); got != 4 {
		t.Errorf("q1 with an overflow observation = %v, want the last bound 4", got)
	}
}

func TestCounterRejectsDecrease(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	c.Add(math.NaN())
	if c.Value() != 5 {
		t.Errorf("counter after negative/NaN adds = %v, want 5", c.Value())
	}
}

// TestRegistryRace hammers one registry from concurrent writers and
// scrapers; run under -race (CI does) it proves the registry is safe
// to share between HTTP handlers, controller ticks, and /metrics
// scrapes.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_total", "race")
	g := r.Gauge("race_gauge", "race")
	cv := r.CounterVec("race_vec_total", "race", "who")
	h := r.Histogram("race_seconds", "race", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			who := string(rune('a' + w))
			for i := 0; i < 500; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				cv.With(who).Inc()
				h.Observe(float64(i) / 1000)
			}
		}(w)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8*500 {
		t.Errorf("racing counter = %v, want %d", got, 8*500)
	}
	if got := h.Count(); got != 8*500 {
		t.Errorf("racing histogram count = %v, want %d", got, 8*500)
	}
}

// TestWithFindsRenderedSeries: With finds a series by its label values
// and renders its block once, at creation. The series it returns is
// the one exposed under the block the label values render to — for
// values that need escaping, empty values and values a naive join
// would confuse — and distinct values never share a series.
func TestWithFindsRenderedSeries(t *testing.T) {
	r := NewRegistry()
	tuples := [][]string{
		{"", "", ""}, {`"`, `\`, "\n"}, {"a,b", "", "c"}, {"a", "b,", "c"},
		{`a\`, `"b`, ""}, {"plain", "plain", "plain"}, {"", "x", ""}, {"\n\n", `\"`, "x"},
	}
	for arity := 0; arity <= 3; arity++ {
		labels := []string{"l0", "l1", "l2"}[:arity]
		cv := r.CounterVec(fmt.Sprintf("with_arity%d_total", arity), "h", labels...)
		seen := map[*Counter]string{}
		for _, tuple := range tuples {
			vals := tuple[:arity]
			c := cv.With(vals...)
			key := renderLabels(cv.f.labels, vals)
			var exposed *Counter
			for _, h := range cv.f.handles() {
				if h.key == key {
					exposed = h.s.(*Counter)
				}
			}
			if exposed != c || cv.With(append([]string(nil), vals...)...) != c {
				t.Fatalf("arity %d, values %q: With and the series exposed as %s disagree", arity, vals, key)
			}
			if prev, ok := seen[c]; ok && prev != key {
				t.Fatalf("arity %d: %s and %s share a series", arity, prev, key)
			}
			seen[c] = key
			c.Inc()
		}
		var total float64
		for _, s := range cv.f.scalars() {
			total += s.v
		}
		if len(seen) != len(cv.f.series) || total != float64(len(tuples)) {
			t.Fatalf("arity %d: %d series seen, %d stored, %v counted", arity, len(seen), len(cv.f.series), total)
		}
	}
	if !strings.Contains(exposition(t, r), `with_arity3_total{l0="\"",l1="\\",l2="\n"} 1`) {
		t.Fatalf("escaped series missing from\n%s", exposition(t, r))
	}
}

// TestWithWrongArityPanics: a wrong number of label values panics
// whether or not the family already holds a series, and a handle-backed
// family of more labels than the lookup key holds panics at
// registration (a function-backed one may have more).
func TestWithWrongArityPanics(t *testing.T) {
	r := NewRegistry()
	two := r.GaugeVec("arity_two", "h", "a", "b")
	two.With("x", "")
	r.GaugeView("arity_four_view", "h", func(emit func(float64, ...string)) { emit(1, "w", "x", "y", "z") }, "a", "b", "c", "d")
	for name, call := range map[string]func(){
		"two with one":   func() { two.With("x") },
		"two with three": func() { two.With("x", "", "") },
		"two with none":  func() { two.With() },
		"four-label counter family": func() {
			r.CounterVec("arity_four_total", "h", "a", "b", "c", "d")
		},
		"four-label histogram family": func() {
			r.HistogramVec("arity_four_seconds", "h", nil, "a", "b", "c", "d")
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
	if !strings.Contains(exposition(t, r), `arity_four_view{a="w",b="x",c="y",d="z"} 1`) {
		t.Fatalf("four-label view missing from\n%s", exposition(t, r))
	}
}

// TestWithConcurrent creates and finds series from many goroutines at
// once: every caller of one label tuple gets the one series, and no
// increment is lost. Run it under -race.
func TestWithConcurrent(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("with_race_total", "h", "route", "method", "code")
	const workers, rounds = 8, 400
	got := make([][]*Counter, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c := cv.With(fmt.Sprint(i%16), "GET", `"`+fmt.Sprint(i%3))
				c.Inc()
				if i < 48 {
					got[w] = append(got[w], c)
				}
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range got[w] {
			if got[w][i] != got[0][i] {
				t.Fatalf("worker %d, call %d: a second series for one tuple", w, i)
			}
		}
	}
	if n, _ := r.CounterValue("with_race_total"); n != workers*rounds || len(cv.f.series) != 48 {
		t.Fatalf("%v increments over %d series, want %d over 48", n, len(cv.f.series), workers*rounds)
	}
}
