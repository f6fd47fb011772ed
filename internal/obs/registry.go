// Package obs is the repository's dependency-free observability layer:
// typed Counter/Gauge/Histogram metrics and function-backed counter and
// gauge families (read at scrape time from the structure that owns the
// number) in a concurrency-safe Registry with hand-rolled Prometheus
// text exposition (no external modules), a bounded in-memory event ring
// for tracing controller ticks, re-plans, and migrations (events.go),
// and Solve, which times, counts and traces one planning-layer solve
// (planner.go).
//
// The server (internal/server) owns one Registry and one Ring and
// exposes them at GET /metrics and GET /debug/events; everything here
// is also usable standalone from experiments and CLIs.
package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// LatencyBuckets are the default fixed histogram buckets for latency
// observations in seconds: they span sub-microsecond cache hits through
// multi-second planner solves.
var LatencyBuckets = []float64{
	1e-6, 1e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing float64. The zero value is
// usable; Registry.Counter hands out registered ones.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v; negative deltas are ignored (counters never decrease).
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds v (negative to subtract).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution: observation counts per
// upper bound plus sum and count, with quantile estimation by linear
// interpolation inside the crossing bucket.
type Histogram struct {
	mu     sync.Mutex
	upper  []float64 // sorted finite upper bounds; +Inf is implicit
	counts []uint64  // per-bucket (non-cumulative), len(upper)+1
	count  uint64
	sum    float64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.upper, v) // first bound >= v
	h.counts[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile estimates the q-quantile (e.g. 0.5, 0.99) by linear
// interpolation within the bucket the cumulative count crosses in —
// the same estimate Prometheus's histogram_quantile computes. Returns
// NaN with no observations; observations beyond the last finite bound
// report that bound (the estimate saturates, as histogram_quantile's
// does).
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return bucketQuantile(h.upper, h.counts, h.count, q)
}

// bucketQuantile is Quantile's core over explicit (non-cumulative)
// bucket counts — shared with the SLO engine, which computes windowed
// quantiles from bucket-count deltas between snapshots.
func bucketQuantile(upper []float64, counts []uint64, count uint64, q float64) float64 {
	if count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(count)
	var cum float64
	for i, c := range counts {
		next := cum + float64(c)
		if next >= rank && c > 0 {
			if i >= len(upper) { // +Inf bucket: saturate at last finite bound
				if len(upper) == 0 {
					return math.NaN()
				}
				return upper[len(upper)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = upper[i-1]
			}
			frac := (rank - cum) / float64(c)
			return lo + (upper[i]-lo)*frac
		}
		cum = next
	}
	if len(upper) == 0 {
		return math.NaN()
	}
	return upper[len(upper)-1]
}

// raw copies the non-cumulative per-bucket counts and the total.
func (h *Histogram) raw() (counts []uint64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.counts...), h.count
}

// snapshot returns cumulative bucket counts aligned with upper (+Inf
// last), the total count, and the sum.
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		cum[i] = acc
	}
	return cum, h.count, h.sum
}

// metricKind is the exposition TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// View computes a function-backed family's series each time the family
// is read: it calls emit once per series with the series' value and one
// label value per label name. The number stays owned by whatever the
// view reads; the registry keeps no copy of it to fall out of step.
type View func(emit func(v float64, labelValues ...string))

// family is one named metric and its label-partitioned series: handles
// created by with, or, for a function-backed family, whatever its view
// emits when read.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64 // histograms only
	view    View      // function-backed families only

	mu     sync.Mutex
	series map[labelVals]handle // handle-backed series by label values
	last   map[string]float64   // counter views: each series' last value read
}

// labelVals is a handle-backed series' label values as a map key, so a
// family finds an existing series without rendering its label block. A
// handle-backed family has at most as many labels as it holds.
type labelVals [3]string

// newSeries materializes an empty series of the family's kind.
func (f *family) newSeries() any {
	switch f.kind {
	case kindCounter:
		return &Counter{}
	case kindGauge:
		return &Gauge{}
	default:
		return &Histogram{upper: f.buckets, counts: make([]uint64, len(f.buckets)+1)}
	}
}

// checkArity panics unless there is one value per label.
func (f *family) checkArity(values []string) {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
}

// key renders the label block for the label values.
func (f *family) key(values []string) string {
	f.checkArity(values)
	return renderLabels(f.labels, values)
}

// with returns (creating if needed) the series for the label values,
// rendering its label block only when it creates it.
func (f *family) with(values []string) any {
	f.checkArity(values)
	var vals labelVals
	copy(vals[:], values)
	f.mu.Lock()
	defer f.mu.Unlock()
	h, ok := f.series[vals]
	if !ok {
		h = handle{renderLabels(f.labels, values), f.newSeries()}
		f.series[vals] = h
	}
	return h.s
}

// handle is one handle-backed series.
type handle struct {
	key string // rendered label block
	s   any
}

// handles snapshots the family's handle-backed series, sorted by label
// block.
func (f *family) handles() []handle {
	f.mu.Lock()
	hs := make([]handle, 0, len(f.series))
	for _, h := range f.series {
		hs = append(hs, h)
	}
	f.mu.Unlock()
	slices.SortFunc(hs, func(a, b handle) int { return strings.Compare(a.key, b.key) })
	return hs
}

// sample is one series of a counter or gauge family as read.
type sample struct {
	key string // rendered label block
	v   float64
}

// scalars reads a counter or gauge family's series, sorted by label
// block. A view is called here with no lock held; a counter view's
// values are then raised to the last ones read — a counter never reads
// lower than it did — and the series it no longer emits are forgotten.
func (f *family) scalars() []sample {
	if f.view == nil {
		hs := f.handles()
		out := make([]sample, len(hs))
		for i, h := range hs {
			out[i] = sample{h.key, h.s.(interface{ Value() float64 }).Value()}
		}
		return out
	}
	var out []sample
	f.view(func(v float64, values ...string) {
		out = append(out, sample{f.key(values), v})
	})
	slices.SortFunc(out, func(a, b sample) int { return strings.Compare(a.key, b.key) })
	if f.kind == kindCounter {
		f.mu.Lock()
		for i := range out {
			if prev, ok := f.last[out[i].key]; ok && out[i].v < prev {
				out[i].v = prev
			}
			f.last[out[i].key] = out[i].v
		}
		if len(f.last) > len(out) { // some series were not emitted
			clear(f.last)
			for _, s := range out {
				f.last[s.key] = s.v
			}
		}
		f.mu.Unlock()
	}
	return out
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for the label values (created on first use).
func (v *CounterVec) With(values ...string) *Counter { return v.f.with(values).(*Counter) }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for the label values (created on first use).
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.with(values).(*Gauge) }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the label values (created on first use).
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.with(values).(*Histogram) }

// Registry is a concurrency-safe set of metric families. Registration
// is idempotent for an identical (name, kind) pair; re-registering a
// name as a different kind panics — that is a programming error, not a
// runtime condition.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

func (r *Registry) family(name, help string, kind metricKind, labels []string, buckets []float64, view View) *family {
	if name == "" || strings.ContainsAny(name, " \n\"{}") {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) || f.view != nil || view != nil {
			panic(fmt.Sprintf("obs: metric %s re-registered as a different kind, label set, or view", name))
		}
		return f
	}
	if view == nil && len(labels) > len(labelVals{}) {
		panic(fmt.Sprintf("obs: metric %s has %d labels; a handle-backed family takes at most %d", name, len(labels), len(labelVals{})))
	}
	if kind == kindHistogram {
		if len(buckets) == 0 {
			buckets = LatencyBuckets
		}
		buckets = append([]float64(nil), buckets...)
		sort.Float64s(buckets)
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...), buckets: buckets, view: view,
		series: map[labelVals]handle{}, last: map[string]float64{},
	}
	r.fams[name] = f
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, kindCounter, nil, nil, nil).with(nil).(*Counter)
}

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, labels, nil, nil)}
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, kindGauge, nil, nil, nil).with(nil).(*Gauge)
}

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, labels, nil, nil)}
}

// Histogram registers (or fetches) an unlabeled histogram; nil buckets
// use LatencyBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.family(name, help, kindHistogram, nil, buckets, nil).with(nil).(*Histogram)
}

// HistogramVec registers (or fetches) a labeled histogram family; nil
// buckets use LatencyBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, kindHistogram, labels, buckets, nil)}
}

// CounterView registers a function-backed counter family: fn is called
// at every read of the family — a scrape, CounterValue, an SLO
// evaluation — with no registry or family lock held. A series never
// reads lower than it last did (a value below the last one read reports
// the last), and a series fn stops emitting is forgotten.
func (r *Registry) CounterView(name, help string, fn View, labels ...string) {
	r.family(name, help, kindCounter, labels, nil, fn)
}

// GaugeView registers a function-backed gauge family: fn is called at
// every read of the family, with no registry or family lock held, and
// its series read as emitted.
func (r *Registry) GaugeView(name, help string, fn View, labels ...string) {
	r.family(name, help, kindGauge, labels, nil, fn)
}

// histogramFamilySnapshot aggregates every series of the named
// histogram family into one bucket vector (all series of a family
// share the same bounds): the SLO engine's view of "the" latency
// distribution behind a labeled Vec. ok is false when the family is
// absent, not a histogram, or has no series yet.
func (r *Registry) histogramFamilySnapshot(name string) (upper []float64, counts []uint64, count uint64, ok bool) {
	r.mu.Lock()
	f, found := r.fams[name]
	r.mu.Unlock()
	if !found || f.kind != kindHistogram {
		return nil, nil, 0, false
	}
	hs := f.handles()
	if len(hs) == 0 {
		return nil, nil, 0, false
	}
	counts = make([]uint64, len(f.buckets)+1)
	for _, h := range hs {
		c, n := h.s.(*Histogram).raw()
		for i := range c {
			counts[i] += c[i]
		}
		count += n
	}
	return f.buckets, counts, count, true
}

// scalarTotal sums every series of the named counter or gauge family.
// ok is false when the family is absent or not of that kind; a
// registered family with no series yet reports 0, true — the metric
// exists, nothing has happened.
func (r *Registry) scalarTotal(name string, kind metricKind) (float64, bool) {
	r.mu.Lock()
	f, found := r.fams[name]
	r.mu.Unlock()
	if !found || f.kind != kind {
		return 0, false
	}
	var total float64
	for _, s := range f.scalars() {
		total += s.v
	}
	return total, true
}

// HistogramQuantile estimates the q-quantile of the named histogram
// family, aggregated across all its series — the programmatic
// counterpart of the SLO engine's view, for embedders (the
// perseus-load harness reads p99 park-to-wake latency through it).
// ok is false when the family is absent, not a histogram, or empty.
func (r *Registry) HistogramQuantile(name string, q float64) (v float64, ok bool) {
	upper, counts, count, ok := r.histogramFamilySnapshot(name)
	if !ok || count == 0 {
		return 0, false
	}
	return bucketQuantile(upper, counts, count, q), true
}

// HistogramCount returns the total observation count of the named
// histogram family across all its series. ok is false when the family
// is absent or not a histogram.
func (r *Registry) HistogramCount(name string) (uint64, bool) {
	_, _, count, ok := r.histogramFamilySnapshot(name)
	return count, ok
}

// CounterValue sums every series of the named counter family (the SLO
// engine's ratio inputs). ok is false when the family is absent or not
// a counter.
func (r *Registry) CounterValue(name string) (float64, bool) {
	return r.scalarTotal(name, kindCounter)
}

// GaugeValue sums every series of the named gauge family. ok is false
// when the family is absent or not a gauge.
func (r *Registry) GaugeValue(name string) (float64, bool) {
	return r.scalarTotal(name, kindGauge)
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4): families sorted by name, series sorted by
// label block, HELP text and label values escaped per the format's
// rules. Function-backed families are evaluated during the call, with
// no registry lock held. The output is deterministic for a given
// registry state — the property the golden exposition test pins.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	fams := make([]*family, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	header := func(f *family) {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
	}
	for _, f := range fams {
		if f.kind != kindHistogram {
			samples := f.scalars()
			if len(samples) > 0 {
				header(f)
			}
			for _, s := range samples {
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.key, formatFloat(s.v))
			}
			continue
		}
		hs := f.handles()
		if len(hs) > 0 {
			header(f)
		}
		for _, h := range hs {
			key := h.key
			cum, count, sum := h.s.(*Histogram).snapshot()
			for j, ub := range f.buckets {
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, addLabel(key, "le", formatFloat(ub)), cum[j])
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, addLabel(key, "le", "+Inf"), count)
			fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, key, formatFloat(sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", f.name, key, count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// renderLabels builds the `{k="v",...}` block ("" with no labels).
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// addLabel appends one more label pair to a rendered block (for the
// histogram `le` bound).
func addLabel(block, name, value string) string {
	pair := name + `="` + escapeLabel(value) + `"`
	if block == "" {
		return "{" + pair + "}"
	}
	return block[:len(block)-1] + "," + pair + "}"
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double-quote, and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp escapes HELP text: backslash and newline only.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a sample value the way Prometheus clients do.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
