package obs

import (
	"context"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one finished operation of a distributed trace: a node of a
// span tree identified by (TraceID, SpanID) with ParentID linking it to
// its parent ("" for the root). The control stack records spans around
// HTTP requests, store snapshots, plan-cache lookups, planner solves,
// controller tick stages, and long-poll parks; GET /debug/traces
// serves assembled trees.
type Span struct {
	TraceID    string            `json:"trace_id"`
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_id,omitempty"`
	Name       string            `json:"name"`
	StartUnixS float64           `json:"start_unix_s"`
	DurS       float64           `json:"dur_s"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Error      string            `json:"error,omitempty"`
}

// DefaultTracerCapacity bounds a Tracer constructed with capacity <= 0.
const DefaultTracerCapacity = 2048

// Tracer produces spans and retains the most recent finished ones in a
// bounded concurrency-safe ring — the storage GET /debug/traces
// assembles trees from. Safe for concurrent use. The zero capacity
// constructor retains DefaultTracerCapacity spans.
type Tracer struct {
	mu    sync.Mutex
	spans ring[record]
	drops uint64

	// clock is read on every span start and end without taking mu.
	clock atomic.Pointer[func() time.Time]

	// onPush, when set, observes every finished span's name as it
	// commits — the server's hook for mirroring span counts into the
	// metric registry. Called outside the ring lock.
	onPush func(name string)
}

// NewTracer returns a tracer retaining up to capacity finished spans
// (DefaultTracerCapacity if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCapacity
	}
	t := &Tracer{spans: newRing[record](capacity)}
	t.SetClock(time.Now)
	return t
}

// SetClock replaces the tracer's wall clock (fake-clock tests). The
// clock stamps span start times and measures durations, so a frozen
// clock yields zero-duration spans with deterministic timestamps.
func (t *Tracer) SetClock(fn func() time.Time) {
	if fn != nil {
		t.clock.Store(&fn)
	}
}

func (t *Tracer) now() time.Time { return (*t.clock.Load())() }

// Drops reports how many finished spans the ring has overwritten.
func (t *Tracer) Drops() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drops
}

// OnPush registers a hook observing the name of every finished span as
// it commits (replacing any prior). The hook runs outside the ring
// lock, on the goroutine that ended the span.
func (t *Tracer) OnPush(fn func(name string)) {
	t.mu.Lock()
	t.onPush = fn
	t.mu.Unlock()
}

// push appends one finished span, overwriting the oldest at capacity.
func (t *Tracer) push(r *record) {
	t.mu.Lock()
	if t.spans.push(*r) {
		t.drops++
	}
	fn := t.onPush
	t.mu.Unlock()
	if fn != nil {
		fn(r.name)
	}
}

// retained calls fn with every retained span record, oldest first.
// Callers hold t.mu.
func (t *Tracer) retained(fn func(r *record)) {
	for i := range t.spans.n {
		fn(t.spans.at(i))
	}
}

// newID returns n ≤ 16 random bytes as lowercase hex, allocating only
// the string. math/rand/v2's global generator is concurrency-safe and
// cheap; span IDs need uniqueness, not unpredictability.
func newID(n int) string {
	var b [16]byte
	var dst [32]byte
	for i := 0; i < n; i += 8 {
		v := rand.Uint64()
		for j := 0; j < 8 && i+j < n; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	return string(dst[:hex.Encode(dst[:], b[:n])])
}

// newSpanID returns a random non-zero span ID, kept as a number until
// it is read (formatSpanID renders it as newID(8) renders its bytes).
func newSpanID() uint64 {
	for {
		if v := rand.Uint64(); v != 0 {
			return v
		}
	}
}

// formatSpanID renders a span ID as 16 lowercase hex digits, "" for 0.
func formatSpanID(v uint64) string {
	if v == 0 {
		return ""
	}
	var b [8]byte
	var dst [16]byte
	for j := range b {
		b[j] = byte(v >> (8 * j))
	}
	hex.Encode(dst[:], b[:])
	return string(dst[:])
}

// parseSpanID is formatSpanID's inverse: 0 for anything but 16 hex
// digits.
func parseSpanID(s string) uint64 {
	var b [8]byte
	if len(s) != 16 {
		return 0
	}
	if _, err := hex.Decode(b[:], []byte(s)); err != nil {
		return 0
	}
	var v uint64
	for j, c := range b {
		v |= uint64(c) << (8 * j)
	}
	return v
}

// inlineAttrs is how many attributes a span record holds without
// allocating: every span the server records sets at most three.
const inlineAttrs = 4

// attr is one span attribute.
type attr struct{ key, value string }

// record is a span as it is built and as the ring retains it: Span with
// its span IDs as numbers and its attributes inline. The exported Span,
// with its Attrs map, is built from it only when read (Traces).
type record struct {
	traceID          string
	spanID, parentID uint64 // parentID 0: the root of its trace here
	name             string
	startUnixS, durS float64
	err              string
	nattrs           int
	attrs            [inlineAttrs]attr
	more             []attr // past inlineAttrs, in the order first set
}

// set records one attribute, replacing an earlier value of the key.
func (r *record) set(key, value string) {
	for i := range r.attrs[:min(r.nattrs, inlineAttrs)] {
		if r.attrs[i].key == key {
			r.attrs[i].value = value
			return
		}
	}
	for i := range r.more {
		if r.more[i].key == key {
			r.more[i].value = value
			return
		}
	}
	if r.nattrs < inlineAttrs {
		r.attrs[r.nattrs] = attr{key, value}
	} else {
		r.more = append(r.more, attr{key, value})
	}
	r.nattrs++
}

// span renders the record as the exported Span.
func (r *record) span() Span {
	sp := Span{
		TraceID:    r.traceID,
		SpanID:     formatSpanID(r.spanID),
		ParentID:   formatSpanID(r.parentID),
		Name:       r.name,
		StartUnixS: r.startUnixS,
		DurS:       r.durS,
		Error:      r.err,
	}
	if r.nattrs > 0 {
		sp.Attrs = make(map[string]string, r.nattrs)
		for _, a := range r.attrs[:min(r.nattrs, inlineAttrs)] {
			sp.Attrs[a.key] = a.value
		}
		for _, a := range r.more {
			sp.Attrs[a.key] = a.value
		}
	}
	return sp
}

// ActiveSpan is an in-flight span. A nil *ActiveSpan is a valid no-op:
// every method tolerates it, so instrumentation sites pay only a nil
// check when no trace is active (e.g. direct library calls that never
// passed through the HTTP middleware or the controller loop).
//
// A started span is also the context it is active in: the context it
// was started under, plus itself as the active span — so starting one
// costs no separate context.WithValue. Like any context it may be used
// from several goroutines.
type ActiveSpan struct {
	context.Context // the context the span was started under
	t               *Tracer
	start           time.Time
	mu              sync.Mutex
	rec             record // traceID, spanID and parentID never change
	ended           bool
}

type ctxKey struct{}

// Value implements context.Context: the span itself under the active-
// span key, the parent context's values otherwise.
func (s *ActiveSpan) Value(key any) any {
	if key == (ctxKey{}) {
		return s
	}
	return s.Context.Value(key)
}

// SpanFromContext returns the active span (nil when none).
func SpanFromContext(ctx context.Context) *ActiveSpan {
	if s, ok := ctx.(*ActiveSpan); ok {
		return s
	}
	s, _ := ctx.Value(ctxKey{}).(*ActiveSpan)
	return s
}

// TraceIDFromContext returns the active trace's ID ("" when none) —
// the cross-link event emitters label events with.
func TraceIDFromContext(ctx context.Context) string {
	return SpanFromContext(ctx).TraceID()
}

// StartSpan starts a span: a child of the context's active span when
// one exists, the root of a fresh trace otherwise. The returned context
// — the span itself — carries the new span as the active one.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	if p := SpanFromContext(ctx); p != nil {
		return t.start(ctx, name, p.rec.traceID, p.rec.spanID)
	}
	return t.start(ctx, name, newID(16), 0)
}

// StartRemote starts a root-of-this-process span continuing a remote
// trace: traceID and parentID come from an incoming traceparent header
// (ParseTraceparent). Empty traceID starts a fresh trace (the no-header
// case).
func (t *Tracer) StartRemote(ctx context.Context, name, traceID, parentID string) (context.Context, *ActiveSpan) {
	if traceID == "" {
		return t.start(ctx, name, newID(16), 0)
	}
	return t.start(ctx, name, traceID, parseSpanID(parentID))
}

func (t *Tracer) start(ctx context.Context, name, traceID string, parentID uint64) (context.Context, *ActiveSpan) {
	now := t.now()
	s := &ActiveSpan{
		Context: ctx,
		t:       t,
		start:   now,
		rec: record{
			traceID:    traceID,
			spanID:     newSpanID(),
			parentID:   parentID,
			name:       name,
			startUnixS: float64(now.UnixNano()) / 1e9,
		},
	}
	return s, s
}

// Child starts a child of the context's active span through that span's
// own tracer. With no active span it returns (ctx, nil): the whole
// subtree below stays no-op, which keeps untraced hot paths (direct
// API calls, benchmarks) at a nil-check of overhead.
func Child(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	p := SpanFromContext(ctx)
	if p == nil {
		return ctx, nil
	}
	return p.t.start(ctx, name, p.rec.traceID, p.rec.spanID)
}

// TraceID returns the span's trace ID ("" on nil).
func (s *ActiveSpan) TraceID() string {
	if s == nil {
		return ""
	}
	return s.rec.traceID
}

// SpanID returns the span's ID ("" on nil).
func (s *ActiveSpan) SpanID() string {
	if s == nil {
		return ""
	}
	return formatSpanID(s.rec.spanID)
}

// SetAttr records one attribute (no-op on nil or after End).
func (s *ActiveSpan) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.rec.set(key, value)
	}
	s.mu.Unlock()
}

// Fail marks the span errored (nil error and nil span are no-ops).
func (s *ActiveSpan) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.rec.err = err.Error()
	}
	s.mu.Unlock()
}

// End finishes the span and commits it to the tracer's ring.
// Idempotent; no-op on nil.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	now := s.t.now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	if d := now.Sub(s.start); d > 0 {
		s.rec.durS = d.Seconds()
	}
	s.mu.Unlock()
	// Ended, the record no longer changes: no lock needed to copy it.
	s.t.push(&s.rec)
}

// Trace is one assembled span tree: every retained span sharing a
// trace ID, in start order, with the root identified when retained.
type Trace struct {
	TraceID string `json:"trace_id"`

	// Root names the root span ("" when the root was evicted or has
	// not finished yet).
	Root string `json:"root,omitempty"`

	// StartUnixS is the earliest retained span start; DurS is the root
	// span's duration (the longest retained span's when no root).
	StartUnixS float64 `json:"start_unix_s"`
	DurS       float64 `json:"dur_s"`

	// Err reports whether any span of the trace recorded an error.
	Err bool `json:"err,omitempty"`

	Spans []Span `json:"spans"`
}

// Traces assembles the retained spans into traces, newest first
// (ordered by each trace's most recently finished span). limit <= 0
// returns every retained trace; minDur keeps only traces whose
// duration is at least it; op keeps only traces containing a span with
// that exact name ("" keeps all).
func (t *Tracer) Traces(limit int, minDur time.Duration, op string) []Trace {
	t.mu.Lock()
	recs := make([]record, 0, t.spans.n)
	t.retained(func(r *record) { recs = append(recs, *r) })
	t.mu.Unlock()
	spans := make([]Span, len(recs))
	for i := range recs {
		spans[i] = recs[i].span()
	}

	// Group by trace, keeping the finish order so traces can be ranked
	// newest-first by their last finished span.
	byID := map[string]*Trace{}
	last := map[string]int{}
	var order []string
	for i, sp := range spans {
		tr, ok := byID[sp.TraceID]
		if !ok {
			tr = &Trace{TraceID: sp.TraceID}
			byID[sp.TraceID] = tr
			order = append(order, sp.TraceID)
		}
		tr.Spans = append(tr.Spans, sp)
		last[sp.TraceID] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return last[order[a]] > last[order[b]] })

	out := make([]Trace, 0, len(order))
	for _, id := range order {
		tr := byID[id]
		sort.SliceStable(tr.Spans, func(a, b int) bool {
			return tr.Spans[a].StartUnixS < tr.Spans[b].StartUnixS
		})
		match := op == ""
		var maxDur float64
		for _, sp := range tr.Spans {
			if sp.Name == op {
				match = true
			}
			if sp.Error != "" {
				tr.Err = true
			}
			if sp.ParentID == "" {
				tr.Root = sp.Name
				tr.DurS = sp.DurS
			}
			if sp.DurS > maxDur {
				maxDur = sp.DurS
			}
		}
		tr.StartUnixS = tr.Spans[0].StartUnixS
		if tr.Root == "" {
			tr.DurS = maxDur
		}
		if !match || tr.DurS < minDur.Seconds() {
			continue
		}
		out = append(out, *tr)
		if limit > 0 && len(out) == limit {
			break
		}
	}
	return out
}

// WorstSpan finds, among retained spans with the given name that
// started at or after since, the one that best explains an SLO breach:
// with errOnly the most recently finished errored span, otherwise the
// longest. It returns that span's trace ID ("" when none qualifies).
func (t *Tracer) WorstSpan(name string, since time.Time, errOnly bool) string {
	sinceS := float64(since.UnixNano()) / 1e9
	t.mu.Lock()
	defer t.mu.Unlock()
	var traceID string
	var bestDur float64 = -1
	t.retained(func(sp *record) {
		if sp.name != name || sp.startUnixS < sinceS {
			return
		}
		if errOnly {
			if sp.err != "" {
				traceID = sp.traceID // ring order: keeps the newest
			}
			return
		}
		if sp.durS > bestDur {
			bestDur = sp.durS
			traceID = sp.traceID
		}
	})
	return traceID
}

// FormatTraceparent renders a W3C traceparent header (version 00,
// sampled flag set) for the given trace and span IDs.
func FormatTraceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// Traceparent renders the context's active span as a traceparent
// header ("" when no trace is active) — what an outbound call attaches
// so the callee's spans join this trace.
func Traceparent(ctx context.Context) string {
	s := SpanFromContext(ctx)
	if s == nil {
		return ""
	}
	return FormatTraceparent(s.rec.traceID, formatSpanID(s.rec.spanID))
}

// NewTraceparent mints a traceparent for a fresh trace — what a
// process without a tracer (e.g. a trainer-side client) attaches to
// correlate its calls under one trace ID.
func NewTraceparent() string {
	return FormatTraceparent(newID(16), newID(8))
}

// ParseTraceparent extracts the trace and parent-span IDs from a W3C
// traceparent header (version-field lenient, length-strict). ok is
// false for absent or malformed headers — the caller then starts a
// fresh trace.
func ParseTraceparent(h string) (traceID, spanID string, ok bool) {
	h = strings.TrimSpace(h)
	parts := strings.Split(h, "-")
	if len(parts) != 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return "", "", false
	}
	if !isHex(parts[1]) || !isHex(parts[2]) || parts[1] == strings.Repeat("0", 32) || parts[2] == strings.Repeat("0", 16) {
		return "", "", false
	}
	return parts[1], parts[2], true
}

func isHex(s string) bool {
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// String renders a compact one-line view (debug helper).
func (s Span) String() string {
	return fmt.Sprintf("%s %s (%.3fms)", s.Name, s.SpanID, s.DurS*1e3)
}
