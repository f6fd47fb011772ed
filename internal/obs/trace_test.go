package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// testClock is a hand-advanced clock for deterministic durations.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestTracer(capacity int) (*Tracer, *testClock) {
	tr := NewTracer(capacity)
	clk := &testClock{now: time.Unix(1_700_000_000, 0)}
	tr.SetClock(clk.Now)
	return tr, clk
}

// TestSpanTreeAssembly pins the core lifecycle: a root with two
// children (one errored) assembles into one trace with correct
// parentage, durations from the tracer clock, ordering by start time,
// and the trace-level error flag set.
func TestSpanTreeAssembly(t *testing.T) {
	tr, clk := newTestTracer(16)

	ctx, root := tr.StartSpan(context.Background(), "op")
	if root.TraceID() == "" || root.SpanID() == "" {
		t.Fatal("root span has empty IDs")
	}
	clk.Advance(10 * time.Millisecond)
	cctx, c1 := Child(ctx, "step1")
	if TraceIDFromContext(cctx) != root.TraceID() {
		t.Fatal("child context lost the trace ID")
	}
	clk.Advance(20 * time.Millisecond)
	c1.SetAttr("k", "v")
	c1.End()
	_, c2 := Child(ctx, "step2")
	c2.Fail(fmt.Errorf("boom"))
	clk.Advance(5 * time.Millisecond)
	c2.End()
	clk.Advance(5 * time.Millisecond)
	root.End()

	traces := tr.Traces(0, 0, "")
	if len(traces) != 1 {
		t.Fatalf("%d traces, want 1", len(traces))
	}
	got := traces[0]
	if got.TraceID != root.TraceID() || got.Root != "op" || !got.Err {
		t.Fatalf("trace header %+v", got)
	}
	if len(got.Spans) != 3 {
		t.Fatalf("%d spans, want 3", len(got.Spans))
	}
	// Start order: op, step1, step2.
	for i, want := range []string{"op", "step1", "step2"} {
		if got.Spans[i].Name != want {
			t.Fatalf("span[%d] = %q, want %q", i, got.Spans[i].Name, want)
		}
	}
	op, s1, s2 := got.Spans[0], got.Spans[1], got.Spans[2]
	if s1.ParentID != op.SpanID || s2.ParentID != op.SpanID || op.ParentID != "" {
		t.Fatalf("parentage op=%s s1<-%s s2<-%s", op.SpanID, s1.ParentID, s2.ParentID)
	}
	if s1.Attrs["k"] != "v" {
		t.Fatalf("child attrs %v", s1.Attrs)
	}
	if s2.Error != "boom" || op.Error != "" || s1.Error != "" {
		t.Fatalf("error marks op=%q s1=%q s2=%q", op.Error, s1.Error, s2.Error)
	}
	const eps = 1e-9
	if d := s1.DurS; d < 0.02-eps || d > 0.02+eps {
		t.Fatalf("step1 duration %v, want 20ms", d)
	}
	if d := op.DurS; d < 0.04-eps || d > 0.04+eps {
		t.Fatalf("root duration %v, want 40ms", d)
	}
	if got.DurS != op.DurS || got.StartUnixS != op.StartUnixS {
		t.Fatalf("trace duration/start %v/%v, want the root's %v/%v",
			got.DurS, got.StartUnixS, op.DurS, op.StartUnixS)
	}
}

// TestChildWithoutActiveSpanIsNoop pins the hot-path contract: with no
// active span in the context, Child returns a nil span whose whole
// method set is safe, and nothing is recorded.
func TestChildWithoutActiveSpanIsNoop(t *testing.T) {
	tr, _ := newTestTracer(4)
	ctx, sp := Child(context.Background(), "orphan")
	if sp != nil {
		t.Fatalf("Child without a trace returned %+v", sp)
	}
	if ctx != context.Background() {
		t.Fatal("Child without a trace replaced the context")
	}
	// The nil span tolerates every call, including on a nil ctx chain.
	sp.SetAttr("k", "v")
	sp.Fail(fmt.Errorf("x"))
	sp.End()
	if got := sp.TraceID(); got != "" {
		t.Fatalf("nil span trace ID %q", got)
	}
	if n := len(tr.Traces(0, 0, "")); n != 0 {
		t.Fatalf("no-op spans recorded %d traces", n)
	}
}

// TestTracesFilters pins the query surface: newest-first ordering by
// last finished span, the limit cap, the min-duration floor, and the
// op (contains-span-name) filter.
func TestTracesFilters(t *testing.T) {
	tr, clk := newTestTracer(64)

	mk := func(name string, dur time.Duration) string {
		ctx, root := tr.StartSpan(context.Background(), name)
		_, c := Child(ctx, name+".inner")
		clk.Advance(dur)
		c.End()
		root.End()
		return root.TraceID()
	}
	a := mk("a", 10*time.Millisecond)
	b := mk("b", 50*time.Millisecond)
	c := mk("c", 30*time.Millisecond)

	all := tr.Traces(0, 0, "")
	if len(all) != 3 || all[0].TraceID != c || all[1].TraceID != b || all[2].TraceID != a {
		t.Fatalf("traces out of order: %+v", all)
	}
	if lim := tr.Traces(2, 0, ""); len(lim) != 2 || lim[0].TraceID != c {
		t.Fatalf("limit=2 returned %+v", lim)
	}
	if slow := tr.Traces(0, 40*time.Millisecond, ""); len(slow) != 1 || slow[0].TraceID != b {
		t.Fatalf("min_dur filter returned %+v", slow)
	}
	if byOp := tr.Traces(0, 0, "b.inner"); len(byOp) != 1 || byOp[0].TraceID != b {
		t.Fatalf("op filter returned %+v", byOp)
	}
	if none := tr.Traces(0, 0, "nope"); len(none) != 0 {
		t.Fatalf("op filter for unknown span returned %+v", none)
	}
}

// TestTracerRingEviction pins the bounded-memory contract: the ring
// keeps the newest spans, counts drops, and reports partial traces
// (evicted root → Root "" and max-span duration).
func TestTracerRingEviction(t *testing.T) {
	tr, clk := newTestTracer(4)
	ctx, root := tr.StartSpan(context.Background(), "root")
	for i := 0; i < 6; i++ {
		_, c := Child(ctx, fmt.Sprintf("c%d", i))
		clk.Advance(time.Millisecond)
		c.End()
	}
	root.End() // 7th push into a 4-slot ring
	if got := tr.Drops(); got != 3 {
		t.Fatalf("drops %d, want 3", got)
	}
	traces := tr.Traces(0, 0, "")
	if len(traces) != 1 || len(traces[0].Spans) != 4 {
		t.Fatalf("retained %+v", traces)
	}
	// The root survived (pushed last; it sorts first by start time) and
	// the oldest children were evicted.
	if traces[0].Root != "root" {
		t.Fatalf("root %q", traces[0].Root)
	}
	if traces[0].Spans[0].Name != "root" || traces[0].Spans[1].Name != "c3" {
		t.Fatalf("spans %+v", traces[0].Spans)
	}

	// A trace whose root is evicted reports Root "" and the longest
	// retained span's duration.
	tr2, clk2 := newTestTracer(2)
	ctx2, root2 := tr2.StartSpan(context.Background(), "gone")
	clk2.Advance(time.Millisecond)
	root2.End()
	for i := 0; i < 2; i++ {
		_, c := Child(ctx2, "kept")
		clk2.Advance(time.Duration(i+1) * time.Millisecond)
		c.End()
	}
	got := tr2.Traces(0, 0, "")
	if len(got) != 1 || got[0].Root != "" {
		t.Fatalf("evicted-root trace %+v", got)
	}
	if want := (2 * time.Millisecond).Seconds(); got[0].DurS != want {
		t.Fatalf("evicted-root duration %v, want %v (longest retained)", got[0].DurS, want)
	}
}

// TestOnPushHook pins the per-span mirror hook: every committed span
// fires the callback exactly once with its final state.
func TestOnPushHook(t *testing.T) {
	tr, _ := newTestTracer(8)
	var names []string
	tr.OnPush(func(name string) { names = append(names, name) })
	ctx, root := tr.StartSpan(context.Background(), "r")
	_, c := Child(ctx, "c")
	c.End()
	c.End() // idempotent: no second fire
	root.End()
	if len(names) != 2 || names[0] != "c" || names[1] != "r" {
		t.Fatalf("OnPush saw %v", names)
	}
}

// TestWorstSpan pins breach attribution: longest span for quantile
// rules, most recently finished errored span for ratio rules, and the
// since cutoff.
func TestWorstSpan(t *testing.T) {
	tr, clk := newTestTracer(16)
	start := clk.Now()

	mk := func(dur time.Duration, fail bool) string {
		_, sp := tr.StartSpan(context.Background(), "solve")
		clk.Advance(dur)
		if fail {
			sp.Fail(fmt.Errorf("bad"))
		}
		sp.End()
		return sp.TraceID()
	}
	mk(40*time.Millisecond, false) // old and slow
	clk.Advance(time.Hour)
	cutoff := clk.Now()
	okID := mk(30*time.Millisecond, false)
	errID := mk(10*time.Millisecond, true)
	mk(20*time.Millisecond, false)

	if got := tr.WorstSpan("solve", cutoff, false); got != okID {
		t.Fatalf("longest since cutoff %q, want %q", got, okID)
	}
	if got := tr.WorstSpan("solve", start, false); got == okID || got == errID {
		t.Fatalf("longest overall picked %q, want the old 40ms span", got)
	}
	if got := tr.WorstSpan("solve", cutoff, true); got != errID {
		t.Fatalf("errOnly %q, want %q", got, errID)
	}
	if got := tr.WorstSpan("other", cutoff, false); got != "" {
		t.Fatalf("unknown span name matched %q", got)
	}
}

// TestTraceparentRoundTrip pins the header codec: format → parse is
// the identity, remote continuation adopts the inbound trace, and the
// malformed-header catalog is rejected.
func TestTraceparentRoundTrip(t *testing.T) {
	h := NewTraceparent()
	traceID, spanID, ok := ParseTraceparent(h)
	if !ok || len(traceID) != 32 || len(spanID) != 16 {
		t.Fatalf("minted traceparent %q parsed to (%q, %q, %v)", h, traceID, spanID, ok)
	}
	if got := FormatTraceparent(traceID, spanID); got != h {
		t.Fatalf("round trip %q -> %q", h, got)
	}

	tr, _ := newTestTracer(4)
	ctx, sp := tr.StartRemote(context.Background(), "http /x", traceID, spanID)
	if sp.TraceID() != traceID {
		t.Fatalf("remote span trace %q, want %q", sp.TraceID(), traceID)
	}
	if got := Traceparent(ctx); !strings.HasPrefix(got, "00-"+traceID+"-") {
		t.Fatalf("outbound traceparent %q does not continue the trace", got)
	}
	// No inbound header: a fresh trace.
	_, fresh := tr.StartRemote(context.Background(), "http /x", "", "")
	if fresh.TraceID() == "" || fresh.TraceID() == traceID {
		t.Fatalf("fresh remote trace %q", fresh.TraceID())
	}

	for _, bad := range []string{
		"",
		"garbage",
		"00-" + traceID + "-" + spanID, // missing flags
		"00-" + traceID[:31] + "-" + spanID + "-01",             // short trace ID
		"00-" + traceID + "-" + spanID[:15] + "-01",             // short span ID
		"00-" + strings.Repeat("0", 32) + "-" + spanID + "-01",  // all-zero trace
		"00-" + traceID + "-" + strings.Repeat("0", 16) + "-01", // all-zero span
		"00-" + strings.Repeat("G", 32) + "-" + spanID + "-01",  // non-hex
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted", bad)
		}
	}
	// Version-field lenient, whitespace tolerant.
	if _, _, ok := ParseTraceparent(" ff-" + traceID + "-" + spanID + "-00 "); !ok {
		t.Error("lenient version/whitespace header rejected")
	}
}

// TestTracerRace hammers one tracer from many goroutines — span
// creation, attrs, ends, and concurrent reads — relying on -race.
func TestTracerRace(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, root := tr.StartSpan(context.Background(), "op")
				_, c := Child(ctx, "inner")
				c.SetAttr("g", fmt.Sprint(g))
				c.End()
				root.End()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			tr.Traces(4, 0, "")
			tr.WorstSpan("op", time.Time{}, false)
			tr.Drops()
		}
	}()
	wg.Wait()
}

// TestSetClockRacesSpans swaps the tracer's clock while other
// goroutines start and end spans, which read it without the ring lock.
// Run it under -race.
func TestSetClockRacesSpans(t *testing.T) {
	tr, clk := newTestTracer(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, root := tr.StartSpan(context.Background(), "op")
				_, c := Child(ctx, "inner")
				c.End()
				root.End()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if i%2 == 0 {
				tr.SetClock(time.Now)
			} else {
				tr.SetClock(clk.Now)
			}
			tr.SetClock(nil) // ignored
		}
	}()
	wg.Wait()
	if got := len(tr.Traces(0, 0, "")); got == 0 {
		t.Fatal("no traces retained")
	}
}

// TestNewIDShape: IDs are lowercase hex of twice the byte count, and
// do not repeat.
func TestNewIDShape(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range []int{8, 16} {
		for i := 0; i < 100; i++ {
			id := newID(n)
			if len(id) != 2*n || !isHex(id) || seen[id] {
				t.Fatalf("newID(%d) = %q", n, id)
			}
			seen[id] = true
		}
	}
}

// TestSpanIsItsContext pins the span as its own context: it carries the
// parent context's values, deadline and cancellation, it is the active
// span of whatever is derived from it, and goroutines that share it —
// starting children, setting attributes, deriving and cancelling
// contexts — build one tree. Run it under -race.
func TestSpanIsItsContext(t *testing.T) {
	tr, _ := newTestTracer(1024)
	type key struct{}
	parent, cancel := context.WithCancel(context.WithValue(context.Background(), key{}, "v"))
	ctx, root := tr.StartSpan(parent, "root")
	if ctx != context.Context(root) || SpanFromContext(ctx) != root {
		t.Fatal("the started span is not the returned context's active span")
	}
	if ctx.Value(key{}) != "v" {
		t.Fatal("the span lost its parent context's value")
	}
	derived, stop := context.WithTimeout(ctx, time.Hour)
	defer stop()
	if SpanFromContext(derived) != root || TraceIDFromContext(derived) != root.TraceID() {
		t.Fatal("a context derived from the span lost it")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				cctx, c := Child(ctx, "child")
				_, gc := Child(cctx, "grandchild")
				root.SetAttr(fmt.Sprint("g", g), fmt.Sprint(i))
				c.SetAttr("i", fmt.Sprint(i))
				gc.End()
				c.End()
				if Traceparent(cctx) != FormatTraceparent(c.TraceID(), c.SpanID()) {
					t.Error("a child's traceparent names another span")
				}
			}
		}(g)
	}
	wg.Wait()
	cancel()
	<-derived.Done()
	if ctx.Err() == nil || derived.Err() == nil {
		t.Fatal("cancelling the parent did not reach the span or what derives from it")
	}
	root.End()

	traces := tr.Traces(0, 0, "")
	if len(traces) != 1 {
		t.Fatalf("%d traces, want 1", len(traces))
	}
	byName := map[string]int{}
	ids := map[string]string{}
	for _, sp := range traces[0].Spans {
		byName[sp.Name]++
		ids[sp.SpanID] = sp.Name
	}
	if byName["root"] != 1 || byName["child"] != 160 || byName["grandchild"] != 160 {
		t.Fatalf("span counts %v", byName)
	}
	for _, sp := range traces[0].Spans {
		want := map[string]string{"root": "", "child": "root", "grandchild": "child"}[sp.Name]
		if ids[sp.ParentID] != want {
			t.Fatalf("%s's parent is %q, want %q", sp.Name, ids[sp.ParentID], want)
		}
		if sp.Name == "root" && len(sp.Attrs) != 8 {
			t.Fatalf("root attrs %v, want one per goroutine", sp.Attrs)
		}
	}
}

// TestSpanAttrsPastInline: a span keeps every attribute however many it
// sets, a repeated key keeps its last value, and none set after End.
func TestSpanAttrsPastInline(t *testing.T) {
	tr, _ := newTestTracer(8)
	_, sp := tr.StartSpan(context.Background(), "op")
	want := map[string]string{}
	for i := 0; i < 2*inlineAttrs+1; i++ {
		k := fmt.Sprint("k", i%(inlineAttrs+3))
		sp.SetAttr(k, fmt.Sprint(i))
		want[k] = fmt.Sprint(i)
	}
	sp.End()
	sp.SetAttr("late", "x")
	got := tr.Traces(0, 0, "")[0].Spans[0].Attrs
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("attrs %v, want %v", got, want)
	}
}

// TestRemoteParentRoundTrip: a remote parent span ID comes back as
// given, and a span's own ID renders as a traceparent's span field.
func TestRemoteParentRoundTrip(t *testing.T) {
	tr, _ := newTestTracer(8)
	traceID, parentID := newID(16), newID(8)
	ctx, sp := tr.StartRemote(context.Background(), "http", traceID, parentID)
	tid, sid, ok := ParseTraceparent(Traceparent(ctx))
	if !ok || tid != traceID || sid != sp.SpanID() || len(sid) != 16 {
		t.Fatalf("traceparent %q of span %s", Traceparent(ctx), sp.SpanID())
	}
	sp.End()
	got := tr.Traces(0, 0, "")[0].Spans[0]
	if got.ParentID != parentID || got.TraceID != traceID || got.SpanID != sid {
		t.Fatalf("span %+v, want parent %s", got, parentID)
	}
}
