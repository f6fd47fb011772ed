package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// layerHarness labels spans that are the benchmark's own glue: the root
// of each operation, whose self time is what no layer accounts for.
const layerHarness = "bench"

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one operation share Op; Parent is the ID
// of the span that caused this one (0 for an operation's root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run executes the same code without it.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// activeSpan is an open span; a nil one ignores every call.
type activeSpan struct {
	t  *tracer
	sp span
}

// op opens the root span of a new operation.
func (t *tracer) op(name string) *activeSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.ops++
	op := t.ops
	t.mu.Unlock()
	return t.open(0, op, layerHarness, name)
}

func (t *tracer) open(parent, op int, layer, name string) *activeSpan {
	a := &activeSpan{t: t, sp: span{Parent: parent, Op: op, Layer: layer, Name: name}}
	t.mu.Lock()
	// IDs are handed out at open so children can name their parent
	// before it ends; the slot is filled in by end.
	t.spans = append(t.spans, span{})
	a.sp.ID = len(t.spans)
	t.mu.Unlock()
	a.sp.StartNs = time.Since(t.t0).Nanoseconds()
	return a
}

// child opens a span caused by a, around one call into layer.
func (a *activeSpan) child(layer, name string) *activeSpan {
	if a == nil {
		return nil
	}
	return a.t.open(a.sp.ID, a.sp.Op, layer, name)
}

// end closes the span.
func (a *activeSpan) end() {
	if a == nil {
		return
	}
	a.sp.EndNs = time.Since(a.t.t0).Nanoseconds()
	a.t.mu.Lock()
	a.t.spans[a.sp.ID-1] = a.sp
	a.t.mu.Unlock()
}

// finished returns the closed spans.
func (t *tracer) finished() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.ID != 0 {
			out = append(out, s)
		}
	}
	return out
}

// traceFile is what a traced run leaves in bench/out.
type traceFile struct {
	Workload    string             `json:"workload"`
	InputHash   string             `json:"input_hash"`
	Env         envInfo            `json:"env"`
	CoveragePct float64            `json:"layer_coverage_pct"`
	SelfMs      map[string]float64 `json:"self_ms_by_layer"`
	Spans       []span             `json:"spans"`
}

// writeTrace writes the run's spans and per-layer self times.
func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
