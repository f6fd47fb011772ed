package obs

import (
	"context"
	"time"

	"perseus/internal/plan"
)

// SpanPlannerSolve is the span name Solve records solves under.
const SpanPlannerSolve = "planner.solve"

// Solve runs one planning-layer solve and reports it: its latency into
// latency, labeled (layer, objective) with "" read as carbon, and a
// failure into errors, labeled layer. When ctx carries an active trace
// span (the HTTP middleware's or the controller tick's), the solve also
// records a "planner.solve" child span with planner and objective
// attrs, plus the key/value pairs solve returns describing its work
// when it succeeds, marked failed on error. With no active span the
// tracing side costs one nil check.
func Solve(ctx context.Context, layer string, obj plan.Objective, latency *HistogramVec, errors *CounterVec, solve func() (attrs []string, err error)) error {
	if obj == "" {
		obj = plan.ObjectiveCarbon
	}
	_, sp := Child(ctx, SpanPlannerSolve)
	sp.SetAttr("planner", layer)
	sp.SetAttr("objective", string(obj))
	start := time.Now()
	attrs, err := solve()
	latency.With(layer, string(obj)).Observe(time.Since(start).Seconds())
	if err != nil {
		errors.With(layer).Inc()
	}
	for i := 0; err == nil && i+1 < len(attrs); i += 2 {
		sp.SetAttr(attrs[i], attrs[i+1])
	}
	sp.Fail(err)
	sp.End()
	return err
}
