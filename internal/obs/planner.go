package obs

import (
	"context"
	"time"

	"perseus/internal/plan"
)

// InstrumentPlanner wraps a plan.Planner so every Plan call is timed
// into latency — labeled (planner, objective) — and failures counted
// into errors (labeled planner). All four planning layers (grid,
// region, forecast-MPC, fleet) report through this one decorator, so
// per-objective planning latency is comparable across them without any
// layer knowing about metrics. as overrides the reported planner label
// ("" uses p.Name()) — the server labels the rolling-horizon re-plan
// solve "forecast-mpc" even though the inner solver is the grid
// planner. Either metric may be nil to skip that side.
//
// The decorator is also span-aware: when ctx carries an active trace
// span (the HTTP middleware's or the controller tick's), each Plan
// call records a "planner.solve" child span with planner/objective
// attrs (plus the planner's and the result's own SpanAttrs, when they
// have any), marked failed on error. With no active span the tracing
// side costs one nil check — instrumented solves reached outside a traced
// request (benchmarks, direct library use) stay at PR 6 overhead.
// Instances are constructed per request, so capturing ctx at
// construction is exact.
func InstrumentPlanner(ctx context.Context, p plan.Planner, as string, latency *HistogramVec, errors *CounterVec) plan.Planner {
	name := as
	if name == "" {
		name = p.Name()
	}
	return &instrumentedPlanner{ctx: ctx, inner: p, name: name, latency: latency, errors: errors}
}

type instrumentedPlanner struct {
	ctx     context.Context
	inner   plan.Planner
	name    string
	latency *HistogramVec
	errors  *CounterVec
}

// Name implements plan.Planner, reporting the instrumented label.
func (p *instrumentedPlanner) Name() string { return p.name }

// SpanPlannerSolve is the span name the decorator records solves under.
const SpanPlannerSolve = "planner.solve"

// Plan implements plan.Planner.
func (p *instrumentedPlanner) Plan(req plan.Request) (plan.Result, error) {
	obj, objErr := plan.ParseObjective(string(req.Objective))
	if objErr != nil {
		obj = req.Objective // surfaced as-is; the inner planner rejects it
	}
	var sp *ActiveSpan
	if p.ctx != nil {
		_, sp = Child(p.ctx, SpanPlannerSolve)
		sp.SetAttr("planner", p.name)
		sp.SetAttr("objective", string(obj))
	}
	start := time.Now()
	res, err := p.inner.Plan(req)
	if p.latency != nil {
		p.latency.With(p.name, string(obj)).Observe(time.Since(start).Seconds())
	}
	if err != nil && p.errors != nil {
		p.errors.With(p.name).Inc()
	}
	if sp != nil && err == nil {
		setSpanAttrs(sp, p.inner)
		setSpanAttrs(sp, res)
	}
	sp.Fail(err)
	sp.End()
	return res, err
}

// spanAttrser is a plan.Planner or plan.Result that describes the work
// the solve did as key/value pairs for its span (grid.Planner's greedy
// steps, region.Plan's counts).
type spanAttrser interface{ SpanAttrs() []string }

func setSpanAttrs(sp *ActiveSpan, v any) {
	if a, ok := v.(spanAttrser); ok {
		kv := a.SpanAttrs()
		for i := 0; i+1 < len(kv); i += 2 {
			sp.SetAttr(kv[i], kv[i+1])
		}
	}
}
