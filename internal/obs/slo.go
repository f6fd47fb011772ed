package obs

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// SLO status levels, worst last.
const (
	StatusOK     = "ok"
	StatusWarn   = "warn"
	StatusBreach = "breach"
)

// SLO is one declarative service-level objective evaluated from the
// live Registry. Exactly one rule form must be set:
//
//   - quantile rule: Metric names a histogram family and the rule is
//     "the Quantile of observations must stay at or below Max" (e.g.
//     p99 planner solve latency < 1 s). All series of a labeled family
//     aggregate into one distribution.
//   - ratio rule: BadMetric and GoodMetric name counter families and
//     the rule is "bad / (bad + good) must stay at or below Max" (e.g.
//     re-plan failure ratio < 10%).
//
// Evaluation is multi-window: the engine retains snapshots of the
// underlying counters/buckets and computes each rule over both a short
// and a long trailing window. A rule violated in both windows is a
// breach (sustained burn); violated in exactly one, a warning (an
// emerging spike or a recovering burn); in neither, ok. Windows of 0
// default to DefaultShortWindow and DefaultLongWindow.
type SLO struct {
	// Name identifies the rule (label value on the status metrics and
	// key in /debug/slo).
	Name string `json:"name"`

	// Objective is the human-readable statement of the rule.
	Objective string `json:"objective,omitempty"`

	// Quantile rule.
	Metric   string  `json:"metric,omitempty"`
	Quantile float64 `json:"quantile,omitempty"`

	// Ratio rule.
	BadMetric  string `json:"bad_metric,omitempty"`
	GoodMetric string `json:"good_metric,omitempty"`

	// Max is the threshold: seconds for quantile rules, a fraction in
	// [0, 1] for ratio rules.
	Max float64 `json:"max"`

	// SpanName names the trace span kind whose worst instance within
	// the long window identifies the offending trace on a violation
	// (longest for quantile rules, most recent errored for ratio
	// rules). "" skips the lookup.
	SpanName string `json:"span_name,omitempty"`

	// Detail, when set, is called while the rule is violated and its
	// result is carried on the status (SLOStatus.Detail) and the
	// transition events — the hook a rule uses to name the worst
	// offender behind an aggregate (e.g. the job burning the drift
	// budget). It must not call back into the engine.
	Detail func() string `json:"-"`

	ShortWindow time.Duration `json:"-"`
	LongWindow  time.Duration `json:"-"`
}

// Default evaluation windows.
const (
	DefaultShortWindow = 5 * time.Minute
	DefaultLongWindow  = 30 * time.Minute
)

func (s SLO) windows() (short, long time.Duration) {
	short, long = s.ShortWindow, s.LongWindow
	if short <= 0 {
		short = DefaultShortWindow
	}
	if long <= 0 {
		long = DefaultLongWindow
	}
	if long < short {
		long = short
	}
	return short, long
}

func (s SLO) ratio() bool { return s.BadMetric != "" }

// validate rejects rules that are neither form (a misconfigured rule
// silently reporting ok forever is worse than a startup panic).
func (s SLO) validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("obs: SLO with empty name")
	case s.ratio() && (s.Metric != "" || s.GoodMetric == ""):
		return fmt.Errorf("obs: SLO %s: ratio rules need BadMetric+GoodMetric and no Metric", s.Name)
	case !s.ratio() && (s.Metric == "" || !(s.Quantile > 0) || s.Quantile >= 1):
		return fmt.Errorf("obs: SLO %s: quantile rules need Metric and Quantile in (0, 1)", s.Name)
	case math.IsNaN(s.Max) || s.Max < 0:
		return fmt.Errorf("obs: SLO %s: Max must be non-negative", s.Name)
	}
	return nil
}

// SLOStatus is one rule's evaluated state.
type SLOStatus struct {
	Name      string `json:"name"`
	Objective string `json:"objective,omitempty"`

	// Status is ok, warn, or breach.
	Status string `json:"status"`

	// Value and ShortValue are the rule's measured value over the long
	// and short windows (0 when the window holds no observations —
	// no traffic cannot violate an SLO).
	Value      float64 `json:"value"`
	ShortValue float64 `json:"short_value"`

	// Threshold echoes the rule's Max; BurnRate is Value/Threshold
	// (how many times over budget the long window is burning).
	Threshold float64 `json:"threshold"`
	BurnRate  float64 `json:"burn_rate"`

	// WorstTraceID identifies the offending trace while the rule is
	// violated ("" when ok or no matching span is retained).
	WorstTraceID string `json:"worst_trace_id,omitempty"`

	// Detail names the worst offender behind the violation, from the
	// rule's Detail hook ("" when ok or the rule has no hook).
	Detail string `json:"detail,omitempty"`

	// SinceUnixS is when the current status level began.
	SinceUnixS float64 `json:"since_unix_s"`
}

// sloSample is one snapshot of a rule's inputs.
type sloSample struct {
	at        time.Time
	counts    []uint64 // histogram rules: non-cumulative per-bucket totals
	count     uint64
	bad, good float64 // ratio rules
}

// sloState is a rule's evaluation memory.
type sloState struct {
	samples []sloSample
	status  string
	since   time.Time
}

// SLOEngine evaluates a fixed rule set against a Registry, retaining
// the per-rule snapshot history the multi-window evaluation needs.
// Evaluate is driven by the owner (the server runs it at controller
// ticks and on the /debug/slo and /healthz endpoints); the engine has
// no goroutine of its own. Safe for concurrent use.
type SLOEngine struct {
	mu     sync.Mutex
	reg    *Registry
	tracer *Tracer
	rules  []SLO
	state  map[string]*sloState

	// onTransition, when set, fires (inside Evaluate) for every status
	// level change — the server's hook for emitting breach/recovery
	// events. from is the previous level ("" on the first evaluation).
	onTransition func(rule SLO, from, to string, st SLOStatus)
}

// NewSLOEngine builds an engine over the registry (and tracer, which
// may be nil to skip worst-trace lookup). Invalid rules panic: a rule
// set is program configuration, not runtime input.
func NewSLOEngine(reg *Registry, tracer *Tracer, rules []SLO) *SLOEngine {
	state := make(map[string]*sloState, len(rules))
	for _, r := range rules {
		if err := r.validate(); err != nil {
			panic(err)
		}
		if _, dup := state[r.Name]; dup {
			panic(fmt.Sprintf("obs: duplicate SLO %s", r.Name))
		}
		state[r.Name] = &sloState{status: StatusOK}
	}
	return &SLOEngine{reg: reg, tracer: tracer, rules: rules, state: state}
}

// OnTransition registers the status-change hook (replacing any prior).
func (e *SLOEngine) OnTransition(fn func(rule SLO, from, to string, st SLOStatus)) {
	e.mu.Lock()
	e.onTransition = fn
	e.mu.Unlock()
}

// Rules returns the engine's rule set.
func (e *SLOEngine) Rules() []SLO {
	return append([]SLO(nil), e.rules...)
}

// sample reads a rule's current inputs from the registry.
func (e *SLOEngine) sample(r SLO, now time.Time) sloSample {
	s := sloSample{at: now}
	if r.ratio() {
		s.bad, _ = e.reg.CounterValue(r.BadMetric)
		s.good, _ = e.reg.CounterValue(r.GoodMetric)
		return s
	}
	_, s.counts, s.count, _ = e.reg.histogramFamilySnapshot(r.Metric)
	return s
}

// value computes the rule's measured value over the window cur−base.
// NaN means the window holds no observations.
func (e *SLOEngine) value(r SLO, cur, base sloSample) float64 {
	if r.ratio() {
		bad := cur.bad - base.bad
		good := cur.good - base.good
		if bad+good <= 0 {
			return math.NaN()
		}
		return bad / (bad + good)
	}
	upper, _, _, ok := e.reg.histogramFamilySnapshot(r.Metric)
	if !ok || cur.counts == nil {
		return math.NaN()
	}
	counts := make([]uint64, len(cur.counts))
	count := cur.count
	copy(counts, cur.counts)
	if base.counts != nil {
		for i := range counts {
			counts[i] -= base.counts[i]
		}
		count -= base.count
	}
	return bucketQuantile(upper, counts, count, r.Quantile)
}

// baseline returns the newest retained sample at or before cutoff (a
// zero sample — process start — when none is old enough).
func baseline(samples []sloSample, cutoff time.Time) sloSample {
	var base sloSample
	for _, s := range samples {
		if s.at.After(cutoff) {
			break
		}
		base = s
	}
	return base
}

// Evaluate samples every rule at now and returns the statuses in rule
// order. Status transitions fire the OnTransition hook before Evaluate
// returns.
func (e *SLOEngine) Evaluate(now time.Time) []SLOStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]SLOStatus, 0, len(e.rules))
	for _, r := range e.rules {
		st := e.state[r.Name]
		short, long := r.windows()
		cur := e.sample(r, now)

		shortVal := e.value(r, cur, baseline(st.samples, now.Add(-short)))
		longVal := e.value(r, cur, baseline(st.samples, now.Add(-long)))
		shortViol := !math.IsNaN(shortVal) && shortVal > r.Max
		longViol := !math.IsNaN(longVal) && longVal > r.Max

		status := StatusOK
		switch {
		case shortViol && longViol:
			status = StatusBreach
		case shortViol || longViol:
			status = StatusWarn
		}

		// Commit the sample and prune history beyond the long window
		// (keeping one older sample as the long baseline).
		st.samples = append(st.samples, cur)
		cut := now.Add(-long)
		drop := 0
		for drop+1 < len(st.samples) && !st.samples[drop+1].at.After(cut) {
			drop++
		}
		st.samples = st.samples[drop:]

		if st.since.IsZero() {
			st.since = now
		}
		view := SLOStatus{
			Name:      r.Name,
			Objective: r.Objective,
			Status:    status,
			Threshold: r.Max,
		}
		if !math.IsNaN(longVal) {
			view.Value = longVal
			if r.Max > 0 {
				view.BurnRate = longVal / r.Max
			}
		}
		if !math.IsNaN(shortVal) {
			view.ShortValue = shortVal
		}
		if status != StatusOK && e.tracer != nil && r.SpanName != "" {
			view.WorstTraceID = e.tracer.WorstSpan(r.SpanName, now.Add(-long), r.ratio())
		}
		if status != StatusOK && r.Detail != nil {
			view.Detail = r.Detail()
		}
		if status != st.status {
			from := st.status
			st.status = status
			st.since = now
			view.SinceUnixS = float64(now.UnixNano()) / 1e9
			if e.onTransition != nil {
				e.onTransition(r, from, status, view)
			}
		} else {
			view.SinceUnixS = float64(st.since.UnixNano()) / 1e9
		}
		out = append(out, view)
	}
	return out
}
