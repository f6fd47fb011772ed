package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"perseus/internal/obs"
)

// serverObs bundles the server's observability surface: one metric
// registry, one event ring, and one tracer (internal/obs), plus the
// typed handles every resource module records into. All handles are
// registered once at construction, so hot paths never touch the
// registry map. A number another struct owns — the ledger's totals
// (ledger.go), the plan cache's and the hub's sizes, the tracer's
// drops — is not copied into a handle but registered as a view that
// reads it at scrape time.
//
// The metric catalog (all names prefixed perseus_) is documented in
// README.md's Observability section; the golden exposition test and
// the CI smoke scrape both pin the core series.
type serverObs struct {
	reg     *obs.Registry
	ring    *obs.Ring
	tracer  *obs.Tracer
	slo     *obs.SLOEngine
	started time.Time // real wall clock, for /healthz uptime

	// HTTP middleware.
	httpRequests *obs.CounterVec   // route, method, code
	httpLatency  *obs.HistogramVec // route
	httpInFlight *obs.Gauge

	// Plan cache (cache.go).
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheCoalesced *obs.Counter
	cacheEvictions *obs.Counter

	// Controller runtime (controller.go).
	ticks       *obs.Counter
	tickDur     *obs.Histogram
	replans     *obs.Counter
	replanFails *obs.Counter
	warmStarts  *obs.Counter

	// regionSolves is the inner-solve count of each GET /regions/plan
	// solve (region.Stats.InnerSolves).
	regionSolves *obs.Histogram

	// forecastsIssued counts forecasts issued for rolling schedules: one
	// per requested horizon per tick, however many jobs share it.
	forecastsIssued *obs.Counter

	// Job registry and deployment (jobs.go, store.go).
	jobsRegistered *obs.Counter
	characterized  *obs.CounterVec // outcome
	charDur        *obs.Histogram
	charPoints     *obs.Histogram
	versionBumps   *obs.Counter

	// Long-poll fan-out (hub.go, jobs.go, grid.go).
	waiters       *obs.Gauge
	wakeDur       *obs.Histogram
	cancelled     *obs.Counter
	hubBroadcasts *obs.Counter

	// Planning layers, via Server.solve.
	planLatency *obs.HistogramVec // planner, objective
	planErrors  *obs.CounterVec   // planner

	// Energy-bloat ledger (ledger.go): the server's only account of
	// settled energy, carbon and cost; its metric families are views.
	ledger *obs.Ledger

	// Tracing and SLO self-monitoring (this file).
	traceSpans  *obs.CounterVec // span
	spanCounts  sync.Map        // span name → its traceSpans series, resolved once
	sloStatus   *obs.GaugeVec   // slo: 0 ok, 1 warn, 2 breach
	sloBreaches *obs.CounterVec // slo
}

// Span names the server records (the full taxonomy is documented in
// README.md's "Tracing & SLOs" section). obs.SpanPlannerSolve covers
// the planner layer.
const (
	spanStoreSnapshot  = "store.snapshot"
	spanCacheLookup    = "cache.lookup"
	spanPlanEncode     = "plan.encode"
	spanReplanInputs   = "replan.inputs"
	spanReplanFreeze   = "replan.freeze"
	spanReplanFcast    = "replan.forecast"
	spanReplanSolve    = "replan.solve"
	spanReplanBump     = "replan.bump"
	spanControllerTick = "controller.tick"
	spanLongpollPark   = "longpoll.park"
)

// Default server SLO rules. Thresholds are sized to the repo's
// simulated workloads: a synchronous grid solve runs in milliseconds
// (1 s p99 is pathological), a replan failure ratio above 10% means
// the control loop is degrading schedules, a long-poller should
// always wake before the 30 s maxScheduleWait cap (25 s p99 leaves
// headroom for slow ticks), and forecast drift above 25% of
// drift-plus-realized carbon (|drift| > realized/3) means schedules
// are being planned against a forecast the grid no longer resembles.
// The drift rule reads the ledger's fleet counters and names the
// worst-drifting job on a violation.
func defaultSLOs(led *obs.Ledger) []obs.SLO {
	return []obs.SLO{{
		Name:      "plan-latency-p99",
		Objective: "p99 planner solve latency stays at or below 1s",
		Metric:    "perseus_planner_plan_duration_seconds",
		Quantile:  0.99,
		Max:       1.0,
		SpanName:  obs.SpanPlannerSolve,
	}, {
		Name:       "replan-failure-ratio",
		Objective:  "rolling-horizon re-plan failures stay at or below 10% of roll-forwards",
		BadMetric:  "perseus_controller_replan_failures_total",
		GoodMetric: "perseus_controller_replans_total",
		Max:        0.10,
		SpanName:   spanReplanSolve,
	}, {
		Name:      "longpoll-wake-p99",
		Objective: "p99 long-poll park-to-wake stays at or below 25s",
		Metric:    "perseus_longpoll_wake_seconds",
		Quantile:  0.99,
		Max:       25.0,
		SpanName:  spanLongpollPark,
	}, {
		Name:       "carbon-drift-ratio",
		Objective:  "forecast carbon drift stays at or below 25% of drift-plus-realized carbon over forecast-covered spans",
		BadMetric:  "perseus_fleet_bloat_drift_abs_carbon_g_total",
		GoodMetric: "perseus_fleet_bloat_forecast_covered_carbon_g_total",
		Max:        0.25,
		Detail: func() string {
			job, ratio := led.WorstDriftJob()
			if job == "" {
				return ""
			}
			return job + " (ratio " + strconv.FormatFloat(ratio, 'g', 3, 64) + ")"
		},
	}}
}

func newServerObs() *serverObs {
	r := obs.NewRegistry()
	o := &serverObs{
		reg:     r,
		ring:    obs.NewRing(0),
		tracer:  obs.NewTracer(0),
		started: time.Now(),

		httpRequests: r.CounterVec("perseus_http_requests_total",
			"HTTP requests served, by normalized route, method, and status code.",
			"route", "method", "code"),
		httpLatency: r.HistogramVec("perseus_http_request_duration_seconds",
			"HTTP request latency by normalized route.", nil, "route"),
		httpInFlight: r.Gauge("perseus_http_in_flight_requests",
			"HTTP requests currently being served."),

		cacheHits: r.Counter("perseus_plan_cache_hits_total",
			"Plan-cache lookups answered from a cached or in-flight solve."),
		cacheMisses: r.Counter("perseus_plan_cache_misses_total",
			"Plan-cache lookups that started a fresh solve."),
		cacheCoalesced: r.Counter("perseus_plan_cache_coalesced_total",
			"Plan-cache hits that waited on an in-flight solve (single-flight followers)."),
		cacheEvictions: r.Counter("perseus_plan_cache_evictions_total",
			"Plan-cache entries dropped by epoch invalidation or the size-cap flush."),

		ticks: r.Counter("perseus_controller_ticks_total",
			"Completed controller ticks (background loop and synchronous)."),
		tickDur: r.Histogram("perseus_controller_tick_duration_seconds",
			"Wall-clock duration of one controller tick across every managed job.", nil),
		replans: r.Counter("perseus_controller_replans_total",
			"Successful rolling-horizon re-plans (ManageJob and controller ticks)."),
		replanFails: r.Counter("perseus_controller_replan_failures_total",
			"Rolling-horizon roll-forwards that failed (forecast issue or solve error)."),
		warmStarts: r.Counter("perseus_planner_warm_starts_total",
			"Roll-forwards that reused the running plan because the forecast revision left the remaining window unchanged."),
		forecastsIssued: r.Counter("perseus_controller_forecasts_issued_total",
			"Forecasts issued for rolling schedules: one per requested horizon per tick or ManageJob call, shared by every job that plans from it."),
		regionSolves: r.Histogram("perseus_region_plan_inner_solves",
			"Inner temporal solves per region plan (memo misses; the rest of the solve's counts ride on its planner.solve span).",
			[]float64{10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000}),

		jobsRegistered: r.Counter("perseus_jobs_registered_total",
			"Training jobs registered."),
		characterized: r.CounterVec("perseus_characterizations_total",
			"Frontier characterizations finished, by outcome.", "outcome"),
		charDur: r.Histogram("perseus_characterize_seconds",
			"Wall-clock duration of one frontier characterization (DAG build plus the min-cut walk), successful or not.", nil),
		charPoints: r.Histogram("perseus_characterize_points",
			"Frontier points per successful characterization.",
			[]float64{10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}),
		versionBumps: r.Counter("perseus_schedule_version_bumps_total",
			"Deployed-schedule version bumps across all jobs (each wakes that job's long-pollers)."),

		waiters: r.Gauge("perseus_longpoll_waiters",
			"Long-poll requests currently parked on a hub watch."),
		wakeDur: r.Histogram("perseus_longpoll_wake_seconds",
			"Time a long-poller waited before a hub broadcast woke it.", nil),
		cancelled: r.Counter("perseus_longpoll_cancelled_total",
			"Long-poll requests whose client disconnected while parked."),
		hubBroadcasts: r.Counter("perseus_hub_broadcasts_total",
			"Notification-hub topic broadcasts (each wakes every watcher of the topic at once)."),

		planLatency: r.HistogramVec("perseus_planner_plan_duration_seconds",
			"Planning-layer solve latency, by layer and objective.",
			nil, "planner", "objective"),
		planErrors: r.CounterVec("perseus_planner_plan_errors_total",
			"Failed planning-layer solves by layer.", "planner"),

		ledger: obs.NewLedger(0),

		traceSpans: r.CounterVec("perseus_trace_spans_total",
			"Finished trace spans committed to the span ring, by span name.", "span"),
		sloStatus: r.GaugeVec("perseus_slo_status",
			"Per-SLO multi-window burn-rate status: 0 ok, 1 warn, 2 breach.", "slo"),
		sloBreaches: r.CounterVec("perseus_slo_breaches_total",
			"Transitions of an SLO into breach.", "slo"),
	}
	ledgerViews(r, o.ledger)
	r.CounterView("perseus_trace_spans_dropped_total",
		"Finished spans the bounded span ring has overwritten.",
		func(emit func(float64, ...string)) { emit(float64(o.tracer.Drops())) })
	o.tracer.OnPush(func(name string) {
		c, ok := o.spanCounts.Load(name)
		if !ok {
			c, _ = o.spanCounts.LoadOrStore(name, o.traceSpans.With(name))
		}
		c.(*obs.Counter).Inc()
	})
	o.slo = obs.NewSLOEngine(r, o.tracer, defaultSLOs(o.ledger))
	o.slo.OnTransition(func(rule obs.SLO, from, to string, st obs.SLOStatus) {
		if to == obs.StatusBreach {
			o.sloBreaches.With(rule.Name).Inc()
		}
		kv := []string{
			"slo", rule.Name, "from", from, "to", to,
			"value", strconv.FormatFloat(st.Value, 'g', 4, 64),
			"threshold", strconv.FormatFloat(st.Threshold, 'g', 4, 64),
		}
		if st.WorstTraceID != "" {
			kv = append(kv, "trace_id", st.WorstTraceID)
		}
		if st.Detail != "" {
			kv = append(kv, "worst", st.Detail)
		}
		o.ring.Emit(time.Unix(0, int64(st.SinceUnixS*1e9)), "slo."+to, 0, kv...)
	})
	return o
}

// countView is a gauge view of a count its owner guards with mu.
func countView(mu *sync.Mutex, count func() int) obs.View {
	return func(emit func(float64, ...string)) {
		mu.Lock()
		n := count()
		mu.Unlock()
		emit(float64(n))
	}
}

// traceKV appends a trace_id label to an event's key-value pairs when
// ctx carries an active trace — the breach-to-trace cross-link every
// emit site inside a traced request uses. A nil ctx passes through.
func traceKV(ctx context.Context, kv ...string) []string {
	if ctx == nil {
		return kv
	}
	if tid := obs.TraceIDFromContext(ctx); tid != "" {
		return append(kv, "trace_id", tid)
	}
	return kv
}

// sloLevel maps a status string to the perseus_slo_status gauge value.
func sloLevel(status string) float64 {
	switch status {
	case obs.StatusWarn:
		return 1
	case obs.StatusBreach:
		return 2
	}
	return 0
}

// evalSLOs runs one SLO evaluation at now, mirrors each rule's level
// into the status gauge, and returns the statuses. Transitions fire
// the engine hook (breach counter + slo.* events) inside the call.
// Driven by the controller tick and the /debug/slo and /healthz
// endpoints — the engine has no goroutine of its own.
func (s *Server) evalSLOs(now time.Time) []obs.SLOStatus {
	sts := s.obs.slo.Evaluate(now)
	for _, st := range sts {
		s.obs.sloStatus.With(st.Name).Set(sloLevel(st.Status))
	}
	return sts
}

// SLOs evaluates the server's SLO rules now and returns the per-rule
// statuses (the non-HTTP entry point behind GET /debug/slo).
func (s *Server) SLOs() []obs.SLOStatus {
	return s.evalSLOs(s.st.now())
}

// Traces returns the assembled span trees, newest first (the non-HTTP
// entry point behind GET /debug/traces). limit <= 0 returns every
// retained trace; minDur and op filter like the endpoint parameters.
func (s *Server) Traces(limit int, minDur time.Duration, op string) []obs.Trace {
	return s.obs.tracer.Traces(limit, minDur, op)
}

// routeLabel is the bounded label a request's metrics and spans carry:
// the path of the registered pattern it matches, or "other" when the
// mux itself answers it (no such path, or a known path under another
// method) — so per-job paths cannot explode metric cardinality, and
// the registration list is the label set.
func routeLabel(mux *http.ServeMux, r *http.Request) string {
	_, pattern := mux.Handler(r)
	if _, path, ok := strings.Cut(pattern, " "); ok {
		return path
	}
	return "other"
}

// methodLabel is the bounded method label of a request's metrics: one
// of the nine methods net/http names (RFC 9110's eight and PATCH), or
// "other" — a client must not be able to mint a series per request.
// The request's span keeps the raw method.
func methodLabel(method string) string {
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodPatch,
		http.MethodDelete, http.MethodConnect, http.MethodOptions, http.MethodTrace:
		return method
	}
	return "other"
}

// statusRecorder captures the response status code for the middleware.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// middleware instruments every endpoint: request count by
// (route, method, code), latency by route, an in-flight gauge, and a
// root trace span. An incoming W3C traceparent header joins the
// request to the caller's trace (so client-side calls and the server's
// spans share one trace ID); absent or malformed headers start a fresh
// trace. The response carries X-Trace-Id and a traceparent of the root
// span, so callers can fetch the assembled tree from /debug/traces.
func (o *serverObs) middleware(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeLabel(mux, r)
		o.httpInFlight.Add(1)
		start := time.Now()
		traceID, parentID, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
		ctx, span := o.tracer.StartRemote(r.Context(), "http "+route, traceID, parentID)
		span.SetAttr("method", r.Method)
		span.SetAttr("route", route)
		w.Header().Set("X-Trace-Id", span.TraceID())
		w.Header().Set("Traceparent", obs.FormatTraceparent(span.TraceID(), span.SpanID()))
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		mux.ServeHTTP(rec, r.WithContext(ctx))
		o.httpInFlight.Add(-1)
		o.httpLatency.With(route).Observe(time.Since(start).Seconds())
		o.httpRequests.With(route, methodLabel(r.Method), strconv.Itoa(rec.code)).Inc()
		span.SetAttr("code", strconv.Itoa(rec.code))
		if rec.code >= http.StatusInternalServerError {
			span.Fail(fmt.Errorf("HTTP %d", rec.code))
		}
		span.End()
	})
}

// Health reports the server's liveness summary plus per-SLO status:
// Status is the worst rule's level and Ready is false only on a
// sustained (both-window) breach.
func (s *Server) Health() HealthResponse {
	s.st.mu.Lock()
	jobs := len(s.st.jobs)
	regions := len(s.st.regions)
	sig := s.st.signal != nil
	fc := s.st.fspec != nil
	s.st.mu.Unlock()
	s.ctrl.mu.Lock()
	running := s.ctrl.running
	s.ctrl.mu.Unlock()
	slos := s.evalSLOs(s.st.now())
	worst := obs.StatusOK
	for _, st := range slos {
		if sloLevel(st.Status) > sloLevel(worst) {
			worst = st.Status
		}
	}
	return HealthResponse{
		Status:            worst,
		Ready:             worst != obs.StatusBreach,
		UptimeS:           time.Since(s.obs.started).Seconds(),
		Jobs:              jobs,
		Regions:           regions,
		SignalInstalled:   sig,
		ForecastInstalled: fc,
		ControllerRunning: running,
		SLOs:              slos,
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Health())
}

// handleMetrics serves the registry in Prometheus text exposition
// format (hand-rolled — the module has zero external dependencies).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.obs.reg.WritePrometheus(w)
}

// Events returns the most recent events (limit <= 0 returns the whole
// retained window).
func (s *Server) Events(limit int) EventsResponse {
	return EventsResponse{Events: s.obs.ring.Snapshot(limit)}
}

// EventsSince returns the retained events with Seq > since, oldest
// first, capped at limit — the cursor read a poller advances with (see
// Ring.SnapshotSince for the cap and gap semantics).
func (s *Server) EventsSince(since uint64, limit int) EventsResponse {
	return EventsResponse{Events: s.obs.ring.SnapshotSince(since, limit)}
}

func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	limit, ok := queryN(w, r.URL.Query())
	if !ok {
		return
	}
	var resp EventsResponse
	if v := r.URL.Query().Get("since"); v != "" {
		since, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad since: "+v, http.StatusBadRequest)
			return
		}
		resp = s.EventsSince(since, limit)
	} else {
		resp = s.Events(limit)
	}
	writeJSON(w, resp)
}

// maxTraceFilter caps ?min_ms= before it is converted, so a huge value
// filters out every trace rather than overflowing time.Duration.
const maxTraceFilter = time.Duration(math.MaxInt64 / 2)

func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit, ok := queryN(w, q)
	if !ok {
		return
	}
	var minDur time.Duration
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || !(ms >= 0) || math.IsInf(ms, 1) {
			http.Error(w, fmt.Sprintf("bad min_ms: %q", v), http.StatusBadRequest)
			return
		}
		minDur = time.Duration(min(ms, float64(maxTraceFilter/time.Millisecond)) * float64(time.Millisecond))
	}
	writeJSON(w, TracesResponse{Traces: s.Traces(limit, minDur, q.Get("op"))})
}

func (s *Server) handleDebugSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, SLOResponse{SLOs: s.SLOs()})
}

// Metrics exposes the server's registry (test and embedding hook).
func (s *Server) Metrics() *obs.Registry { return s.obs.reg }
