// Package server implements the Perseus server (paper §3.2, Figure 4): a
// framework- and accelerator-agnostic, cluster-wide singleton that
// receives each job's computation DAG and online profiling results,
// asynchronously characterizes the time-energy frontier, caches energy
// schedules in a lookup table, and serves the schedule for
// T_opt = min(T*, T') — updating it when the training infrastructure
// reports a straggler via set_straggler (Table 2).
//
// The server is organized as resource-oriented modules sharing one
// concurrency-safe store (store.go):
//
//   - jobs.go      job registry, profiling, deployed schedules (with
//     ETag/long-poll version fetching), stragglers, frontiers
//   - fleet.go     facility power cap and the fleet allocator
//   - grid.go      grid signal install, cached temporal planning,
//     emissions accounting
//   - regions.go   datacenter regions, placement, joint planning
//   - forecast.go  forecast issuing and rolling-horizon re-planning
//   - controller.go the background MPC controller runtime: a loop that
//     ticks at signal-interval boundaries, re-plans every managed job
//     with the executed prefix frozen, and bumps schedule versions
//   - cache.go     the single-flight plan cache keyed by
//     (plan epoch, frontier hash, request params); an entry is the
//     plan and, once served over HTTP, its encoded body
//   - obs.go       the observability surface: the internal/obs metric
//     registry and event ring, the HTTP instrumentation middleware,
//     and the /metrics, /healthz, and /debug/events endpoints
//   - ledger.go    the online energy-bloat ledger wiring: per-span
//     decomposition at every settlement (obs.Ledger), the per-job and
//     fleet bloat series, migration-overhead charging, and
//     GET /debug/ledger
//
// The grid and region planning endpoints drive the shared
// internal/plan planners (grid.Planner, region.Planner); the fleet
// recompute and the controller's incremental roll-forward use the same
// layers through their native entry points (fleet.Allocate and
// grid.Optimize over forecast windows — the controller is the
// deployable, prefix-freezing counterpart of forecast.Planner). A
// controller tick plans the whole fleet from one tickView (forecast.go):
// one clock read, one forecast per requested horizon, the managed jobs
// rolled forward in parallel under per-schedule locks.
package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	pln "perseus/internal/plan"
)

// Server is the Perseus server. Create with New and expose via Handler.
type Server struct {
	st    *store
	cache *planCache

	// hub is the notification fabric long-poll fan-out rides on: every
	// schedule version bump and plan-epoch advance is one O(1)
	// broadcast that wakes all parked waiters of the topic (hub.go).
	hub *hub

	// fleetMu serializes whole fleet recomputations (read cap →
	// allocate → deploy floors), so concurrent recomputes cannot
	// interleave their write-backs and deploy floors for a stale cap.
	fleetMu sync.Mutex

	// replans holds the rolling schedules by job; replanMu guards the
	// map, not the schedules — each replanState has its own lock, so
	// different jobs roll forward in parallel. A roll-forward holds the
	// read side from its lookup to its version bump; creating or
	// restarting a schedule, DELETE /jobs/{id} and a signal install's
	// clear take the write side, which therefore is a barrier: once it
	// returns, no roll-forward of a dropped schedule is in flight and
	// none can find one. Lock order: replanMu → replanState.mu →
	// job.mu; st.mu is never held across a solve.
	replanMu sync.RWMutex
	replans  map[string]*replanState

	// ctrl is the background MPC controller runtime.
	ctrl controller

	// obs is the observability surface every module records into.
	obs *serverObs

	// planWrap, when set, wraps every planner the server constructs
	// before instrumentation — the test seam fault-injection tests use
	// to force solver errors. Set before serving traffic; never mutated
	// concurrently with requests.
	planWrap func(pln.Planner) pln.Planner
}

// wrapPlanner applies the planWrap seam (identity when unset).
func (s *Server) wrapPlanner(p pln.Planner) pln.Planner {
	if s.planWrap != nil {
		return s.planWrap(p)
	}
	return p
}

// New returns an empty server.
func New() *Server {
	s := &Server{
		st:      newStore(),
		obs:     newServerObs(),
		replans: map[string]*replanState{},
	}
	s.hub = newHub(s.obs)
	s.cache = newPlanCache(s.obs)
	s.ctrl.s = s
	s.ctrl.managed = map[string]managedJob{}
	return s
}

// SetClock replaces the server's wall clock — the hook fake-clock
// tests and compressed-timescale demos drive the controller with. The
// tracer shares the clock, so spans carry the same timeline as events.
func (s *Server) SetClock(fn func() time.Time) {
	s.st.mu.Lock()
	s.st.clock = fn
	s.st.mu.Unlock()
	s.obs.tracer.SetClock(fn)
}

// Handler returns the HTTP API:
//
//	POST /jobs                      register a job
//	POST /jobs/{id}/profile        upload profiling results
//	GET  /jobs/{id}/schedule       fetch the deployed energy schedule
//	                               (ETag; If-None-Match + ?wait long-polls)
//	POST /jobs/{id}/straggler      set_straggler notification
//	GET  /jobs/{id}/frontier       fetch the characterized frontier
//	GET  /jobs/{id}/table          fetch the full energy-schedule lookup table
//	GET  /jobs/{id}/allocation     fetch the job's fleet allocation
//	GET  /jobs/{id}/emissions      fetch the job's cumulative emissions
//	GET  /jobs/{id}/rollout        fetch the job's rolling-horizon schedule
//	                               state without triggering a re-plan
//	POST /fleet/cap                set the fleet power cap
//	GET  /fleet/status             fetch the fleet-wide allocation
//	POST /grid/signal              install a grid signal (carbon/price/cap trace)
//	GET  /grid/signal              fetch the installed grid signal
//	GET  /grid/plan/{id}           plan a job's temporal schedule over the signal
//	                               (cached; identical concurrent requests solve once)
//	POST /grid/forecast            install a forecast issuer and issue a forecast
//	GET  /grid/forecast            fetch the latest issued forecast
//	GET  /grid/replan/{id}         roll a job's schedule forward: freeze the executed
//	                               prefix, re-plan the rest on the latest forecast
//	POST /regions                  register a datacenter region (capacity + signal)
//	GET  /regions                  list the registered regions
//	GET  /regions/plan             plan all jobs' spatio-temporal schedules across regions
//	POST /jobs/{id}/placement      place (or migrate) a job into a region
//	GET  /jobs/{id}/placement      fetch a job's placement and history
//	GET  /controller               fetch the controller runtime status
//	POST /controller/jobs          put a job's rolling schedule under controller management
//	POST /controller/start         start the background tick loop
//	POST /controller/stop          stop the background tick loop
//	POST /controller/tick          run one controller tick synchronously
//	GET  /metrics                  Prometheus text exposition of every metric
//	GET  /healthz                  liveness + readiness with per-SLO status
//	GET  /debug/events             recent structured event ring as JSON
//	                               (?n= limit, ?since= Seq cursor)
//	GET  /debug/traces             assembled trace span trees, newest first
//	                               (?n= limit, ?min_ms= floor, ?op= span filter)
//	GET  /debug/slo                every SLO rule evaluated now
//	GET  /debug/ledger             per-job + fleet energy-bloat ledger
//	                               (?job= one job, ?n= entry cap, ?format=json|csv)
//	DELETE /jobs/{id}              unregister a job: final span settled,
//	                               per-job metric series deleted
//
// Every endpoint is instrumented (request count/status/latency, an
// in-flight gauge, and a root trace span continuing any incoming W3C
// traceparent) by the observability middleware in obs.go.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJob)
	mux.HandleFunc("/fleet/cap", s.handleFleetCap)
	mux.HandleFunc("/fleet/status", s.handleFleetStatus)
	mux.HandleFunc("/grid/signal", s.handleGridSignal)
	mux.HandleFunc("/grid/plan/", s.handleGridPlan)
	mux.HandleFunc("/grid/forecast", s.handleGridForecast)
	mux.HandleFunc("/grid/replan/", s.handleGridReplan)
	mux.HandleFunc("/regions", s.handleRegions)
	mux.HandleFunc("/regions/plan", s.handleRegionsPlan)
	mux.HandleFunc("/controller", s.handleController)
	mux.HandleFunc("/controller/", s.handleControllerAction)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/events", s.handleDebugEvents)
	mux.HandleFunc("/debug/traces", s.handleDebugTraces)
	mux.HandleFunc("/debug/slo", s.handleDebugSLO)
	mux.HandleFunc("/debug/ledger", s.handleDebugLedger)
	return s.obs.middleware(mux)
}

// jsonBufs holds the buffers JSON responses are encoded into before
// anything is written.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON answers 200 with v's JSON encoding, or 500 when v cannot be
// encoded (a NaN or ±Inf float): v is encoded in full first, so a
// failure can still change the status instead of cutting a 200 short.
func writeJSON(w http.ResponseWriter, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, "encode response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSONBody(w, buf.Bytes())
}

// writeJSONBody answers 200 with an already encoded JSON body in one
// Write, its length declared so the response is not chunked.
func writeJSONBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	// A failed write means the client is gone; there is no one to tell.
	_, _ = w.Write(body)
}
