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
//     emissions (a view of the job's ledger totals)
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
//   - ledger.go    the online energy-bloat ledger (obs.Ledger), the
//     server's only account of settled energy, carbon and cost: per-span
//     decomposition at every settlement, migration-overhead charging,
//     the per-job and fleet bloat series as views of its totals, and
//     GET /debug/ledger
//
// The server calls the planning layers directly — grid.Solver.Optimize
// for a cold plan and for the controller's roll-forward over forecast
// windows (the deployable, prefix-freezing counterpart of
// forecast.Replan), region.Optimize for the joint region plan,
// fleet.Allocate for the fleet recompute — each through one helper,
// Server.solve, that times, counts and traces the solve. A
// controller tick plans the whole fleet from one tickView (forecast.go):
// one clock read, one forecast per requested horizon, the managed jobs
// rolled forward in parallel under per-schedule locks.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"perseus/internal/api"
	"perseus/internal/grid"
	"perseus/internal/obs"
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

	// replans holds the managed jobs' rolling schedules by job, and order
	// their IDs in management order (a tick's error slots and GET
	// /controller follow it): a job is managed exactly while it has a
	// schedule. replanMu guards both, not the schedules — each
	// replanState has its own lock, so different jobs roll forward in
	// parallel. A tick's roll-forward holds the read side from its lookup
	// to its version bump; ManageJob, DELETE /jobs/{id} and a signal
	// install's clear take the write side, which therefore is a barrier:
	// once it returns, no roll-forward of a dropped schedule is in flight
	// and none can find one. Lock order: replanMu → replanState.mu →
	// job.mu; st.mu is never held across a solve.
	replanMu sync.RWMutex
	replans  map[string]*replanState
	order    []string

	// ctrl is the background MPC controller loop.
	ctrl controller

	// obs is the observability surface every module records into.
	obs *serverObs

	// solveHook, when set, runs inside every solve before the layer
	// does, with the layer label and the signal the solve plans over
	// (nil for the region and fleet layers); an error it returns fails
	// the solve. It is the seam tests gate, count and fail solves
	// through. Set before serving traffic; never mutated concurrently
	// with requests.
	solveHook func(layer string, sig *grid.Signal) error
}

// solve runs one planning-layer solve through obs.Solve: timed into
// planner_plan_duration_seconds (layer, objective), a failure counted
// into planner_plan_errors_total, and a planner.solve child span of
// ctx's active span carrying the attrs solve returns.
func (s *Server) solve(ctx context.Context, layer string, obj pln.Objective, sig *grid.Signal, solve func() (attrs []string, err error)) error {
	return obs.Solve(ctx, layer, obj, s.obs.planLatency, s.obs.planErrors, func() ([]string, error) {
		if s.solveHook != nil {
			if err := s.solveHook(layer, sig); err != nil {
				return nil, err
			}
		}
		return solve()
	})
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

// Wire types: every request and response body is declared once, in
// internal/api; the server names them by alias.
type (
	JobRequest            = api.JobRequest
	JobResponse           = api.JobResponse
	MeasurementJSON       = api.MeasurementJSON
	ProfileUpload         = api.ProfileUpload
	StragglerNotice       = api.StragglerNotice
	ScheduleResponse      = api.ScheduleResponse
	FrontierResponse      = api.FrontierResponse
	FleetCapRequest       = api.FleetCapRequest
	JobAllocationResponse = api.JobAllocationResponse
	FleetStatusResponse   = api.FleetStatusResponse
	GridSignalRequest     = api.GridSignalRequest
	GridSignalResponse    = api.GridSignalResponse
	EmissionsResponse     = api.EmissionsResponse
	RegionRequest         = api.RegionRequest
	RegionInfo            = api.RegionInfo
	PlacementRequest      = api.PlacementRequest
	PlacementEntry        = api.PlacementEntry
	PlacementResponse     = api.PlacementResponse
	ForecastRequest       = api.ForecastRequest
	ForecastResponse      = api.ForecastResponse
	ReplanResponse        = api.ReplanResponse
	RolloutResponse       = api.RolloutResponse
	ControllerJobStatus   = api.ControllerJobStatus
	ControllerStatus      = api.ControllerStatus
	ControllerJobRequest  = api.ControllerJobRequest
	CacheStats            = api.CacheStats
	HealthResponse        = api.HealthResponse
	EventsResponse        = api.EventsResponse
	TracesResponse        = api.TracesResponse
	SLOResponse           = api.SLOResponse
	LedgerResponse        = api.LedgerResponse
)

// route is one endpoint: a net/http method-and-wildcard pattern
// ("GET /jobs/{id}/schedule") and its handler.
type route struct {
	pattern string
	handler http.HandlerFunc
}

// routes is the HTTP API — the one list of endpoints. The mux answers
// 404 for a path no pattern matches and 405 (with an Allow header) for
// a known path under another method, so handlers check neither; the
// middleware labels metrics and spans with the matched pattern's path.
// There is deliberately no catch-all "/" pattern: it would swallow the
// mux's own 405s.
func (s *Server) routes() []route {
	return []route{
		{"POST /jobs", s.handleRegister},                             // register a job
		{"DELETE /jobs/{id}", s.withJob(s.handleRemoveJob)},          // unregister: final span settled, account closed
		{"POST /jobs/{id}/profile", s.withJob(s.handleProfile)},      // upload profiling results
		{"GET /jobs/{id}/schedule", s.withJob(s.handleSchedule)},     // deployed energy schedule (ETag; If-None-Match + ?wait long-polls)
		{"POST /jobs/{id}/straggler", s.withJob(s.handleStraggler)},  // set_straggler notification
		{"GET /jobs/{id}/frontier", s.withJob(s.handleFrontier)},     // characterized frontier
		{"GET /jobs/{id}/table", s.withJob(s.handleTable)},           // full energy-schedule lookup table
		{"GET /jobs/{id}/allocation", s.withJob(s.handleAllocation)}, // the job's fleet allocation
		{"GET /jobs/{id}/emissions", s.withJob(s.handleEmissions)},   // cumulative emissions account
		{"GET /jobs/{id}/rollout", s.withJob(s.handleRollout)},       // rolling-horizon schedule state, without re-planning
		{"POST /jobs/{id}/placement", s.withJob(s.handlePlace)},      // place (or migrate) the job into a region
		{"GET /jobs/{id}/placement", s.withJob(s.handlePlacement)},   // placement and history
		{"POST /fleet/cap", s.handleFleetCap},                        // set the fleet power cap
		{"GET /fleet/status", s.handleFleetStatus},                   // fleet-wide allocation
		{"POST /grid/signal", s.handleSetGridSignal},                 // install a grid signal (carbon/price/cap trace)
		{"GET /grid/signal", s.handleGridSignal},                     // the installed grid signal
		{"GET /grid/plan/{id}", s.handleGridPlan},                    // temporal plan over the signal (cached, single-flight; ETag + ?wait)
		{"POST /grid/forecast", s.handleSetForecast},                 // install a forecast issuer and issue a forecast
		{"GET /grid/forecast", s.handleForecast},                     // the latest issued forecast
		{"POST /regions", s.handleRegisterRegion},                    // register a datacenter region (capacity + signal)
		{"GET /regions", s.handleRegions},                            // list the registered regions
		{"GET /regions/plan", s.handleRegionsPlan},                   // joint spatio-temporal plan across regions
		{"GET /controller", s.handleController},                      // controller runtime status
		{"POST /controller/jobs", s.handleManageJob},                 // put a rolling schedule under controller management
		{"POST /controller/start", s.handleControllerStart},          // start the background tick loop
		{"POST /controller/stop", s.handleControllerStop},            // stop the background tick loop
		{"POST /controller/tick", s.handleControllerTick},            // run one tick synchronously
		{"GET /metrics", s.handleMetrics},                            // Prometheus text exposition
		{"GET /healthz", s.handleHealthz},                            // liveness + readiness with per-SLO status
		{"GET /debug/events", s.handleDebugEvents},                   // event ring (?n= limit, ?since= Seq cursor)
		{"GET /debug/traces", s.handleDebugTraces},                   // span trees, newest first (?n=, ?min_ms=, ?op=)
		{"GET /debug/slo", s.handleDebugSLO},                         // every SLO rule evaluated now
		{"GET /debug/ledger", s.handleDebugLedger},                   // energy-bloat ledger (?job=, ?n=, ?format=json|csv)
	}
}

// Handler returns the HTTP API: the endpoints listed in routes, each
// instrumented (request count/status/latency, an in-flight gauge, and a
// root trace span continuing any incoming W3C traceparent) by the
// observability middleware in obs.go.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.HandleFunc(rt.pattern, rt.handler)
	}
	return s.obs.middleware(mux)
}

// withJob resolves the {id} of a /jobs/{id}/… route, answering 404 for
// an unknown job.
func (s *Server) withJob(h func(http.ResponseWriter, *http.Request, *job)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.st.job(r.PathValue("id"))
		if !ok {
			http.NotFound(w, r)
			return
		}
		h(w, r, j)
	}
}

// maxBodyBytes bounds every request body. A profile upload is about 20
// bytes a measurement (26,080 for an 8-stage job's 1,296), and a
// 288-interval grid signal 31,414 bytes of JSON; 4 MiB leaves room for
// paper-scale profiles and still refuses a body before it costs real
// memory.
const maxBodyBytes = 4 << 20

// decodeBody hands the request's body, cut off after maxBodyBytes, to
// decode. ok is false after it has answered 400 for a body decode
// refuses or 413 for one over maxBodyBytes.
func decodeBody(w http.ResponseWriter, r *http.Request, decode func(io.Reader) error) (ok bool) {
	err := decode(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, err.Error(), status)
	return false
}

// readBody reads body to EOF. A declared length (the request's
// Content-Length) in (0, maxBodyBytes] only sizes the buffer, with the
// bytes.MinRead ReadFrom wants free before each read, EOF's included: a
// body shorter or longer than declared still reads as what it is.
func readBody(body io.Reader, declared int64) ([]byte, error) {
	if declared < 0 || declared > maxBodyBytes {
		declared = 0
	}
	buf := bytes.NewBuffer(make([]byte, 0, declared+bytes.MinRead))
	_, err := buf.ReadFrom(body)
	return buf.Bytes(), err
}

// decodeJSON reads the request's JSON body into v (decodeBody): one
// JSON value, followed by nothing but white space.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) (ok bool) {
	return decodeBody(w, r, func(body io.Reader) error {
		dec := json.NewDecoder(body)
		if err := dec.Decode(v); err != nil {
			return err
		}
		switch err := dec.Decode(new(json.RawMessage)); err {
		case io.EOF:
			return nil
		case nil:
			return errors.New("body holds more than one JSON value")
		default:
			return fmt.Errorf("after the JSON value: %w", err)
		}
	})
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
	writeBody(w, "application/json", buf.Bytes())
}

// writeResult answers a call's outcome: failStatus with err's message
// when it failed, v as JSON otherwise.
func writeResult(w http.ResponseWriter, v any, err error, failStatus int) {
	if err != nil {
		http.Error(w, err.Error(), failStatus)
		return
	}
	writeJSON(w, v)
}

// jobError answers a failed planning call for job id: 404 when the job
// does not exist, 400 (the request cannot be planned) otherwise.
func (s *Server) jobError(w http.ResponseWriter, id string, err error) {
	status := http.StatusBadRequest
	if _, ok := s.st.job(id); !ok {
		status = http.StatusNotFound
	}
	http.Error(w, err.Error(), status)
}

// writeBody answers 200 with an already encoded body in one Write, its
// length declared so the response is not chunked.
func writeBody(w http.ResponseWriter, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	// A failed write means the client is gone; there is no one to tell.
	_, _ = w.Write(body)
}
