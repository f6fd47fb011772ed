package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"perseus/internal/forecast"
	"perseus/internal/frontier"
	"perseus/internal/grid"
	"perseus/internal/obs"
	pln "perseus/internal/plan"
)

// ForecastRequest installs a forecast issuer over the installed grid
// signal and issues a forecast from the revealed history.
type ForecastRequest struct {
	// Model selects the forecaster: persistence, seasonal, or smoothed
	// (history-driven models), or "revisions" — the seeded noisy-
	// revision feed that simulates an external forecast provider over
	// the installed signal, the issuer the background controller's MPC
	// experiments replay.
	Model string `json:"model"`

	// Level is the uncertainty-band quantile level; 0 means 0.9.
	Level float64 `json:"level,omitempty"`

	// Quantile is the default planning quantile GET /grid/replan uses:
	// 0 plans on the point forecast, higher values plan robustly
	// against the pessimistic band.
	Quantile float64 `json:"quantile,omitempty"`

	// HorizonS extends the forecast coverage in signal seconds; 0
	// means one full signal cycle beyond the current time.
	HorizonS float64 `json:"horizon_s,omitempty"`

	// Seed and Sigma parameterize the "revisions" issuer (ignored for
	// history-driven models): Seed selects the innovation stream and
	// Sigma the per-step relative innovation (0 = the provider default).
	Seed  int64   `json:"seed,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
}

// ForecastResponse is an issued forecast plus the installed issuer
// parameters.
type ForecastResponse struct {
	Model     string  `json:"model"`
	Level     float64 `json:"level"`
	Quantile  float64 `json:"quantile"`
	IssuedS   float64 `json:"issued_s"`
	HorizonS  float64 `json:"horizon_s"`
	Intervals int     `json:"intervals"`

	// Forecast is the issued forecast: point-forecast signal plus
	// carbon and price bands.
	Forecast *forecast.Forecast `json:"forecast"`
}

// forecastSpec is the installed forecast issuer: either a history-
// driven model or the seeded revisions feed. It is immutable once
// installed; provider() materializes a forecast.Provider for one issue
// time's horizon.
type forecastSpec struct {
	name     string
	model    forecast.Model // nil for the revisions issuer
	seed     int64
	sigma    float64
	level    float64
	quantile float64
}

// provider returns the issuer as a forecast.Provider covering at least
// horizonS of the signal.
func (fs *forecastSpec) provider(sig *grid.Signal, horizonS float64) forecast.Provider {
	if fs.model != nil {
		return &forecast.FromHistory{Truth: sig, Model: fs.model, HorizonS: horizonS, Level: fs.level}
	}
	return &forecast.Revisions{Truth: sig, Seed: fs.seed, Sigma: fs.sigma, HorizonS: horizonS, Level: fs.level}
}

// ReplanInterval is one frozen (already executed) span of a job's
// rolling-horizon schedule, with realized and predicted accounting —
// exactly the controller's executed-interval record.
type ReplanInterval = forecast.ExecutedInterval

// ReplanResponse is a job's rolling-horizon schedule state: the frozen
// executed prefix (realized against the installed signal, predicted
// against the forecasts that planned it) and the freshly re-planned
// remainder.
type ReplanResponse struct {
	JobID     string  `json:"job_id"`
	Target    float64 `json:"target_iterations"`
	DeadlineS float64 `json:"deadline_s"`
	Objective string  `json:"objective"`
	Quantile  float64 `json:"quantile"`

	// Plans counts planner invocations for this schedule so far.
	Plans int `json:"plans"`

	// DoneIterations is the frozen prefix's progress;
	// RemainingIterations is what the fresh plan still has to cover.
	DoneIterations      float64 `json:"done_iterations"`
	RemainingIterations float64 `json:"remaining_iterations"`

	// Feasible reports whether the remaining target still fits before
	// the deadline under the latest forecast.
	Feasible bool `json:"feasible"`

	// Frozen lists the executed spans in time order (signal seconds).
	Frozen []ReplanInterval `json:"frozen,omitempty"`

	// EnergyJ, CarbonG, and CostUSD total the frozen prefix (realized);
	// PredCarbonG and PredCostUSD total what its planning forecasts
	// predicted for it.
	EnergyJ     float64 `json:"energy_j"`
	CarbonG     float64 `json:"carbon_g"`
	CostUSD     float64 `json:"cost_usd"`
	PredCarbonG float64 `json:"pred_carbon_g"`
	PredCostUSD float64 `json:"pred_cost_usd"`

	// Remaining is the fresh plan for [RemainingOffsetS, DeadlineS),
	// with interval times relative to RemainingOffsetS; nil once the
	// target is complete.
	Remaining        *grid.Plan `json:"remaining,omitempty"`
	RemainingOffsetS float64    `json:"remaining_offset_s"`
}

// replanState is a job's rolling schedule between roll-forwards (client
// GET /grid/replan calls and controller ticks share it): the request
// that identifies it plus the forecast.Stepper that carries it forward
// — the same stepper forecast.Replan loops over offline. Guarded by
// Server.replanMu.
type replanState struct {
	*forecast.Stepper
	reqDeadline float64 // the raw request parameter (0 = default)
	reqQuantile float64 // the raw request parameter (0 = installed default)
	frevSeen    int     // forecast revision of the last roll-forward

	// lastPlanAt is the wall-clock time of the last successful re-plan
	// (zero before the first), surfaced per job in GET /controller.
	lastPlanAt time.Time
}

func (s *Server) handleGridForecast(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req ForecastRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := s.setForecast(r.Context(), req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, resp)
	case http.MethodGet:
		resp, err := s.Forecast()
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, resp)
	default:
		http.Error(w, "POST or GET only", http.StatusMethodNotAllowed)
	}
}

// SetForecast installs a forecast issuer over the installed signal and
// issues a fresh forecast from the history revealed so far — a
// forecast *revision*: every job's predicted accrual is settled
// against the previous forecast first, subsequent re-plans run against
// the new issuer, and the plan-cache epoch advances.
func (s *Server) SetForecast(req ForecastRequest) (ForecastResponse, error) {
	return s.setForecast(context.Background(), req)
}

func (s *Server) setForecast(ctx context.Context, req ForecastRequest) (ForecastResponse, error) {
	spec := &forecastSpec{name: req.Model, seed: req.Seed, sigma: req.Sigma}
	if req.Model != "revisions" {
		model, err := forecast.ModelByName(req.Model)
		if err != nil {
			return ForecastResponse{}, err
		}
		spec.model = model
		spec.name = model.Name()
	}
	level := req.Level
	if level == 0 {
		level = 0.9
	}
	if !(level > 0.5) || level >= 1 {
		return ForecastResponse{}, fmt.Errorf("server: forecast band level must be in (0.5, 1), got %v", req.Level)
	}
	if math.IsNaN(req.Quantile) || req.Quantile < 0 || req.Quantile >= 1 {
		return ForecastResponse{}, fmt.Errorf("server: forecast planning quantile must be in [0, 1), got %v", req.Quantile)
	}
	if math.IsNaN(req.HorizonS) || math.IsInf(req.HorizonS, 0) || req.HorizonS < 0 {
		return ForecastResponse{}, fmt.Errorf("server: forecast horizon must be finite and non-negative, got %v", req.HorizonS)
	}
	if math.IsNaN(req.Sigma) || req.Sigma < 0 || req.Sigma > 2 {
		return ForecastResponse{}, fmt.Errorf("server: forecast revision sigma must be in [0, 2], got %v", req.Sigma)
	}
	spec.level = level
	spec.quantile = req.Quantile

	// Settle every job's accounting under the previous forecast before
	// the predicted rates change.
	gs := s.st.gridState()
	if gs.sig == nil {
		return ForecastResponse{}, fmt.Errorf("server: no grid signal installed to forecast")
	}
	s.st.settleAll(gs)

	t := gs.now.Sub(gs.start).Seconds()
	if t < 0 {
		t = 0
	}
	fc, err := issueForecast(gs.sig, spec, t, req.HorizonS)
	if err != nil {
		return ForecastResponse{}, err
	}

	s.st.mu.Lock()
	s.st.fspec = spec
	s.st.fcast = fc
	s.st.fcastAt = gs.now
	s.st.frev++
	s.st.epoch++
	s.st.mu.Unlock()
	s.cache.clear()
	s.hub.bump(topicPlanEpoch)
	s.obs.ring.Emit(gs.now, "forecast.revise", 0, traceKV(ctx,
		"model", spec.name, "intervals", strconv.Itoa(len(fc.Signal.Intervals)))...)
	return ForecastResponse{
		Model:     spec.name,
		Level:     level,
		Quantile:  req.Quantile,
		IssuedS:   fc.IssuedS,
		HorizonS:  fc.Signal.Horizon(),
		Intervals: len(fc.Signal.Intervals),
		Forecast:  fc,
	}, nil
}

// maxForecastCycles bounds how many signal cycles a single issued
// forecast may materialize: issuing extends coverage to the requested
// horizon interval by interval, so an unbounded request (a deadline of
// years against a seconds-scale trace) would otherwise let one HTTP
// call allocate without limit while holding the roll-forward lock.
const maxForecastCycles = 1000

// issueForecast runs the issuer over the signal's revealed history at
// signal time t. The coverage always extends at least one full signal
// cycle past t (rounded up to whole cycles), so a re-plan issued late
// in the trace still sees a day ahead.
func issueForecast(sig *grid.Signal, spec *forecastSpec, t, horizonS float64) (*forecast.Forecast, error) {
	h := sig.Horizon()
	horizon := math.Ceil((t+h)/h) * h
	if horizonS > horizon {
		horizon = horizonS
	}
	if horizon > maxForecastCycles*h {
		return nil, fmt.Errorf("server: forecast horizon %v exceeds %d cycles of the %v s signal", horizon, maxForecastCycles, h)
	}
	return spec.provider(sig, horizon).At(t)
}

// Forecast returns the latest issued forecast.
func (s *Server) Forecast() (ForecastResponse, error) {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	if s.st.fcast == nil {
		return ForecastResponse{}, fmt.Errorf("server: no forecast installed")
	}
	return ForecastResponse{
		Model:     s.st.fspec.name,
		Level:     s.st.fspec.level,
		Quantile:  s.st.fspec.quantile,
		IssuedS:   s.st.fcast.IssuedS,
		HorizonS:  s.st.fcast.Signal.Horizon(),
		Intervals: len(s.st.fcast.Signal.Intervals),
		Forecast:  s.st.fcast,
	}, nil
}

func (s *Server) handleGridReplan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/grid/replan/")
	if id == "" || strings.Contains(id, "/") {
		http.NotFound(w, r)
		return
	}
	q := r.URL.Query()
	f, ok := queryFloats(w, q, "iterations", "deadline", "quantile")
	if !ok {
		return
	}
	resp, err := s.replan(r.Context(), id, f[0], f[1], q.Get("objective"), f[2])
	if err != nil {
		status := http.StatusBadRequest
		if _, ok := s.st.job(id); !ok {
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, resp)
}

// Replan rolls a job's forecast-driven schedule forward to now: the
// span executed since the previous roll-forward is frozen — its slices
// accrued against the installed signal (realized) and against the
// forecast that planned them (predicted) — and the remainder is
// re-planned with grid.Optimize against a forecast freshly issued from
// the installed issuer, completing target iterations by the deadline
// (signal seconds; 0 means the forecast horizon). Changing any
// parameter restarts the schedule from now. quantile 0 uses the
// installed default; values above 0.5 plan against the pessimistic
// band (robust mode).
//
// Client calls and controller ticks share one serialized roll-forward,
// so the frozen prefix is identical no matter who observes it — and a
// call that finds time and forecast unchanged returns the current
// state without re-planning.
func (s *Server) Replan(id string, target, deadline float64, objective string, quantile float64) (*ReplanResponse, error) {
	return s.replan(context.Background(), id, target, deadline, objective, quantile)
}

// replan is Replan with context: under a traced request or controller
// tick, the roll-forward records its stage spans (replan.inputs,
// replan.freeze, replan.forecast, replan.solve, replan.bump) as
// children of the active span.
func (s *Server) replan(ctx context.Context, id string, target, deadline float64, objective string, quantile float64) (*ReplanResponse, error) {
	_, insp := obs.Child(ctx, spanReplanInputs)
	insp.SetAttr("job", id)
	s.replanMu.Lock()
	defer s.replanMu.Unlock()
	in, err := s.rollInputsLocked(id)
	// The raw quantile parameter identifies the schedule (like the raw
	// deadline): 0 resolves to the issuer's default once, at creation,
	// so a forecast re-install with a different default is a revision
	// of the forecast — never a silent restart of a rolling schedule
	// that asked for "the default".
	reqQuantile := quantile
	if err == nil && quantile == 0 {
		quantile = in.spec.quantile
	}
	switch {
	case err != nil:
	case !(target > 0) || math.IsInf(target, 0):
		err = fmt.Errorf("server: replan target iterations must be positive and finite, got %v", target)
	case math.IsNaN(deadline) || math.IsInf(deadline, 0) || deadline < 0:
		err = fmt.Errorf("server: replan deadline must be finite and non-negative, got %v", deadline)
	case math.IsNaN(quantile) || quantile < 0 || quantile >= 1:
		err = fmt.Errorf("server: replan quantile must be in [0, 1), got %v", quantile)
	case objective != "":
		in.obj, err = grid.ParseObjective(objective)
	}
	insp.Fail(err)
	insp.End()
	if err != nil {
		return nil, err
	}

	// The restart check compares the *requested* deadline: with the 0
	// default the effective deadline is pinned once at state creation
	// (the forecast horizon then), so the horizon growing with time on
	// later calls is not mistaken for a parameter change.
	if rs := in.rs; rs == nil || rs.Target != target || rs.reqDeadline != deadline ||
		rs.Objective != in.obj || rs.reqQuantile != reqQuantile {
		_, fsp := obs.Child(ctx, spanReplanFcast)
		fc, err := issueForecast(in.sig, in.spec, in.t, deadline)
		fsp.Fail(err)
		fsp.End()
		if err != nil {
			return nil, err
		}
		eff := deadline
		if eff == 0 {
			eff = fc.Signal.Horizon()
		}
		if eff <= in.t {
			return nil, fmt.Errorf("server: replan deadline %v not after now (%v s into the signal)", eff, in.t)
		}
		if eff > fc.Signal.Horizon()+1e-9 {
			return nil, fmt.Errorf("server: replan deadline %v beyond forecast horizon %v", eff, fc.Signal.Horizon())
		}
		in.rs = &replanState{
			Stepper: forecast.NewStepper(in.table, in.sig, pln.Request{
				Target: target, DeadlineS: eff, Objective: in.obj, Quantile: quantile,
			}, in.t),
			reqDeadline: deadline, reqQuantile: reqQuantile,
		}
		s.replans[id] = in.rs
		if err := s.rollForwardLocked(ctx, in, fc); err != nil {
			delete(s.replans, id)
			return nil, err
		}
	} else if in.due {
		if err := s.rollForwardLocked(ctx, in, nil); err != nil {
			return nil, err
		}
	}
	return replanView(id, in.rs), nil
}

// rollInputs is what one roll-forward works from: the job's current
// table and pipeline count, the installed signal, forecast issuer,
// default objective and forecast revision, the job's rolling schedule
// (nil when it has none), and the signal time now.
type rollInputs struct {
	j     *job
	table *frontier.LookupTable
	pipes int
	sig   *grid.Signal
	spec  *forecastSpec
	obj   grid.Objective
	frev  int
	rs    *replanState

	// t never rewinds: a caller whose clock reads earlier than what the
	// schedule already executed clamps to the schedule's own time.
	t float64

	// due reports that rs warrants a roll-forward: time advanced, the
	// forecast was revised, or the last solve failed. Otherwise the
	// current state is already the answer.
	due bool
}

// rollInputsLocked is the shared prelude of client replans and
// controller ticks. Callers hold replanMu, and everything is read
// inside it. The clock: two racing callers (a controller tick and a
// client replan) otherwise freeze at different instants and the loser
// would rewind the schedule, double-counting spans the winner already
// froze. The signal and forecast: POST /grid/signal clears the rolling
// schedules under this same lock, so a replan that snapshotted the old
// signal outside it could re-insert a schedule of the replaced trace
// (anchored to the old clock) into the freshly cleared map.
func (s *Server) rollInputsLocked(id string) (rollInputs, error) {
	j, ok := s.st.job(id)
	if !ok {
		return rollInputs{}, fmt.Errorf("server: unknown job %s", id)
	}
	j.mu.Lock()
	in := rollInputs{j: j, table: j.table, pipes: j.req.DataParallel}
	j.mu.Unlock()
	if in.table == nil {
		return rollInputs{}, fmt.Errorf("server: job %s not characterized yet", id)
	}
	if in.pipes <= 0 {
		in.pipes = 1
	}
	s.st.mu.Lock()
	in.sig = s.st.signal
	start := s.st.sigStart
	in.spec = s.st.fspec
	in.obj = s.st.objective
	in.frev = s.st.frev
	s.st.mu.Unlock()
	if in.sig == nil {
		return rollInputs{}, fmt.Errorf("server: no grid signal installed")
	}
	if in.spec == nil {
		return rollInputs{}, fmt.Errorf("server: no forecast installed; POST /grid/forecast first")
	}
	in.t = math.Max(0, s.st.now().Sub(start).Seconds())
	if in.rs = s.replans[id]; in.rs != nil {
		in.t = math.Max(in.t, in.rs.At)
		in.due = in.t > in.rs.At+1e-9 || in.rs.frevSeen != in.frev || in.rs.Stalled()
	}
	return in, nil
}

// advanceManaged rolls an EXISTING rolling schedule forward — the
// controller tick's path. Unlike Replan it never creates state: after
// POST /grid/signal drops every schedule, a straggler tick iteration
// must not resurrect one with stale parameters; the job has to be
// re-managed explicitly. Under the tick's trace, the roll-forward's
// stage spans land as children of the controller.tick root.
func (s *Server) advanceManaged(ctx context.Context, id string) error {
	_, insp := obs.Child(ctx, spanReplanInputs)
	insp.SetAttr("job", id)
	s.replanMu.Lock()
	defer s.replanMu.Unlock()
	in, err := s.rollInputsLocked(id)
	if err == nil && in.rs == nil {
		err = fmt.Errorf("server: job %s has no rolling schedule (a signal change drops them; re-manage the job)", id)
	}
	insp.Fail(err)
	insp.End()
	if err != nil || !in.due {
		return err
	}
	return s.rollForwardLocked(ctx, in, nil)
}

// rollForwardLocked steps in.rs to in.t: the stepper freezes the
// span executed since the last roll-forward, then keeps or re-solves
// the plan against a freshly issued forecast (or the pre-issued one
// the creation path already holds for this t). Callers hold replanMu.
// Only a fresh plan bumps the job's schedule version and wakes its
// long-pollers; a kept plan changes nothing they deployed. Each stage
// records a child span of ctx's active span (replan.freeze,
// replan.forecast, replan.solve, replan.bump) — under a controller
// tick these are the tick root's per-stage children.
func (s *Server) rollForwardLocked(ctx context.Context, in rollInputs, fc *forecast.Forecast) error {
	id, rs := in.j.id, in.rs
	// A re-characterization since the last roll-forward applies from here.
	rs.Table, rs.Scale = in.table, float64(in.pipes)

	_, fz := obs.Child(ctx, spanReplanFreeze)
	fz.SetAttr("job", id)
	rs.ExecuteTo(in.t)
	fz.SetAttr("frozen", strconv.Itoa(len(rs.Intervals)))
	fz.End()

	// The freeze above is valid on its own (those spans did execute). A
	// failed solve leaves the stepper with no plan in force — never
	// claiming a schedule it does not have — and Stalled, so it is
	// retried on the next roll-forward even at the same time and
	// forecast revision.
	if fc == nil && rs.Open() {
		_, fsp := obs.Child(ctx, spanReplanFcast)
		fsp.SetAttr("job", id)
		var err error
		fc, err = issueForecast(in.sig, in.spec, in.t, rs.reqDeadline)
		fsp.Fail(err)
		fsp.End()
		if err != nil {
			s.obs.replanFails.Inc()
			return err
		}
	}
	rs.frevSeen = in.frev
	fresh, err := rs.Replan(fc, func(window *grid.Signal, target float64) (*grid.Plan, error) {
		// The solve runs through the instrumented grid planner over the
		// forecast window — the MPC counterpart of forecast.Planner,
		// reported as its own planning layer.
		sctx, sv := obs.Child(ctx, spanReplanSolve)
		defer sv.End()
		sv.SetAttr("job", id)
		p := obs.InstrumentPlanner(sctx, s.wrapPlanner(&grid.Planner{Table: rs.Table, Signal: window}),
			"forecast-mpc", s.obs.planLatency, s.obs.planErrors)
		res, err := p.Plan(pln.Request{Target: target, Objective: rs.Objective, PowerScale: rs.Scale})
		if err != nil {
			sv.Fail(err)
			return nil, err
		}
		return res.(*grid.Plan), nil
	})
	now := s.st.now()
	switch {
	case err != nil:
		s.obs.replanFails.Inc()
		return err
	case fresh:
		rs.lastPlanAt = now
		s.obs.replans.Inc()
		s.obs.ring.Emit(now, "controller.replan", 0, traceKV(ctx,
			"job", id, "plan", strconv.Itoa(rs.Plans),
			"feasible", strconv.FormatBool(rs.Plan.Feasible))...)
		// The rolling schedule changed: bump the job's version so
		// long-polling trainers fetch the new deployment.
		_, bsp := obs.Child(ctx, spanReplanBump)
		bsp.SetAttr("job", id)
		in.j.mu.Lock()
		in.j.bumpLocked()
		bsp.SetAttr("version", strconv.Itoa(in.j.version))
		in.j.mu.Unlock()
		bsp.End()
	case rs.Plan != nil:
		// Kept under the warm rule: nothing trainers deployed changed.
		s.obs.warmStarts.Inc()
		s.obs.ring.Emit(now, "controller.replan.warm", 0, traceKV(ctx,
			"job", id, "plan", strconv.Itoa(rs.Plans))...)
	}
	return nil
}

// replanView renders the current rolling-horizon state. Callers hold
// replanMu.
func replanView(id string, rs *replanState) *ReplanResponse {
	remaining := rs.Remaining
	if remaining < 1e-9*(1+rs.Target) {
		remaining = 0
	}
	return &ReplanResponse{
		JobID:               id,
		Target:              rs.Target,
		DeadlineS:           rs.DeadlineS,
		Objective:           string(rs.Objective),
		Quantile:            rs.Quantile,
		Plans:               rs.Plans,
		DoneIterations:      rs.Iterations,
		RemainingIterations: remaining,
		Feasible:            rs.Feasible(),
		Frozen:              rs.Intervals,
		EnergyJ:             rs.EnergyJ,
		CarbonG:             rs.CarbonG,
		CostUSD:             rs.CostUSD,
		PredCarbonG:         rs.PredCarbonG,
		PredCostUSD:         rs.PredCostUSD,
		Remaining:           rs.Plan,
		RemainingOffsetS:    rs.PlanAt,
	}
}

// RolloutResponse is the read-only view of a job's rolling-horizon
// schedule: the same shape as a replan response plus the job's current
// schedule version and whether the controller manages the schedule.
type RolloutResponse struct {
	ReplanResponse
	Version int  `json:"version"`
	Managed bool `json:"managed"`
}

// Rollout returns a job's rolling-horizon schedule state WITHOUT
// rolling it forward — the observation endpoint clients use alongside
// long-poll schedule fetching, so observing never triggers planning.
func (s *Server) Rollout(id string) (*RolloutResponse, error) {
	j, ok := s.st.job(id)
	if !ok {
		return nil, fmt.Errorf("server: unknown job %s", id)
	}
	s.replanMu.Lock()
	st, ok := s.replans[id]
	var view *ReplanResponse
	if ok {
		view = replanView(id, st)
	}
	s.replanMu.Unlock()
	if view == nil {
		return nil, fmt.Errorf("server: job %s has no rolling schedule (POST /controller/jobs or GET /grid/replan first)", id)
	}
	j.mu.Lock()
	version := j.version
	j.mu.Unlock()
	return &RolloutResponse{
		ReplanResponse: *view,
		Version:        version,
		Managed:        s.ctrl.manages(id),
	}, nil
}
