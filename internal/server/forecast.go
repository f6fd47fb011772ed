package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"perseus/internal/forecast"
	"perseus/internal/frontier"
	"perseus/internal/grid"
	"perseus/internal/obs"
	pln "perseus/internal/plan"
)

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

	// draws is the revisions issuer's innovation memo: every provider of
	// the install — each tick's, each ManageJob's, each horizon's —
	// reads the one set of draws (nil for a model).
	draws *forecast.Innovations
}

// provider returns the issuer as a forecast.Provider covering at least
// horizonS of the signal.
func (fs *forecastSpec) provider(sig *grid.Signal, horizonS float64) forecast.Provider {
	if fs.model != nil {
		return &forecast.FromHistory{Truth: sig, Model: fs.model, HorizonS: horizonS, Level: fs.level}
	}
	return &forecast.Revisions{Truth: sig, Seed: fs.seed, Sigma: fs.sigma, HorizonS: horizonS, Level: fs.level, Innovations: fs.draws}
}

// replanState is a managed job's rolling schedule: the request that
// identifies it plus the forecast.Stepper that carries it forward — the
// same stepper forecast.Replan loops over offline. A restart installs a
// new replanState, so the request parameters never change.
type replanState struct {
	reqDeadline float64 // the raw request parameter (0 = default)
	reqQuantile float64 // the raw request parameter (0 = installed default)

	// mu guards the stepper and the fields below it while replanMu is
	// held for reading: a tick worker rolling the schedule forward and an
	// observer rendering it hold mu, so other jobs' schedules move in
	// parallel. Under the write side (ManageJob) nothing else can hold it.
	mu sync.Mutex
	*forecast.Stepper
	frevSeen int // forecast revision of the last roll-forward

	// lastPlanAt is the wall-clock time of the last successful re-plan
	// (zero before the first), surfaced per job in GET /controller.
	lastPlanAt time.Time

	// lastErr is the error of the last tick that rolled the schedule
	// ("" = clean), surfaced per job in GET /controller.
	lastErr string
}

// tickView is the one reading of the world a controller tick — or one
// ManageJob call — plans from: the clock, the installed signal (with the
// clock as its signal time t), the forecast issuer, the default
// objective and the forecast revision, each read once. Every schedule
// the view rolls forward freezes at the same instant and plans from the
// same forecasts: the view issues one per requested horizon, lazily and
// exactly once, and hands it read-only to every schedule that asks
// (forecast.Stepper.Replan only reads its forecast) — issuing is
// quadratic in the covered future intervals even with the draws
// memoized, it runs while the other workers wait, and 64 jobs of one
// tick used to pay it 64 times for bit-identical results. The signals
// planned on are shared the same way, read-only: one quantile view per
// (forecast, quantile), one re-based window per (view, bounds).
type tickView struct {
	now  time.Time
	sig  *grid.Signal
	spec *forecastSpec
	obj  grid.Objective
	frev int
	t    float64 // now in signal seconds, never negative

	// sharers counts, per requested horizon, the managed schedules a
	// tick offers its forecast to (nil for ManageJob: one). Filled
	// before the fan-out, read-only after.
	sharers map[float64]int

	// gs is the grid state the tick's workers settle each managed job's
	// account at (nil for ManageJob, which settles nothing).
	gs *gridState

	mu      sync.Mutex
	issued  map[issueKey]*issuedForecast
	signals map[signalKey]*grid.Signal
	windows map[windowKey]*grid.Window
}

// issueKey names one forecast of a view: the requested horizon and the
// issue time — the view's t, except for a schedule that already
// executed past it (an overlapping tick or a re-manage read a later
// clock, or the clock stepped back), which plans from its own time.
type issueKey struct{ t, horizonS float64 }

type issuedForecast struct {
	once sync.Once
	fc   *forecast.Forecast
	err  error
}

// newTickView reads the view. st.mu is held for the field reads only.
func (s *Server) newTickView() *tickView {
	st := s.st
	v := &tickView{now: st.now()}
	st.mu.Lock()
	v.sig, v.spec, v.obj, v.frev = st.signal, st.fspec, st.objective, st.frev
	start := st.sigStart
	st.mu.Unlock()
	v.t = math.Max(0, v.now.Sub(start).Seconds())
	return v
}

// forecast returns the view's forecast issued at t for the requested
// horizon, issuing it under a replan.forecast child of ctx's active span
// on first use; concurrent askers wait for the one issue.
func (s *Server) forecast(ctx context.Context, v *tickView, t, horizonS float64) (*forecast.Forecast, error) {
	key := issueKey{t, horizonS}
	v.mu.Lock()
	is := v.issued[key]
	if is == nil {
		if v.issued == nil {
			v.issued = map[issueKey]*issuedForecast{}
		}
		is = &issuedForecast{}
		v.issued[key] = is
	}
	v.mu.Unlock()
	is.once.Do(func() {
		_, sp := obs.Child(ctx, spanReplanFcast)
		sp.SetAttr("shared_by", strconv.Itoa(max(1, v.sharers[horizonS])))
		is.fc, is.err = issueForecast(v.sig, v.spec, t, horizonS, true)
		s.obs.forecastsIssued.Inc()
		sp.Fail(is.err)
		sp.End()
	})
	return is.fc, is.err
}

// signalKey names one signal a view's schedules plan on: forecast fc at
// quantile q — the quantile view itself when from == to == 0, else its
// window [from, to) re-based at 0.
type signalKey struct {
	fc          *forecast.Forecast
	q, from, to float64
}

// signal returns the view's one signal for key, building it on first
// use — under v.mu: a copy of tens of intervals, far less than the
// solve every asker is about to run.
func (v *tickView) signal(key signalKey, build func() *grid.Signal) *grid.Signal {
	v.mu.Lock()
	defer v.mu.Unlock()
	sig := v.signals[key]
	if sig == nil {
		if v.signals == nil {
			v.signals = map[signalKey]*grid.Signal{}
		}
		sig = build()
		v.signals[key] = sig
	}
	return sig
}

// windowKey names one prepared window of a view: a signal the view
// built, prepared for one objective.
type windowKey struct {
	sig *grid.Signal
	obj grid.Objective
}

// window returns sig — one of the view's signals — prepared for obj,
// preparing it on first use under v.mu: a check and a sort of tens of
// intervals, which every solve on it then skips.
func (v *tickView) window(sig *grid.Signal, obj grid.Objective) (*grid.Window, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	key := windowKey{sig, obj}
	if w := v.windows[key]; w != nil {
		return w, nil
	}
	w, err := grid.Prepare(sig, obj)
	if err != nil {
		return nil, err
	}
	if v.windows == nil {
		v.windows = map[windowKey]*grid.Window{}
	}
	v.windows[key] = w
	return w, nil
}

// forecasts reports how many forecasts the view has issued.
func (v *tickView) forecasts() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.issued)
}

func (s *Server) handleSetForecast(w http.ResponseWriter, r *http.Request) {
	var req ForecastRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	resp, err := s.setForecast(r.Context(), req)
	writeResult(w, resp, err, http.StatusBadRequest)
}

func (s *Server) handleForecast(w http.ResponseWriter, _ *http.Request) {
	resp, err := s.Forecast()
	writeResult(w, resp, err, http.StatusNotFound)
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
	} else {
		spec.draws = forecast.NewInnovations(req.Seed)
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
	fc, err := issueForecast(gs.sig, spec, t, req.HorizonS, false)
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
// call allocate without limit while holding its schedule's lock.
const maxForecastCycles = 1000

// issueForecast runs the issuer over the signal's revealed history at
// signal time t. By default the coverage extends at least one full
// signal cycle past t (rounded up to whole cycles), so a re-plan issued
// late in the trace still sees a day ahead — except that the revisions
// issuer's default stops forecast.MaxRevisionIntervals intervals past
// t's, which only a cycle of more than half that many intervals
// reaches; a requested horizon past that is refused. A longer requested
// horizonS extends the coverage to it. With deadline set, horizonS is a
// schedule's deadline and, when it lies past t, the coverage ends
// there: nothing plans past its deadline, and every issuer's values
// before it are those of the default coverage, bit for bit (a revisions
// value sums only the draws of its own interval's steps), at a fraction
// of the revisions issuer's work, which is quadratic in the coverage.
func issueForecast(sig *grid.Signal, spec *forecastSpec, t, horizonS float64, deadline bool) (*forecast.Forecast, error) {
	h := sig.Horizon()
	horizon := horizonS
	if !deadline || horizonS <= t {
		horizon = math.Ceil((t+h)/h) * h
		if spec.model == nil {
			horizon = forecast.RevisionsHorizon(sig, t, horizon)
		}
		horizon = max(horizon, horizonS)
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

// manageLocked is manageJob with the write side of replanMu held, so
// it takes no schedule lock: nothing else can hold one. It creates,
// restarts or rolls forward the job's rolling schedule. The view is read
// inside the lock: POST /grid/signal installs the signal before it takes
// the write side to clear the schedules, so a call that read the old
// signal outside the lock could insert a schedule of the replaced trace
// (anchored to the old clock) into the freshly cleared map. A new or
// restarted schedule enters the map only once its first roll-forward
// succeeded: a failed restart leaves the running schedule in force, and
// a failed first manage leaves the job unmanaged.
func (s *Server) manageLocked(ctx context.Context, req ControllerJobRequest) (*ReplanResponse, error) {
	_, insp := obs.Child(ctx, spanReplanInputs)
	insp.SetAttr("job", req.JobID)
	v := s.newTickView()
	rs := s.replans[req.JobID]
	if rs != nil && rs.Truth != v.sig {
		rs = nil // of the replaced trace; its install has not cleared the map yet
	}
	in, err := s.inputsFor(v, req.JobID, rs)
	// The raw quantile parameter identifies the schedule (like the raw
	// deadline): 0 resolves to the issuer's default once, at creation,
	// so a forecast re-install with a different default is a revision
	// of the forecast — never a silent restart of a rolling schedule
	// that asked for "the default".
	target, deadline, quantile := req.Target, req.DeadlineS, req.Quantile
	if err == nil && quantile == 0 {
		quantile = v.spec.quantile
	}
	switch {
	case err != nil:
	case !(target > 0) || math.IsInf(target, 0):
		err = fmt.Errorf("server: replan target iterations must be positive and finite, got %v", target)
	case math.IsNaN(deadline) || math.IsInf(deadline, 0) || deadline < 0:
		err = fmt.Errorf("server: replan deadline must be finite and non-negative, got %v", deadline)
	case math.IsNaN(quantile) || quantile < 0 || quantile >= 1:
		err = fmt.Errorf("server: replan quantile must be in [0, 1), got %v", quantile)
	case req.Objective != "":
		in.obj, err = grid.ParseObjective(req.Objective)
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
	if rs != nil && rs.Target == target && rs.reqDeadline == deadline &&
		rs.Objective == in.obj && rs.reqQuantile == req.Quantile {
		if in.due {
			if err := s.rollForward(ctx, v, in, nil); err != nil {
				return nil, err
			}
		}
		return replanView(req.JobID, rs), nil
	}
	fc, err := s.forecast(ctx, v, in.t, deadline)
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
		Stepper: forecast.NewStepper(in.table, v.sig, pln.Request{
			Target: target, DeadlineS: eff, Objective: in.obj, Quantile: quantile,
		}, in.t),
		reqDeadline: deadline, reqQuantile: req.Quantile,
	}
	if err := s.rollForward(ctx, v, in, fc); err != nil {
		return nil, err
	}
	if _, ok := s.replans[req.JobID]; !ok {
		s.order = append(s.order, req.JobID)
	}
	s.replans[req.JobID] = in.rs
	return replanView(req.JobID, in.rs), nil
}

// rollInputs is what one roll-forward adds to its view: the job's
// current table and pipeline count, the objective (the view's default
// unless the request names one), the job's rolling schedule (nil when
// it has none), and the signal time to roll to.
type rollInputs struct {
	j     *job
	table *frontier.LookupTable
	pipes int
	obj   grid.Objective
	rs    *replanState

	// t never rewinds: a view whose clock reads earlier than what the
	// schedule already executed (an overlapping tick or a re-manage froze
	// a later instant, or the clock stepped back; rolling back would
	// double-count the spans it froze) clamps to the schedule's own time.
	t float64

	// due reports that rs warrants a roll-forward: time advanced, the
	// forecast was revised since the schedule last saw it, or the last
	// solve failed. Otherwise the current state is already the answer.
	due bool
}

// inputsFor is the shared prelude of ManageJob and controller ticks: it
// binds one job to the view, settling its account at a tick's view
// first. Callers hold rs.mu, or the write side of replanMu, when rs is
// not nil.
func (s *Server) inputsFor(v *tickView, id string, rs *replanState) (rollInputs, error) {
	j, ok := s.st.job(id)
	if !ok {
		return rollInputs{}, fmt.Errorf("server: unknown job %s", id)
	}
	j.mu.Lock()
	if v.gs != nil {
		j.accrueLocked(*v.gs)
	}
	in := rollInputs{j: j, table: j.table, pipes: j.req.DataParallel, obj: v.obj, rs: rs, t: v.t}
	j.mu.Unlock()
	if in.table == nil {
		return rollInputs{}, fmt.Errorf("server: job %s not characterized yet", id)
	}
	if v.sig == nil {
		return rollInputs{}, fmt.Errorf("server: no grid signal installed")
	}
	if v.spec == nil {
		return rollInputs{}, fmt.Errorf("server: no forecast installed; POST /grid/forecast first")
	}
	if rs != nil {
		in.t = math.Max(in.t, rs.At)
		// Revisions only count up, and a tick's view may be older than a
		// schedule a re-manage just rolled: "<" keeps such a view from
		// dragging the schedule back onto the issuer it replaced.
		in.due = in.t > rs.At+1e-9 || rs.frevSeen < v.frev || rs.Stalled()
	}
	return in, nil
}

// advanceManaged rolls a managed job's rolling schedule forward to the
// tick's view — the controller tick's path — and records the outcome as
// the schedule's last error. It never creates state: a job with no
// schedule was removed, or its schedule dropped by POST /grid/signal,
// since the tick took its snapshot, so there is nothing to roll and no
// error to report. The read side of replanMu is held to the end, so the
// signal install's clear waits for the roll-forward and none starts
// after it. Under the tick's trace, the roll-forward's stage spans land
// as children of the controller.tick root.
func (s *Server) advanceManaged(ctx context.Context, v *tickView, id string) error {
	_, insp := obs.Child(ctx, spanReplanInputs)
	insp.SetAttr("job", id)
	s.replanMu.RLock()
	defer s.replanMu.RUnlock()
	rs := s.replans[id]
	if rs == nil || rs.Truth != v.sig {
		// Gone, or created on a signal installed after the tick read its
		// view, which knows neither its trace nor its clock: the next tick
		// rolls it.
		insp.End()
		return nil
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	in, err := s.inputsFor(v, id, rs)
	insp.Fail(err)
	insp.End()
	if err == nil && in.due {
		err = s.rollForward(ctx, v, in, nil)
	}
	rs.lastErr = ""
	if err != nil {
		rs.lastErr = err.Error()
	}
	return err
}

// solvers recycles grid.Solver working buffers (the interval states,
// ladders and price search's arrays) across solves, jobs and ticks: the
// tick's roll-forwards and the cold plans of /grid/plan. A Plan a
// Solver returns does not alias it.
var solvers = sync.Pool{New: func() any { return new(grid.Solver) }}

// rollForward steps in.rs to in.t: the stepper freezes the span
// executed since the last roll-forward, then keeps or re-solves the plan
// against the view's forecast for the schedule's horizon (or the one
// the creation path already holds). Callers hold the read side of
// replanMu and in.rs.mu, or the write side.
// Only a fresh plan bumps the job's schedule version and wakes its
// long-pollers; a kept plan changes nothing they deployed. Each stage
// records a child span of ctx's active span (replan.freeze,
// replan.solve, replan.bump; replan.forecast where the view issues) —
// under a controller tick these are the tick root's children.
func (s *Server) rollForward(ctx context.Context, v *tickView, in rollInputs, fc *forecast.Forecast) error {
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
		var err error
		if fc, err = s.forecast(ctx, v, in.t, rs.reqDeadline); err != nil {
			s.obs.replanFails.Inc()
			return err
		}
	}
	rs.frevSeen = v.frev
	var view *grid.Signal
	if fc != nil {
		view = v.signal(signalKey{fc: fc, q: rs.Quantile}, func() *grid.Signal { return fc.At(rs.Quantile) })
	}
	fresh, err := rs.Replan(fc, view, func(view *grid.Signal, from, to, target float64) (*grid.Plan, *grid.Signal, error) {
		// The grid solve over the forecast window — the deployable
		// counterpart of forecast.Replan — reports as its own planning
		// layer.
		sctx, sv := obs.Child(ctx, spanReplanSolve)
		defer sv.End()
		sv.SetAttr("job", id)
		window := v.signal(signalKey{fc, rs.Quantile, from, to}, func() *grid.Signal { return forecast.Window(view, from, to) })
		solver := solvers.Get().(*grid.Solver)
		defer solvers.Put(solver)
		var plan *grid.Plan
		err := s.solve(sctx, "forecast-mpc", rs.Objective, window, func() ([]string, error) {
			w, err := v.window(window, rs.Objective)
			if err != nil {
				return nil, err
			}
			plan, err = solver.OptimizeWindow(rs.Table, w, grid.Options{Target: target, Objective: rs.Objective, PowerScale: rs.Scale})
			return []string{"steps", strconv.Itoa(solver.Steps())}, err
		})
		sv.SetAttr("steps", strconv.Itoa(solver.Steps()))
		if err != nil {
			sv.Fail(err)
			return nil, nil, err
		}
		return plan, window, nil
	})
	switch {
	case err != nil:
		s.obs.replanFails.Inc()
		return err
	case fresh:
		rs.lastPlanAt = v.now
		s.obs.replans.Inc()
		s.obs.ring.Emit(v.now, "controller.replan", 0, traceKV(ctx,
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
		s.obs.ring.Emit(v.now, "controller.replan.warm", 0, traceKV(ctx,
			"job", id, "plan", strconv.Itoa(rs.Plans))...)
	}
	return nil
}

// remaining is the schedule's remaining iterations as reported: 0 once
// within rounding of done. Callers hold rs.mu.
func (rs *replanState) remaining() float64 {
	if rs.Remaining < 1e-9*(1+rs.Target) {
		return 0
	}
	return rs.Remaining
}

// replanView renders the current rolling-horizon state. Callers hold
// rs.mu.
func replanView(id string, rs *replanState) *ReplanResponse {
	return &ReplanResponse{
		JobID:               id,
		Target:              rs.Target,
		DeadlineS:           rs.DeadlineS,
		Objective:           string(rs.Objective),
		Quantile:            rs.Quantile,
		Plans:               rs.Plans,
		DoneIterations:      rs.Iterations,
		RemainingIterations: rs.remaining(),
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

// scheduleView renders a job's rolling schedule as it stands, without
// rolling it forward (nil when the job has none).
func (s *Server) scheduleView(id string) *ReplanResponse {
	s.replanMu.RLock()
	defer s.replanMu.RUnlock()
	rs := s.replans[id]
	if rs == nil {
		return nil
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return replanView(id, rs)
}

// Rollout returns a managed job's rolling-horizon schedule state
// WITHOUT rolling it forward — the observation endpoint clients use
// alongside long-poll schedule fetching, so observing never triggers
// planning.
func (s *Server) Rollout(id string) (*RolloutResponse, error) {
	j, ok := s.st.job(id)
	if !ok {
		return nil, fmt.Errorf("server: unknown job %s", id)
	}
	view := s.scheduleView(id)
	if view == nil {
		return nil, fmt.Errorf("server: job %s has no rolling schedule (POST /controller/jobs first; a signal change drops them)", id)
	}
	j.mu.Lock()
	version := j.version
	j.mu.Unlock()
	return &RolloutResponse{ReplanResponse: *view, Version: version}, nil
}
