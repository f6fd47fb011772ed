package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// managedJob marks a job as controller-managed (its rolling schedule
// pins the planning parameters) and holds its last tick error.
type managedJob struct {
	lastErr string
}

// controller is the background MPC runtime: a long-lived loop that
// wakes at every grid-signal interval boundary, rolls every managed
// job's rolling-horizon schedule forward — executed prefix frozen,
// remainder re-planned on a freshly issued forecast — and bumps each
// job's schedule version so long-polling clients observe the change
// without ever calling /grid/replan themselves. A tick plans the fleet
// from one view (tickView) and rolls the managed jobs forward in
// parallel; a tick and a client replan of the same job meet on that
// schedule's own lock, so the two can never disagree about the frozen
// prefix.
type controller struct {
	s *Server

	mu          sync.Mutex
	managed     map[string]managedJob
	order       []string
	running     bool
	stop        chan struct{}
	done        chan struct{}
	ticks       int
	lastTick    time.Time
	lastTickErr string // first per-job error of the last tick ("" = clean)
}

// manages reports whether the controller owns the job's schedule.
func (c *controller) manages(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.managed[id]
	return ok
}

// reset drops every managed job (the signal, and with it every rolling
// schedule, was replaced).
func (c *controller) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.managed = map[string]managedJob{}
	c.order = nil
}

// forget drops one job from management (the job was removed).
func (c *controller) forget(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.managed, id)
	for i, v := range c.order {
		if v == id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

// ManageJob registers a job's rolling-horizon schedule with the
// controller: the schedule is created (or rolled forward) immediately
// with plan #1, and every subsequent tick rolls it forward. Re-managing
// with different parameters restarts the schedule, exactly like a
// parameter change on GET /grid/replan; a signal re-install drops both
// the schedule and the management, and the job must be re-managed.
func (s *Server) ManageJob(id string, target, deadline float64, objective string, quantile float64) (*ReplanResponse, error) {
	return s.manageJob(context.Background(), ControllerJobRequest{
		JobID: id, Target: target, DeadlineS: deadline, Objective: objective, Quantile: quantile})
}

func (s *Server) manageJob(ctx context.Context, req ControllerJobRequest) (*ReplanResponse, error) {
	resp, err := s.replan(ctx, req)
	if err != nil {
		return nil, err
	}
	c := &s.ctrl
	c.mu.Lock()
	if _, ok := c.managed[req.JobID]; !ok {
		c.order = append(c.order, req.JobID)
	}
	c.managed[req.JobID] = managedJob{}
	c.mu.Unlock()
	return resp, nil
}

// TickController runs one controller tick synchronously: every managed
// job's existing schedule rolls forward to the tick's instant (a tick
// never creates state — only ManageJob and client replans do, so a tick
// racing a signal re-install cannot resurrect a dropped schedule).
// Per-job errors are recorded in the status rather than aborting the
// tick — one broken job must not stall the fleet's control loop.
func (s *Server) TickController() ControllerStatus {
	return s.tickController(context.Background())
}

// tickController runs the tick under a controller.tick trace span: a
// child of ctx's active span when the tick came through a traced POST
// /controller/tick, the root of a fresh trace when the background loop
// fired it. The tick reads one view — clock, signal, issuer, forecast
// revision — and fans the managed jobs out over min(GOMAXPROCS, jobs)
// workers that roll each schedule forward under its own lock, sharing
// the view's one forecast per requested horizon; results land in
// management-order slots, so the published errors do not depend on
// which worker ran what. Every roll-forward's stage spans record as
// children of the root, and the tick ends with one SLO evaluation, so
// burn-rate status (and breach events) advance at control-loop cadence
// even when nobody polls /debug/slo.
func (s *Server) tickController(ctx context.Context) ControllerStatus {
	c := &s.ctrl
	c.mu.Lock()
	ids := append([]string(nil), c.order...)
	c.mu.Unlock()

	ctx, root := s.obs.tracer.StartSpan(ctx, spanControllerTick)
	tickStart := time.Now()
	v := s.newTickView()
	// Settle every job's account (the bloat ledger) at the tick
	// boundary, so the ledger — and the series and emissions that read
	// it — advance at control-loop cadence even when nobody reads
	// /jobs/{id}/emissions.
	s.st.settleAll(s.st.gridStateAt(v.now))
	v.sharers = map[float64]int{}
	s.replanMu.RLock()
	for _, id := range ids {
		if rs := s.replans[id]; rs != nil {
			v.sharers[rs.reqDeadline]++
		}
	}
	s.replanMu.RUnlock()

	errs := make([]error, len(ids))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(ids)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ids) {
					return
				}
				errs[i] = s.advanceManaged(ctx, v, ids[i])
			}
		}()
	}
	wg.Wait()

	dur := time.Since(tickStart)
	failed := 0
	c.mu.Lock()
	c.ticks++
	c.lastTick = v.now
	c.lastTickErr = ""
	for i, id := range ids {
		// A job un-managed since the snapshot (a signal install, a
		// DELETE: neither drops a schedule before its job is un-managed)
		// has no error to report — whatever its turn ran into, it is
		// gone.
		mj, ok := c.managed[id]
		if !ok {
			continue
		}
		mj.lastErr = ""
		if errs[i] != nil {
			failed++
			mj.lastErr = errs[i].Error()
			if c.lastTickErr == "" {
				c.lastTickErr = id + ": " + mj.lastErr
			}
		}
		c.managed[id] = mj
	}
	c.mu.Unlock()
	attrs := []string{"jobs", strconv.Itoa(len(ids)), "errors", strconv.Itoa(failed), "forecasts", strconv.Itoa(v.forecasts())}
	s.obs.ticks.Inc()
	s.obs.tickDur.Observe(dur.Seconds())
	s.obs.ring.Emit(v.now, "controller.tick", dur, traceKV(ctx, attrs...)...)
	for i := 0; i < len(attrs); i += 2 {
		root.SetAttr(attrs[i], attrs[i+1])
	}
	if failed > 0 {
		root.Fail(fmt.Errorf("%d job(s) failed to roll forward", failed))
	}
	root.End()
	s.evalSLOs(v.now)
	return s.ControllerStatus()
}

// StartController starts the background tick loop. The loop sleeps
// until the next signal-interval boundary (polling while no signal is
// installed), ticks, and repeats until StopController. Idempotent.
func (s *Server) StartController() {
	c := &s.ctrl
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.running {
		return
	}
	c.running = true
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go c.run(c.stop, c.done)
}

// StopController stops the background tick loop and waits for it to
// exit. Managed jobs stay managed; manual ticks keep working.
func (s *Server) StopController() {
	c := &s.ctrl
	c.mu.Lock()
	if !c.running {
		c.mu.Unlock()
		return
	}
	c.running = false
	stop, done := c.stop, c.done
	c.mu.Unlock()
	close(stop)
	<-done
}

// noSignalPoll is how often the background loop re-checks for a signal
// when none is installed.
const noSignalPoll = 250 * time.Millisecond

func (c *controller) run(stop, done chan struct{}) {
	defer close(done)
	for {
		// Without a signal there are no boundaries: re-check shortly,
		// but do not tick — a tick would inflate the counter and settle
		// every job for nothing. With one, sleep to the
		// next boundary (signal seconds map 1:1 to wall seconds),
		// nudged slightly past the edge so the tick lands inside the
		// new interval.
		b, ok := c.s.nextBoundary()
		d := noSignalPoll
		if ok {
			d = time.Duration(b*float64(time.Second)) + 5*time.Millisecond
		}
		timer := time.NewTimer(d)
		select {
		case <-stop:
			timer.Stop()
			return
		case <-timer.C:
			if ok {
				c.s.TickController()
			}
		}
	}
}

// nextBoundary returns the seconds until the next cyclic interval
// boundary of the installed signal.
func (s *Server) nextBoundary() (float64, bool) {
	now := s.st.now()
	s.st.mu.Lock()
	sig := s.st.signal
	start := s.st.sigStart
	s.st.mu.Unlock()
	if sig == nil || sig.Horizon() <= 0 {
		return 0, false
	}
	ts := now.Sub(start).Seconds()
	h := sig.Horizon()
	pos := math.Mod(ts, h)
	if pos < 0 {
		pos += h
	}
	for _, iv := range sig.Intervals {
		if iv.EndS > pos+1e-9 {
			return iv.EndS - pos, true
		}
	}
	return h - pos, true
}

// ControllerStatus reports the controller runtime's state.
func (s *Server) ControllerStatus() ControllerStatus {
	c := &s.ctrl
	c.mu.Lock()
	st := ControllerStatus{Running: c.running, Ticks: c.ticks, LastTickError: c.lastTickErr}
	if !c.lastTick.IsZero() {
		st.LastTickUnixS = float64(c.lastTick.UnixNano()) / 1e9
	}
	ids := append([]string(nil), c.order...)
	errs := make(map[string]string, len(c.managed))
	for id, mj := range c.managed {
		errs[id] = mj.lastErr
	}
	c.mu.Unlock()

	st.NextBoundaryS = -1
	if b, ok := s.nextBoundary(); ok {
		st.NextBoundaryS = b
	}
	for _, id := range ids {
		js := ControllerJobStatus{JobID: id, LastError: errs[id]}
		if view, lastPlanAt := s.scheduleView(id); view != nil {
			js.Plans = view.Plans
			js.DoneIterations = view.DoneIterations
			js.RemainingIterations = view.RemainingIterations
			js.Feasible = view.Feasible
			if !lastPlanAt.IsZero() {
				js.LastReplanUnixS = float64(lastPlanAt.UnixNano()) / 1e9
			}
		}
		if j, ok := s.st.job(id); ok {
			j.mu.Lock()
			js.Version = j.version
			j.mu.Unlock()
		}
		st.Jobs = append(st.Jobs, js)
	}
	st.Cache = s.CacheStats()
	return st
}

func (s *Server) handleController(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.ControllerStatus())
}

func (s *Server) handleManageJob(w http.ResponseWriter, r *http.Request) {
	var req ControllerJobRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	resp, err := s.manageJob(r.Context(), req)
	if err != nil {
		s.jobError(w, req.JobID, err)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleControllerStart(w http.ResponseWriter, _ *http.Request) {
	s.StartController()
	writeJSON(w, s.ControllerStatus())
}

func (s *Server) handleControllerStop(w http.ResponseWriter, _ *http.Request) {
	s.StopController()
	writeJSON(w, s.ControllerStatus())
}

func (s *Server) handleControllerTick(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.tickController(r.Context()))
}
