package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// controller is the background MPC runtime's loop state: a long-lived
// loop that wakes at every grid-signal interval boundary and ticks. A
// tick rolls every managed job's rolling-horizon schedule forward —
// executed prefix frozen, remainder re-planned on a freshly issued
// forecast — and bumps each job's schedule version, so long-polling
// clients observe the change without ever planning themselves. The
// managed jobs are the server's rolling schedules (Server.replans, in
// Server.order); a tick plans them from one view (tickView) and rolls
// them forward in parallel, each under its schedule's own lock.
type controller struct {
	s *Server

	mu          sync.Mutex
	running     bool
	stop        chan struct{}
	done        chan struct{}
	ticks       int
	lastTick    time.Time
	lastTickErr string // first per-job error of the last tick ("" = clean)
}

// ManageJob puts a job's rolling-horizon schedule under controller
// management — the one way a rolling schedule is created, restarted or
// moved outside a tick. The schedule completes target iterations by the
// deadline (signal seconds; 0 means the forecast horizon, pinned at
// creation); quantile 0 uses the installed default, values above 0.5
// plan against the pessimistic band (robust mode). A new job's schedule
// is planned immediately (plan #1) and every subsequent tick rolls it
// forward. Re-managing with the same parameters rolls the schedule
// forward to now, or returns it as it stands when time and forecast are
// unchanged; different parameters restart it from now, and a restart
// whose first plan fails leaves the running schedule in force. A signal
// re-install drops every schedule, and the job must be re-managed.
func (s *Server) ManageJob(id string, target, deadline float64, objective string, quantile float64) (*ReplanResponse, error) {
	return s.manageJob(context.Background(), ControllerJobRequest{
		JobID: id, Target: target, DeadlineS: deadline, Objective: objective, Quantile: quantile})
}

// manageJob is ManageJob with context: under a traced request, the
// roll-forward records its stage spans (replan.inputs, replan.freeze,
// replan.forecast, replan.solve, replan.bump) as children of the active
// span. It holds the write side of replanMu throughout.
func (s *Server) manageJob(ctx context.Context, req ControllerJobRequest) (*ReplanResponse, error) {
	s.replanMu.Lock()
	defer s.replanMu.Unlock()
	return s.manageLocked(ctx, req)
}

// TickController runs one controller tick synchronously: every managed
// job's existing schedule rolls forward to the tick's instant (a tick
// never creates state — only ManageJob does, so a tick racing a signal
// re-install cannot resurrect a dropped schedule).
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
	ctx, root := s.obs.tracer.StartSpan(ctx, spanControllerTick)
	tickStart := time.Now()
	v := s.newTickView()
	gs := s.st.gridStateAt(v.now)
	v.gs = &gs
	v.sharers = map[float64]int{}
	s.replanMu.RLock()
	ids := slices.Clone(s.order)
	for _, rs := range s.replans {
		v.sharers[rs.reqDeadline]++
	}
	// Settle every job's account (the bloat ledger) at the tick
	// boundary, so the ledger — and the series and emissions that read
	// it — advance at control-loop cadence even when nobody reads
	// /jobs/{id}/emissions: the managed jobs' in the workers, as each
	// binds its job to the view (inputsFor), the others here.
	for _, j := range s.st.jobsInOrder() {
		if s.replans[j.id] == nil {
			j.mu.Lock()
			j.accrueLocked(gs)
			j.mu.Unlock()
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
	failed, lastTickErr := 0, ""
	for i, err := range errs {
		if err != nil {
			failed++
			if lastTickErr == "" {
				lastTickErr = ids[i] + ": " + err.Error()
			}
		}
	}
	c := &s.ctrl
	c.mu.Lock()
	c.ticks++
	c.lastTick = v.now
	c.lastTickErr = lastTickErr
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
	c.mu.Unlock()

	st.NextBoundaryS = -1
	if b, ok := s.nextBoundary(); ok {
		st.NextBoundaryS = b
	}
	s.replanMu.RLock()
	if len(s.order) > 0 {
		st.Jobs = make([]ControllerJobStatus, 0, len(s.order))
	}
	for _, id := range s.order {
		rs := s.replans[id]
		rs.mu.Lock()
		js := ControllerJobStatus{
			JobID:               id,
			Plans:               rs.Plans,
			DoneIterations:      rs.Iterations,
			RemainingIterations: rs.remaining(),
			Feasible:            rs.Feasible(),
			LastError:           rs.lastErr,
		}
		if !rs.lastPlanAt.IsZero() {
			js.LastReplanUnixS = float64(rs.lastPlanAt.UnixNano()) / 1e9
		}
		rs.mu.Unlock()
		if j, ok := s.st.job(id); ok {
			j.mu.Lock()
			js.Version = j.version
			j.mu.Unlock()
		}
		st.Jobs = append(st.Jobs, js)
	}
	s.replanMu.RUnlock()
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
