package server

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"time"

	"perseus/internal/frontier"
	"perseus/internal/grid"
	"perseus/internal/obs"
)

func (s *Server) handleSetGridSignal(w http.ResponseWriter, r *http.Request) {
	var req GridSignalRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	resp, err := s.setGridSignal(r.Context(), req.Signal, req.Objective)
	writeResult(w, resp, err, http.StatusBadRequest)
}

func (s *Server) handleGridSignal(w http.ResponseWriter, _ *http.Request) {
	s.st.mu.Lock()
	sig := s.st.signal
	s.st.mu.Unlock()
	if sig == nil {
		http.Error(w, "no grid signal installed", http.StatusNotFound)
		return
	}
	writeJSON(w, sig)
}

// SetGridSignal validates and installs a grid trace, anchoring its
// time 0 at the current wall clock, and sets the default planning
// objective ("" keeps carbon). Emissions accrued so far are settled
// against the previous signal first, and all forecast and
// rolling-horizon re-planning state is dropped: a forecast of the old
// trace priced on the new one — or a frozen schedule prefix measured
// against the old anchor — would silently corrupt every predicted
// account downstream. Operators re-POST /grid/forecast after a signal
// change. The plan-cache epoch advances, so every cached plan of the
// old signal is invalidated.
func (s *Server) SetGridSignal(sig grid.Signal, objective string) (GridSignalResponse, error) {
	return s.setGridSignal(context.Background(), sig, objective)
}

func (s *Server) setGridSignal(ctx context.Context, sig grid.Signal, objective string) (GridSignalResponse, error) {
	obj, err := grid.ParseObjective(objective)
	if err != nil {
		return GridSignalResponse{}, err
	}
	// Every cold plan solves on one of these windows: the signal checked,
	// its rates derived and its intervals sorted once per install.
	windows := make(map[grid.Objective]*grid.Window, 3)
	for _, o := range []grid.Objective{grid.ObjectiveCarbon, grid.ObjectiveCost, grid.ObjectiveEnergy} {
		if windows[o], err = grid.Prepare(&sig, o); err != nil {
			return GridSignalResponse{}, err
		}
	}
	// Settle every job's accounting under the old signal before the
	// rates change.
	gs := s.st.gridState()
	s.st.settleAll(gs)
	st := s.st
	st.mu.Lock()
	st.signal = &sig
	st.windows = windows
	st.sigStart = gs.now
	st.meanG = sig.MeanCarbonGPerKWh() / grid.JoulesPerKWh
	st.objective = obj
	st.fspec = nil
	st.fcast = nil
	st.fcastAt = time.Time{}
	st.epoch++
	st.mu.Unlock()
	s.cache.clear()
	s.hub.bump(topicPlanEpoch)
	// The write side waits for every roll-forward in flight, so none of
	// the replaced trace bumps a version after this returns, and every
	// job is un-managed: a tick worker that turns to one afterwards finds
	// no schedule and nothing to report.
	s.replanMu.Lock()
	s.replans = map[string]*replanState{}
	s.order = nil
	s.replanMu.Unlock()
	s.obs.ring.Emit(gs.now, "signal.install", 0, traceKV(ctx,
		"name", sig.Name, "intervals", strconv.Itoa(len(sig.Intervals)),
		"objective", string(obj))...)
	return GridSignalResponse{
		Name:      sig.Name,
		Intervals: len(sig.Intervals),
		HorizonS:  sig.Horizon(),
		Objective: string(obj),
	}, nil
}

func (s *Server) handleGridPlan(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	f, ok := queryFloats(w, q, "iterations", "deadline")
	if !ok {
		return
	}
	target, deadline := f[0], f[1]
	objective := q.Get("objective")
	wait, ok := parseWait(w, r)
	if !ok {
		return
	}
	fail := func(err error) { s.jobError(w, id, err) }
	pb, err := s.planProblem(r.Context(), id, target, deadline, objective)
	if err != nil {
		fail(err)
		return
	}
	// Conditional fetch: the ETag names the plan's cache key — epoch,
	// frontier hash, and request params — so it changes exactly when the
	// plan the request resolves to would. If the client's validator still
	// matches, park (?wait=) on the two topics whose bumps can change the
	// key: the plan-input epoch and the job's own topic (its frontier may
	// be re-characterized).
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		until := time.Now().Add(wait)
		for etagMatch(inm, planETag(pb.key)) {
			wEpoch := s.hub.watch(topicPlanEpoch)
			wSched := s.hub.watch(topicSchedule(id))
			// Re-snapshot after subscribing: a bump between the first
			// snapshot and the watch calls would otherwise be lost.
			next, err := s.planProblem(r.Context(), id, target, deadline, objective)
			if err != nil {
				fail(err)
				return
			}
			if next.key != pb.key {
				pb = next
				continue
			}
			switch s.parkWaiter(r.Context(), id, until, wEpoch, wSched) {
			case wakeBumped:
				if pb, err = s.planProblem(r.Context(), id, target, deadline, objective); err != nil {
					fail(err)
					return
				}
			case wakeTimeout:
				w.Header().Set("ETag", planETag(pb.key))
				w.WriteHeader(http.StatusNotModified)
				return
			case wakeCancelled:
				return // client gone: write nothing
			}
		}
	}
	e, err := s.solvePlan(r.Context(), pb)
	if err != nil {
		fail(err)
		return
	}
	body, err := s.cache.wireBody(r.Context(), pb.key, e)
	if err != nil {
		http.Error(w, "encode response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("ETag", planETag(pb.key))
	writeBody(w, "application/octet-stream", body)
}

// planETag renders a plan cache key as an HTTP entity tag: a 64-bit
// FNV-1a hash of the key's canonical form, quoted per RFC 9110. Two
// requests that resolve to the same cache entry always carry the same
// tag, and any epoch bump or re-characterization changes it.
func planETag(key PlanKey) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key.Canonical()))
	return fmt.Sprintf("%q", "p"+strconv.FormatUint(h.Sum64(), 16))
}

// GridPlan plans a job's temporal schedule over the installed signal:
// complete target iterations by the deadline (seconds in signal time;
// 0 means the signal horizon) minimizing the objective ("" uses the
// server default). The job must be characterized and a signal
// installed.
//
// Results are cached by (plan epoch, frontier hash, request params)
// with single-flight de-duplication: identical concurrent requests
// solve once and share the plan, which callers must therefore treat as
// read-only; any signal re-install, forecast revision, or frontier
// re-characterization changes the key.
func (s *Server) GridPlan(id string, target, deadline float64, objective string) (*grid.Plan, error) {
	return s.gridPlan(context.Background(), id, target, deadline, objective)
}

// gridPlan is GridPlan with context: under a traced request it records
// store.snapshot (lock acquisition + state reads), cache.lookup, and
// planner.solve child spans; from an untraced context every span site
// is a nil-check no-op, which is what keeps the cached-plan hot path
// at its PR 6 cost.
func (s *Server) gridPlan(ctx context.Context, id string, target, deadline float64, objective string) (*grid.Plan, error) {
	pb, err := s.planProblem(ctx, id, target, deadline, objective)
	if err != nil {
		return nil, err
	}
	e, err := s.solvePlan(ctx, pb)
	if err != nil {
		return nil, err
	}
	return e.plan, nil
}

// planProblem is one snapshotted planning problem: the cache key it
// resolves to plus the inputs a cache miss solves it from, the signal
// with the windows prepared from it at install. A miss looks up the
// key's objective's window, so a hit does not.
type planProblem struct {
	key     PlanKey
	table   *frontier.LookupTable
	sig     *grid.Signal
	windows map[grid.Objective]*grid.Window
}

// planProblem snapshots the state a grid-plan request resolves against
// right now — the plan epoch, the job's frontier table and its hash,
// the signal, and the normalized parameters — without solving
// anything. The conditional fetch path calls it alone to price an
// If-None-Match comparison at snapshot cost.
func (s *Server) planProblem(ctx context.Context, id string, target, deadline float64, objective string) (planProblem, error) {
	_, snap := obs.Child(ctx, spanStoreSnapshot)
	defer snap.End()
	snap.SetAttr("job", id)
	j, ok := s.st.job(id)
	if !ok {
		return planProblem{}, fmt.Errorf("server: unknown job %s", id)
	}
	s.st.mu.Lock()
	sig := s.st.signal
	windows := s.st.windows
	obj := s.st.objective
	epoch := s.st.epoch
	s.st.mu.Unlock()
	if sig == nil {
		return planProblem{}, fmt.Errorf("server: no grid signal installed")
	}
	if objective != "" {
		var err error
		if obj, err = grid.ParseObjective(objective); err != nil {
			return planProblem{}, err
		}
	}
	j.mu.Lock()
	table := j.table
	tableHash := j.tableHash
	pipes := j.req.DataParallel
	j.mu.Unlock()
	if table == nil {
		return planProblem{}, fmt.Errorf("server: job %s not characterized yet", id)
	}
	return planProblem{
		key: PlanKey{
			Epoch:     epoch,
			Table:     tableHash,
			Target:    target,
			Deadline:  deadline,
			Objective: obj,
			Scale:     pipes,
		},
		table:   table,
		sig:     sig,
		windows: windows,
	}, nil
}

// solvePlan resolves a snapshotted problem through the plan cache,
// solving at most once per key however many callers arrive.
func (s *Server) solvePlan(ctx context.Context, pb planProblem) (*planEntry, error) {
	return s.cache.do(ctx, pb.key, func(ctx context.Context) (*grid.Plan, error) {
		var plan *grid.Plan
		solver := solvers.Get().(*grid.Solver)
		defer solvers.Put(solver)
		err := s.solve(ctx, "grid", pb.key.Objective, pb.sig, func() ([]string, error) {
			var err error
			plan, err = solver.OptimizeWindow(pb.table, pb.windows[pb.key.Objective], grid.Options{
				Target:     pb.key.Target,
				DeadlineS:  pb.key.Deadline,
				Objective:  pb.key.Objective,
				PowerScale: float64(pb.key.Scale),
			})
			return []string{"steps", strconv.Itoa(solver.Steps())}, err
		})
		return plan, err
	})
}

// Emissions settles a job's account and returns its cumulative
// emissions: a view of the job's bloat-ledger totals.
func (s *Server) Emissions(id string) (EmissionsResponse, error) {
	j, ok := s.st.job(id)
	if !ok {
		return EmissionsResponse{}, fmt.Errorf("server: unknown job %s", id)
	}
	gs := s.st.gridState()
	j.mu.Lock()
	defer j.mu.Unlock()
	j.accrueLocked(gs)
	resp := EmissionsResponse{JobID: id}
	if !j.accSince.IsZero() {
		resp.Ready = true
		resp.SinceS = j.accAt.Sub(j.accSince).Seconds()
		t, _ := s.obs.ledger.Totals(id)
		resp.EnergyJ, resp.CarbonG, resp.CostUSD = t.EnergyJ, t.CarbonG, t.CostUSD
		resp.PredCarbonG, resp.PredCostUSD = t.PredC, t.PredCostUSD
		resp.DriftCarbonG = t.PredRealC - t.PredC
	}
	return resp, nil
}
