package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"time"

	"perseus/internal/api"
	"perseus/internal/dag"
	"perseus/internal/frontier"
	"perseus/internal/gpu"
	"perseus/internal/profile"
	"perseus/internal/sched"
)

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	j, err := s.register(r.Context(), req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, JobResponse{JobID: j})
}

// Register creates a job and returns its id (the non-HTTP entry point).
func (s *Server) Register(req JobRequest) (string, error) {
	return s.register(context.Background(), req)
}

func (s *Server) register(ctx context.Context, req JobRequest) (string, error) {
	g, err := gpu.ByName(req.GPU)
	if err != nil {
		return "", err
	}
	// Every reader of DataParallel and Weight takes them as they are
	// stored here: malformed values are rejected, 0 reads as 1.
	if req.DataParallel < 0 {
		return "", fmt.Errorf("server: data_parallel must be non-negative, got %d", req.DataParallel)
	}
	if math.IsNaN(req.Weight) || math.IsInf(req.Weight, 0) || req.Weight < 0 {
		return "", fmt.Errorf("server: weight must be a finite non-negative number, got %v", req.Weight)
	}
	req.DataParallel = max(req.DataParallel, 1)
	if req.Weight == 0 {
		req.Weight = 1
	}
	if req.Chunks == 0 {
		req.Chunks = 1
	}
	sc, err := sched.ByName(req.Schedule, req.Stages, req.Microbatches, req.Chunks)
	if err != nil {
		return "", err
	}
	st := s.st
	st.mu.Lock()
	defer st.mu.Unlock()
	st.next++
	id := fmt.Sprintf("job-%d", st.next)
	st.jobs[id] = &job{id: id, req: req, gpu: g, sched: sc, obs: s.obs, hub: s.hub, done: make(chan struct{})}
	st.ord = append(st.ord, id)
	s.obs.jobsRegistered.Inc()
	s.obs.ring.Emit(st.clock(), "job.register", 0, traceKV(ctx,
		"job", id, "schedule", req.Schedule, "gpu", req.GPU)...)
	return id, nil
}

// RemoveJob unregisters a job (DELETE /jobs/{id}): its final span is
// settled into the bloat ledger and its account closed, the ledger
// drops its per-job state — and with it the job's metric series, which
// are views of that state (fleet totals retain the contribution) — its
// rolling schedule goes with it, and the fleet forgets it.
func (s *Server) RemoveJob(id string) error {
	return s.removeJob(context.Background(), id)
}

func (s *Server) removeJob(ctx context.Context, id string) error {
	j, ok := s.st.job(id)
	if !ok {
		return fmt.Errorf("server: unknown job %s", id)
	}
	gs := s.st.gridState()
	j.mu.Lock()
	j.accrueLocked(gs) // settle the final span before the job disappears
	// Close the account in the same critical section that drops it: a
	// settle on a *job looked up before the removal books nothing, so it
	// cannot re-create the job in the ledger.
	j.closed = true
	s.obs.ledger.Remove(id)
	if j.pending != nil {
		j.pending.Stop()
		j.pending = nil
	}
	j.mu.Unlock()

	// The job and its schedule go under one write side of replanMu: a
	// tick worker either rolls the schedule before, or finds neither
	// after, and a ManageJob after finds no job to schedule.
	s.replanMu.Lock()
	st := s.st
	st.mu.Lock()
	delete(st.jobs, id)
	st.ord = slices.DeleteFunc(st.ord, func(v string) bool { return v == id })
	st.mu.Unlock()
	delete(s.replans, id)
	s.order = slices.DeleteFunc(s.order, func(v string) bool { return v == id })
	s.replanMu.Unlock()
	// Wake any long-pollers parked on the job's schedule topic; their
	// re-read serves against the snapshot they hold.
	s.hub.bump(topicSchedule(id))
	s.obs.ring.Emit(gs.now, "job.remove", 0, traceKV(ctx, "job", id)...)
	// The fleet lost a member: under a cap, power must be re-divided.
	s.recomputeFleet(ctx)
	return nil
}

func (s *Server) handleRemoveJob(w http.ResponseWriter, r *http.Request, j *job) {
	if err := s.removeJob(r.Context(), j.id); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request, j *job) {
	var up ProfileUpload
	if !decodeBody(w, r, func(body io.Reader) error {
		data, err := readBody(body, r.ContentLength)
		if err != nil {
			return err
		}
		return up.UnmarshalBinary(data)
	}) {
		return
	}
	if err := s.uploadProfile(r.Context(), j.id, up); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusAccepted)
}

func (s *Server) handleStraggler(w http.ResponseWriter, r *http.Request, j *job) {
	var n StragglerNotice
	if !decodeJSON(w, r, &n) {
		return
	}
	if err := s.setStraggler(r.Context(), j.id, n); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (s *Server) handleFrontier(w http.ResponseWriter, _ *http.Request, j *job) {
	writeJSON(w, s.FrontierOf(j.id))
}

// handleTable serves the table as its PLT1 body (frontier.LookupTable.Save).
func (s *Server) handleTable(w http.ResponseWriter, _ *http.Request, j *job) {
	lt, err := s.Table(j.id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	var body bytes.Buffer
	if err := lt.Save(&body); err != nil {
		http.Error(w, "encode response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, "application/octet-stream", body.Bytes())
}

func (s *Server) handleAllocation(w http.ResponseWriter, _ *http.Request, j *job) {
	resp, err := s.AllocationOf(j.id)
	writeResult(w, resp, err, http.StatusInternalServerError)
}

func (s *Server) handleEmissions(w http.ResponseWriter, _ *http.Request, j *job) {
	resp, err := s.Emissions(j.id)
	writeResult(w, resp, err, http.StatusInternalServerError)
}

func (s *Server) handleRollout(w http.ResponseWriter, _ *http.Request, j *job) {
	resp, err := s.Rollout(j.id)
	writeResult(w, resp, err, http.StatusNotFound)
}

func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request, j *job) {
	var req PlacementRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	resp, err := s.placeJob(r.Context(), j.id, req)
	writeResult(w, resp, err, http.StatusBadRequest)
}

func (s *Server) handlePlacement(w http.ResponseWriter, _ *http.Request, j *job) {
	resp, err := s.PlacementOf(j.id)
	writeResult(w, resp, err, http.StatusInternalServerError)
}

// maxScheduleWait caps how long a schedule long-poll may block.
const maxScheduleWait = 30 * time.Second

// parseWait reads a ?wait=<seconds> query parameter, capped at
// maxScheduleWait before it is converted, so a huge value waits the cap
// rather than overflowing. ok is false (after writing a 400) on a
// malformed, negative or non-finite value.
func parseWait(w http.ResponseWriter, r *http.Request) (time.Duration, bool) {
	v := r.URL.Query().Get("wait")
	if v == "" {
		return 0, true
	}
	sec, err := strconv.ParseFloat(v, 64)
	if err != nil || !(sec >= 0) || math.IsInf(sec, 1) {
		http.Error(w, fmt.Sprintf("bad wait: %q", v), http.StatusBadRequest)
		return 0, false
	}
	return time.Duration(min(sec, maxScheduleWait.Seconds()) * float64(time.Second)), true
}

// queryFloats reads optional float query parameters (absent = 0) in
// key order. ok is false (after writing a 400 naming the key) on a
// malformed or non-finite value: a NaN would never equal itself as a
// plan-cache key.
func queryFloats(w http.ResponseWriter, q url.Values, keys ...string) (vals []float64, ok bool) {
	vals = make([]float64, len(keys))
	for i, key := range keys {
		v := q.Get(key)
		if v == "" {
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
			err = fmt.Errorf("%q is not finite", v)
		}
		if err != nil {
			http.Error(w, fmt.Sprintf("bad %s: %v", key, err), http.StatusBadRequest)
			return nil, false
		}
		vals[i] = f
	}
	return vals, true
}

// queryN reads the optional ?n= limit of the /debug endpoints (absent =
// 0). ok is false (after writing a 400) unless it is a non-negative
// integer.
func queryN(w http.ResponseWriter, q url.Values) (n int, ok bool) {
	v := q.Get("n")
	if v == "" {
		return 0, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		http.Error(w, "bad n: "+v, http.StatusBadRequest)
		return 0, false
	}
	return n, true
}

// handleSchedule serves the deployed schedule with version
// concurrency-control: every response carries an ETag `"v<version>"`;
// a request whose If-None-Match matches the current version (RFC 9110
// list and weak forms included) with a positive ?wait=<seconds> parks
// on the job's hub topic (in real time, bounded by maxScheduleWait)
// until a version bump broadcasts, and answers 304 Not Modified if
// none does — so trainers observe controller version bumps without
// polling or ever issuing replan calls themselves. A client that
// disconnects while parked releases its waiter immediately (nothing is
// written; the connection is gone) instead of holding the goroutine
// and a timer until the wait expires.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request, j *job) {
	inm := r.Header.Get("If-None-Match")
	wait, ok := parseWait(w, r)
	if !ok {
		return
	}
	deadline := time.Now().Add(wait)
	for {
		j.mu.Lock()
		ver := j.version
		j.mu.Unlock()
		if inm == "" || !etagMatch(inm, etag(ver)) {
			break // version moved past the client's (or unconditional): serve it
		}
		// Subscribe, then re-check: a bump between the version read
		// and the subscription must not strand the waiter.
		watch := s.hub.watch(topicSchedule(j.id))
		j.mu.Lock()
		moved := j.version != ver
		j.mu.Unlock()
		if moved {
			continue
		}
		switch s.parkWaiter(r.Context(), j.id, deadline, watch, nil) {
		case wakeBumped:
			continue // re-read the version; loop serves or re-parks
		case wakeTimeout:
			w.Header().Set("ETag", etag(ver))
			w.WriteHeader(http.StatusNotModified)
			return
		case wakeCancelled:
			return // client gone: write nothing
		}
	}
	resp, err := s.Schedule(j.id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("ETag", etag(resp.Version))
	writeJSON(w, resp)
}

// etag renders a schedule version as an entity tag.
func etag(version int) string { return fmt.Sprintf("%q", "v"+strconv.Itoa(version)) }

// UploadProfile stores a job's profiling results and kicks off
// asynchronous frontier characterization (paper §3.2 step 2): training
// continues while the server optimizes.
func (s *Server) UploadProfile(id string, up ProfileUpload) error {
	return s.uploadProfile(context.Background(), id, up)
}

func (s *Server) uploadProfile(ctx context.Context, id string, up ProfileUpload) error {
	j, ok := s.st.job(id)
	if !ok {
		return fmt.Errorf("server: unknown job %s", id)
	}
	profiled := func() bool { return j.characterizing || j.table != nil } // under j.mu
	// A retried upload is refused before it pays for the fits; the check
	// after them is the one that counts.
	j.mu.Lock()
	again := profiled()
	j.mu.Unlock()
	if again {
		return fmt.Errorf("server: job %s already profiled", id)
	}
	ms := make([]profile.Measurement, 0, len(up.Measurements))
	for _, m := range up.Measurements {
		kind, err := api.ParseKind(m.Kind)
		if err != nil {
			return fmt.Errorf("server: %w", err)
		}
		ms = append(ms, profile.Measurement{
			Virtual: m.Virtual, Kind: kind,
			Freq: gpu.Frequency(m.Freq), Time: m.Time, Energy: m.Energy,
		})
	}
	prof, err := profile.Assemble(j.gpu, up.PBlocking, ms)
	if err != nil {
		return err
	}
	j.mu.Lock()
	if profiled() {
		j.mu.Unlock()
		return fmt.Errorf("server: job %s already profiled", id)
	}
	// A failed characterization is retryable: the retry gets a fresh
	// done channel (the previous attempt already closed the old one —
	// re-closing it would panic) and a cleared error, so
	// WaitCharacterized callers block on this attempt's outcome.
	if j.charErr != nil {
		j.charErr = nil
		j.done = make(chan struct{})
	}
	j.characterizing = true
	done := j.done
	j.mu.Unlock()

	go func() {
		charStart := time.Now()
		graph, err := dag.Build(j.sched, func(op sched.Op) int64 { return 1 })
		var front *frontier.Frontier
		if err == nil {
			front, err = frontier.Characterize(graph, prof, frontier.Options{Unit: j.req.Unit})
		}
		// The table and its hash are built before the lock is taken: every
		// request for this job waits on j.mu.
		var table *frontier.LookupTable
		var tableHash uint64
		if front != nil {
			table = front.Table()
			tableHash = hashTable(table)
		}
		now := s.st.now()
		j.mu.Lock()
		j.charErr = err
		if front != nil {
			j.table, j.tableHash = table, tableHash
			// The job now has a deployed schedule drawing power:
			// emissions accounting starts here.
			j.accSince, j.accAt = now, now
		}
		j.characterizing = false
		j.bumpLocked()
		j.mu.Unlock()
		outcome := "ok"
		if err != nil {
			outcome = "error"
		}
		s.obs.characterized.With(outcome).Inc()
		took := time.Since(charStart)
		s.obs.charDur.Observe(took.Seconds())
		var work frontier.Stats
		points := 0
		if front != nil {
			work, points = front.Stats(), len(front.Points())
			s.obs.charPoints.Observe(float64(points))
		}
		// ctx outlives the HTTP request here only as a label source:
		// context values stay readable after cancellation, so the
		// characterize event still carries the registering trace's ID.
		s.obs.ring.Emit(now, "job.characterize", took, traceKV(ctx,
			"job", j.id, "outcome", outcome,
			"points", strconv.Itoa(points), "hull_points", strconv.Itoa(work.HullPoints), "steps", strconv.Itoa(work.Steps),
			"edges_moved", strconv.Itoa(work.EdgesMoved), "searches", strconv.Itoa(work.Searches),
			"grown", strconv.Itoa(work.Grown), "augmenting_paths", strconv.Itoa(work.AugmentingPaths), "fallbacks", strconv.Itoa(work.Fallbacks),
			"rebuilds", strconv.Itoa(work.Rebuilds))...)
		close(done)
		// The fleet gained a characterized member: under a cap, power
		// must be re-divided.
		s.recomputeFleet(ctx)
	}()
	return nil
}

// WaitCharacterized blocks until the job's current characterization
// attempt finishes and returns its outcome (test hook and CLI
// convenience). The done channel is read under the job lock: a retried
// characterization installs a fresh channel, and waiters must observe
// the attempt in flight, not a closed channel from a failed past one.
func (s *Server) WaitCharacterized(id string) error {
	j, ok := s.st.job(id)
	if !ok {
		return fmt.Errorf("server: unknown job %s", id)
	}
	j.mu.Lock()
	done := j.done
	j.mu.Unlock()
	<-done
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.charErr
}

// SetStraggler records a straggler notification and moves the deployed
// schedule to T_opt = min(T*, T') (paper §3.2 steps 4-5). Degree <= 1
// clears the straggler. A positive Delay defers the switch: the
// infrastructure anticipates the straggler Delay seconds ahead (Table 2),
// so the server arms a timer and flips the deployed schedule when it
// fires.
func (s *Server) SetStraggler(id string, n StragglerNotice) error {
	return s.setStraggler(context.Background(), id, n)
}

func (s *Server) setStraggler(ctx context.Context, id string, n StragglerNotice) error {
	j, ok := s.st.job(id)
	if !ok {
		return fmt.Errorf("server: unknown job %s", id)
	}
	if !(n.Degree > 0) || math.IsInf(n.Degree, 1) {
		return fmt.Errorf("server: straggler degree must be positive and finite, got %v", n.Degree)
	}
	// The delay becomes a time.Duration: one too large for it would
	// overflow to a negative timer and apply the straggler at once.
	if math.IsInf(n.Delay, -1) || !(n.Delay*float64(time.Second) < math.MaxInt64) {
		return fmt.Errorf("server: straggler delay_s must be finite and below %.0f s, got %v", time.Duration(math.MaxInt64).Seconds(), n.Delay)
	}
	gs := s.st.gridState()
	j.mu.Lock()
	if j.table == nil {
		j.mu.Unlock()
		return fmt.Errorf("server: job %s not characterized yet", id)
	}
	// The deployed operating point (and so the power draw) is about to
	// move: settle emissions at the old point first.
	apply := func(gs gridState) {
		j.accrueLocked(gs)
		if n.Degree <= 1 {
			j.tPrime = 0
		} else {
			j.tPrime = j.table.Tmin() * n.Degree
		}
		j.bumpLocked()
		s.obs.ring.Emit(gs.now, "job.straggler", 0, traceKV(ctx,
			"job", j.id, "degree", strconv.FormatFloat(n.Degree, 'g', -1, 64))...)
	}
	if n.Delay <= 0 {
		apply(gs)
		j.mu.Unlock()
		// A straggler moves the job's T_opt floor, freeing (or taking)
		// fleet power; re-divide it.
		s.recomputeFleet(ctx)
		return nil
	}
	if j.pending != nil {
		j.pending.Stop()
	}
	j.pending = time.AfterFunc(time.Duration(n.Delay*float64(time.Second)), func() {
		gs := s.st.gridState()
		j.mu.Lock()
		apply(gs)
		j.mu.Unlock()
		s.recomputeFleet(ctx)
	})
	j.mu.Unlock()
	return nil
}

// Schedule returns the currently deployed energy schedule: the Tmin
// schedule in normal operation, or the T_opt schedule under a straggler.
func (s *Server) Schedule(id string) (ScheduleResponse, error) {
	j, ok := s.st.job(id)
	if !ok {
		return ScheduleResponse{}, fmt.Errorf("server: unknown job %s", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.charErr != nil {
		return ScheduleResponse{}, j.charErr
	}
	lt := j.table
	if lt == nil {
		return ScheduleResponse{Ready: false, Version: j.version}, nil
	}
	i := lt.LookupIndex(j.deployedTimeLocked(lt.Tmin()))
	freqs := make([]int, len(lt.Points[i].Freqs))
	for k, f := range lt.Points[i].Freqs {
		freqs[k] = int(f)
	}
	return ScheduleResponse{
		Ready:   true,
		Time:    lt.PointTime(i),
		Tmin:    lt.Tmin(),
		TStar:   lt.TStar(),
		Freqs:   freqs,
		Version: j.version,
	}, nil
}

// Table returns the job's serializable energy-schedule lookup table
// (paper §3.2), for persistence or external consumption.
func (s *Server) Table(id string) (*frontier.LookupTable, error) {
	j, ok := s.st.job(id)
	if !ok {
		return nil, fmt.Errorf("server: unknown job %s", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.table == nil {
		return nil, fmt.Errorf("server: job %s not characterized yet", id)
	}
	return j.table, nil
}

// FrontierOf returns the (time, energy) points of the job's table.
func (s *Server) FrontierOf(id string) FrontierResponse {
	j, ok := s.st.job(id)
	if !ok {
		return FrontierResponse{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	lt := j.table
	if lt == nil {
		return FrontierResponse{}
	}
	resp := FrontierResponse{Ready: true, Time: make([]float64, len(lt.Points)), Energy: make([]float64, len(lt.Points))}
	for i, pt := range lt.Points {
		resp.Time[i], resp.Energy[i] = lt.PointTime(i), pt.Energy
	}
	return resp
}
