package server

import (
	"context"
	"fmt"
	"math"
	"net/http"

	"perseus/internal/grid"
	"perseus/internal/region"
)

func (s *Server) handleRegisterRegion(w http.ResponseWriter, r *http.Request) {
	var req RegionRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	info, err := s.RegisterRegion(req)
	writeResult(w, info, err, http.StatusBadRequest)
}

func (s *Server) handleRegions(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Regions())
}

// RegisterRegion validates and registers a datacenter region, anchoring
// its signal's time 0 at the current wall clock.
func (s *Server) RegisterRegion(req RegionRequest) (RegionInfo, error) {
	if req.Name == "" {
		return RegionInfo{}, fmt.Errorf("server: region needs a name")
	}
	if req.GPUs < 0 {
		return RegionInfo{}, fmt.Errorf("server: region %s capacity must be non-negative, got %d", req.Name, req.GPUs)
	}
	if math.IsNaN(req.CapW) || math.IsInf(req.CapW, 0) || req.CapW < 0 {
		return RegionInfo{}, fmt.Errorf("server: region %s cap must be a finite non-negative number of watts, got %v", req.Name, req.CapW)
	}
	if err := req.Signal.Validate(); err != nil {
		return RegionInfo{}, err
	}
	now := s.st.now()
	sig := req.Signal
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	if _, ok := s.st.regions[req.Name]; ok {
		return RegionInfo{}, fmt.Errorf("server: region %s already registered", req.Name)
	}
	s.st.regions[req.Name] = &serverRegion{
		name: req.Name, gpus: req.GPUs, capW: req.CapW, sig: &sig, anchor: now,
		meanG: sig.MeanCarbonGPerKWh() / grid.JoulesPerKWh,
	}
	s.st.regOrd = append(s.st.regOrd, req.Name)
	return RegionInfo{
		Name: req.Name, GPUs: req.GPUs, CapW: req.CapW,
		Intervals: len(sig.Intervals), HorizonS: sig.Horizon(),
	}, nil
}

// Regions lists the registered regions in registration order.
func (s *Server) Regions() []RegionInfo {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	out := make([]RegionInfo, 0, len(s.st.regOrd))
	for _, name := range s.st.regOrd {
		r := s.st.regions[name]
		out = append(out, RegionInfo{
			Name: r.name, GPUs: r.gpus, CapW: r.capW,
			Intervals: len(r.sig.Intervals), HorizonS: r.sig.Horizon(),
		})
	}
	return out
}

// PlaceJob places (or migrates) a job into a registered region.
// Emissions accrued so far are settled at the old placement's rates
// first, so the migration boundary splits the account exactly.
func (s *Server) PlaceJob(id, regionName string) (PlacementResponse, error) {
	return s.placeJob(context.Background(), id, PlacementRequest{Region: regionName})
}

// PlaceJobMigrating is PlaceJob with a migration energy overhead,
// charged at the destination's instantaneous rates and attributed as
// migration overhead in the bloat ledger.
func (s *Server) PlaceJobMigrating(id, regionName string, migrationJ float64) (PlacementResponse, error) {
	return s.placeJob(context.Background(), id, PlacementRequest{Region: regionName, MigrationJ: migrationJ})
}

func (s *Server) placeJob(ctx context.Context, id string, req PlacementRequest) (PlacementResponse, error) {
	j, ok := s.st.job(id)
	if !ok {
		return PlacementResponse{}, fmt.Errorf("server: unknown job %s", id)
	}
	if math.IsNaN(req.MigrationJ) || math.IsInf(req.MigrationJ, 0) || req.MigrationJ < 0 {
		return PlacementResponse{}, fmt.Errorf("server: migration_j must be a finite non-negative energy, got %v", req.MigrationJ)
	}
	s.st.mu.Lock()
	dest, ok := s.st.regions[req.Region]
	s.st.mu.Unlock()
	if !ok {
		return PlacementResponse{}, fmt.Errorf("server: unknown region %q", req.Region)
	}
	gs := s.st.gridState()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.region != req.Region {
		from := j.region
		j.accrueLocked(gs)
		j.chargeMigrationLocked(gs, req.MigrationJ, dest)
		j.region = req.Region
		j.placements = append(j.placements, placementEvent{region: req.Region, at: gs.now})
		name := "job.place"
		if from != "" {
			name = "job.migrate"
		}
		s.obs.ring.Emit(gs.now, name, 0, traceKV(ctx, "job", j.id, "from", from, "to", req.Region)...)
	}
	return placementLocked(j), nil
}

// PlacementOf returns a job's current placement and history.
func (s *Server) PlacementOf(id string) (PlacementResponse, error) {
	j, ok := s.st.job(id)
	if !ok {
		return PlacementResponse{}, fmt.Errorf("server: unknown job %s", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return placementLocked(j), nil
}

// placementLocked renders the placement view. Callers hold j.mu.
func placementLocked(j *job) PlacementResponse {
	resp := PlacementResponse{JobID: j.id, Region: j.region}
	for _, p := range j.placements {
		resp.History = append(resp.History, PlacementEntry{
			Region:  p.region,
			AtUnixS: float64(p.at.UnixNano()) / 1e9,
		})
	}
	if n := len(j.placements); n > 1 {
		resp.Migrations = n - 1
	}
	return resp
}

func (s *Server) handleRegionsPlan(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f, ok := queryFloats(w, q, "iterations", "deadline", "downtime", "migration_j")
	if !ok {
		return
	}
	plan, err := s.regionsPlan(r.Context(), f[0], f[1], q.Get("objective"), region.MigrationCost{
		DowntimeS: f[2], EnergyJ: f[3],
	})
	writeResult(w, plan, err, http.StatusBadRequest)
}

// RegionsPlan plans every characterized job's spatio-temporal schedule
// across the registered regions (internal/region): complete target
// iterations per job by the deadline (seconds in signal time; 0 means
// the longest region trace), minimizing the objective ("" uses the
// server default), with migration modeled at the given pause-cost.
// Each job occupies Stages × DataParallel GPUs of a region's capacity.
func (s *Server) RegionsPlan(target, deadline float64, objective string, mig region.MigrationCost) (*region.Plan, error) {
	return s.regionsPlan(context.Background(), target, deadline, objective, mig)
}

func (s *Server) regionsPlan(ctx context.Context, target, deadline float64, objective string, mig region.MigrationCost) (*region.Plan, error) {
	s.st.mu.Lock()
	obj := s.st.objective
	regs := make([]region.Region, 0, len(s.st.regOrd))
	for _, name := range s.st.regOrd {
		r := s.st.regions[name]
		regs = append(regs, region.Region{
			Name: r.name, GPUs: r.gpus, Signal: r.sig, CapW: r.capW,
		})
	}
	s.st.mu.Unlock()
	jobs := s.st.jobsInOrder()
	if len(regs) == 0 {
		return nil, fmt.Errorf("server: no regions registered")
	}
	if objective != "" {
		var err error
		if obj, err = grid.ParseObjective(objective); err != nil {
			return nil, err
		}
	}
	var rjobs []region.Job
	for _, j := range jobs {
		j.mu.Lock()
		if j.table != nil {
			pipes := j.req.DataParallel
			rjobs = append(rjobs, region.Job{
				ID:         j.id,
				Table:      j.table,
				GPUs:       j.req.Stages * pipes,
				PowerScale: float64(pipes),
				Target:     target,
				DeadlineS:  deadline,
			})
		}
		j.mu.Unlock()
	}
	if len(rjobs) == 0 {
		return nil, fmt.Errorf("server: no characterized jobs to plan")
	}
	// The joint planner's descent cost grows with jobs × cells²; this
	// endpoint runs it synchronously in the request, so bound the
	// problem size rather than pin a CPU for minutes. Larger fleets
	// should plan offline with internal/region directly.
	if len(rjobs) > maxPlanJobs {
		return nil, fmt.Errorf("server: %d characterized jobs exceed the synchronous planning limit of %d; plan offline with internal/region", len(rjobs), maxPlanJobs)
	}
	var plan *region.Plan
	err := s.solve(ctx, "region", obj, nil, func() ([]string, error) {
		var err error
		if plan, err = region.Optimize(regs, rjobs, region.Options{Objective: obj, Migration: mig}); err != nil {
			return nil, err
		}
		return plan.SpanAttrs(), nil
	})
	if err != nil {
		return nil, err
	}
	s.obs.regionSolves.Observe(float64(plan.Stats.InnerSolves))
	return plan, nil
}

// maxPlanJobs bounds the fleet size GET /regions/plan will plan
// synchronously.
const maxPlanJobs = 6
