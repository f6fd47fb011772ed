package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"perseus/internal/fleet"
)

func (s *Server) handleFleetCap(w http.ResponseWriter, r *http.Request) {
	var req FleetCapRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	st, err := s.setFleetCap(r.Context(), req.CapW)
	writeResult(w, st, err, http.StatusBadRequest)
}

func (s *Server) handleFleetStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.fleetStatus(r.Context()))
}

// SetFleetCap sets the facility power cap and re-divides it across the
// characterized jobs; capW = 0 uncaps the fleet. NaN, infinite, or
// negative watts are rejected (HTTP 400 at the POST /fleet/cap layer) —
// a malformed cap must not silently lift the facility envelope.
func (s *Server) SetFleetCap(capW float64) (FleetStatusResponse, error) {
	return s.setFleetCap(context.Background(), capW)
}

func (s *Server) setFleetCap(ctx context.Context, capW float64) (FleetStatusResponse, error) {
	if math.IsNaN(capW) || math.IsInf(capW, 0) || capW < 0 {
		return FleetStatusResponse{}, fmt.Errorf("server: fleet cap must be a finite non-negative number of watts, got %v", capW)
	}
	s.st.mu.Lock()
	s.st.capW = capW
	s.st.mu.Unlock()
	return s.fleetStatus(ctx), nil
}

// FleetStatus recomputes and returns the fleet-wide allocation under
// the current cap.
func (s *Server) FleetStatus() FleetStatusResponse {
	return s.fleetStatus(context.Background())
}

// AllocationOf returns a job's latest fleet allocation.
func (s *Server) AllocationOf(id string) (JobAllocationResponse, error) {
	j, ok := s.st.job(id)
	if !ok {
		return JobAllocationResponse{}, fmt.Errorf("server: unknown job %s", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.alloc == nil {
		return JobAllocationResponse{JobID: id}, nil
	}
	return JobAllocationResponse{
		JobID:     id,
		Ready:     true,
		Time:      j.alloc.Time,
		PowerW:    j.alloc.PowerW,
		FloorTime: j.alloc.FloorTime,
		Loss:      j.alloc.Loss,
	}, nil
}

// recomputeFleet runs the fleet allocator over every characterized job
// under the current cap and deploys each job's allocated iteration-time
// floor (bumping its schedule version when it changes). It returns the
// jobs in registration order, the indices of the characterized ones and
// their allocation, aligned with those indices. The whole recomputation
// is serialized: the deployed floors always reflect one allocation of
// the cap current when it ran.
func (s *Server) recomputeFleet(ctx context.Context) (jobs []*job, ready []int, alloc fleet.Allocation) {
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	gs := s.st.gridState()
	s.st.mu.Lock()
	capW := s.st.capW
	s.st.mu.Unlock()
	jobs = s.st.jobsInOrder()

	var fjobs []fleet.Job
	for i, j := range jobs {
		j.mu.Lock()
		if j.table != nil {
			fjobs = append(fjobs, fleet.Job{
				ID:        j.id,
				Table:     j.table,
				Pipelines: j.req.DataParallel,
				Weight:    j.req.Weight,
				TPrime:    j.tPrime,
			})
			ready = append(ready, i)
		}
		j.mu.Unlock()
	}
	// fleet.Allocate cannot fail: setFleetCap validated the cap. Its
	// span carries the cap's price and the certified gap to the optimum.
	_ = s.solve(ctx, "fleet", "", nil, func() ([]string, error) {
		alloc = fleet.Allocate(fjobs, capW)
		return []string{
			"price", strconv.FormatFloat(alloc.Price, 'g', -1, 64),
			"gap", strconv.FormatFloat(alloc.Loss-alloc.LossBound, 'g', -1, 64),
		}, nil
	})

	for k, ja := range alloc.Jobs {
		j := jobs[ready[k]]
		// Only an actual cap constrains deployment; uncapped allocations
		// sit at the job's own floor, which Schedule derives itself.
		var capTime float64
		if capW > 0 {
			capTime = ja.Time
		}
		j.mu.Lock()
		if j.capTime != capTime {
			// The fleet floor moves the deployed operating point: settle
			// emissions at the old point first.
			j.accrueLocked(gs)
			j.capTime = capTime
			j.bumpLocked()
		}
		a := ja
		j.alloc = &a
		j.mu.Unlock()
	}
	return jobs, ready, alloc
}

// fleetStatus recomputes the fleet (recomputeFleet) and returns the
// fleet-wide view, every job in registration order; jobs still
// characterizing appear with Ready false.
func (s *Server) fleetStatus(ctx context.Context) FleetStatusResponse {
	jobs, ready, alloc := s.recomputeFleet(ctx)
	st := FleetStatusResponse{
		CapW:     alloc.CapW,
		PowerW:   alloc.PowerW,
		Loss:     alloc.Loss,
		Feasible: alloc.Feasible,
	}
	k := 0 // the next allocated job: ready[k], alloc.Jobs[k]; none when the solve did not run
	for i, j := range jobs {
		resp := JobAllocationResponse{JobID: j.id}
		if k < len(alloc.Jobs) && ready[k] == i {
			ja := alloc.Jobs[k]
			resp = JobAllocationResponse{
				JobID:     j.id,
				Ready:     true,
				Time:      ja.Time,
				PowerW:    ja.PowerW,
				FloorTime: ja.FloorTime,
				Loss:      ja.Loss,
			}
			k++
		}
		st.Jobs = append(st.Jobs, resp)
	}
	return st
}
