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
	writeJSON(w, s.recomputeFleet(r.Context()))
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
	return s.recomputeFleet(ctx), nil
}

// FleetStatus recomputes and returns the fleet-wide allocation under
// the current cap.
func (s *Server) FleetStatus() FleetStatusResponse {
	return s.recomputeFleet(context.Background())
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
// under the current cap, deploys each job's allocated iteration-time
// floor (bumping its schedule version when it changes), and returns the
// fleet-wide view. Jobs still characterizing appear with Ready false.
// The whole recomputation is serialized: the deployed floors always
// reflect one allocation of the cap current when it ran.
func (s *Server) recomputeFleet(ctx context.Context) FleetStatusResponse {
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	gs := s.st.gridState()
	s.st.mu.Lock()
	capW := s.st.capW
	s.st.mu.Unlock()
	jobs := s.st.jobsInOrder()

	var fjobs []fleet.Job
	var ready []int // indices into jobs, aligned with fjobs
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
	var alloc fleet.Allocation
	_ = s.solve(ctx, "fleet", "", nil, func() ([]string, error) {
		alloc = fleet.Allocate(fjobs, capW)
		return []string{
			"price", strconv.FormatFloat(alloc.Price, 'g', -1, 64),
			"gap", strconv.FormatFloat(alloc.Loss-alloc.LossBound, 'g', -1, 64),
		}, nil
	})

	st := FleetStatusResponse{
		CapW:     alloc.CapW,
		PowerW:   alloc.PowerW,
		Loss:     alloc.Loss,
		Feasible: alloc.Feasible,
	}
	byID := map[string]JobAllocationResponse{}
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
		byID[j.id] = JobAllocationResponse{
			JobID:     j.id,
			Ready:     true,
			Time:      ja.Time,
			PowerW:    ja.PowerW,
			FloorTime: ja.FloorTime,
			Loss:      ja.Loss,
		}
	}
	for _, j := range jobs {
		if resp, ok := byID[j.id]; ok {
			st.Jobs = append(st.Jobs, resp)
		} else {
			st.Jobs = append(st.Jobs, JobAllocationResponse{JobID: j.id})
		}
	}
	return st
}
