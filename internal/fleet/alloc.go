package fleet

import (
	"fmt"
	"math"

	"perseus/internal/frontier"
)

// JobAlloc is one job's allocated operating point.
type JobAlloc struct {
	// ID names the job.
	ID string `json:"id"`

	// Point indexes the allocated point in the job's lookup table.
	Point int `json:"point"`

	// Time is the allocated planned iteration time in seconds.
	Time float64 `json:"time_s"`

	// Energy is one pipeline's per-iteration adjusted computation
	// energy at the point, in joules.
	Energy float64 `json:"energy_j"`

	// PowerW is the job's total power draw at the point: per-pipeline
	// average power times the pipeline count.
	PowerW float64 `json:"power_w"`

	// FloorTime is the job's operating floor: T_opt = min(T*, T')
	// under a straggler, Tmin otherwise. The allocation never plans
	// faster than the floor.
	FloorTime float64 `json:"floor_s"`

	// Loss is the job's weighted relative slowdown versus its floor:
	// Weight × (Time − FloorTime) / FloorTime. A straggler-bound job
	// sitting at its T_opt floor has zero loss — the straggler, not the
	// fleet, dictates its pace.
	Loss float64 `json:"loss"`
}

// Allocation is the fleet-wide outcome of the power-budget allocator.
type Allocation struct {
	// CapW is the cap the allocation was computed for (0 = uncapped).
	CapW float64 `json:"cap_w"`

	// PowerW is the fleet's total allocated power draw.
	PowerW float64 `json:"power_w"`

	// Loss is the total weighted relative slowdown across jobs.
	Loss float64 `json:"loss"`

	// Feasible reports whether the allocation meets the cap. When even
	// every job at its T* point exceeds the cap, the allocator returns
	// that minimum-power allocation with Feasible false.
	Feasible bool `json:"feasible"`

	// Jobs holds per-job allocations in input order.
	Jobs []JobAlloc `json:"jobs"`
}

// checkCap rejects NaN, infinite, or negative watts: a malformed cap
// silently clamped to "uncapped" would quietly lift the facility
// envelope. Zero is valid and uncaps.
func checkCap(watts float64) error {
	if math.IsNaN(watts) || math.IsInf(watts, 0) || watts < 0 {
		return fmt.Errorf("fleet: power cap must be a finite non-negative number of watts, got %v", watts)
	}
	return nil
}

// Allocate picks each job's operating point on its own frontier so the
// fleet meets the power cap at minimum total weighted throughput loss
// (capW <= 0 = uncapped: every job runs at its floor).
//
// The algorithm is marginal-cost waterfilling over the merged frontiers
// (frontier.Merge): starting from every job at its floor, it repeatedly
// takes the one-point slowdown with the steepest watts-saved-per-loss
// slope until total power is under the cap, then prunes: any earlier
// step the final (overshooting) step made unnecessary is undone,
// most-loss first.
//
// Optimality holds only on convex frontiers (per-job watts-saved-per-
// loss slopes non-increasing). The merged descent walks every point of
// each job's table, a Pareto set whose slopes need not be monotone —
// the tables Perseus characterizes are not convex — and there the
// bounds below are not guaranteed. On convex tables a greedy prefix's
// loss is minimal among all point combinations drawing at most the
// power it draws, by the standard marginal-analysis exchange argument:
// any combination with less loss fits under the sorted-slope concave
// envelope and therefore saves strictly less power. Consequently, when
// the cap coincides with a breakpoint of the merged descent the
// allocation matches exhaustive enumeration exactly; for caps between
// breakpoints the final step overshoots and the loss exceeds the
// constrained optimum by less than that single step's loss (one τ of
// one job's slowdown). alloc_test.go verifies both bounds by brute
// force on convex tables.
func Allocate(jobs []Job, capW float64) Allocation {
	alloc := Allocation{CapW: capW, Feasible: true}
	if len(jobs) == 0 {
		return alloc
	}

	inputs := make([]frontier.MergeInput, len(jobs))
	floors := make([]int, len(jobs))
	floorTimes := make([]float64, len(jobs))
	for i := range jobs {
		j := &jobs[i]
		fi := j.floorIndex()
		ft := j.Table.PointTime(fi)
		floors[i], floorTimes[i] = fi, ft
		inputs[i] = frontier.MergeInput{
			Table:      j.Table,
			PowerScale: float64(j.pipelines()),
			LossWeight: j.weight() / ft,
			Start:      fi,
		}
	}
	startPower, steps := frontier.Merge(inputs)

	cur := append([]int(nil), floors...)
	power := startPower
	if capW > 0 && power > capW {
		// Per-job stacks of taken steps, for the prune pass.
		type taken struct{ dp, loss float64 }
		stacks := make([][]taken, len(jobs))
		k := 0
		for ; k < len(steps) && power > capW; k++ {
			st := steps[k]
			dp := power - st.Power
			power = st.Power
			cur[st.Table] = st.Point
			stacks[st.Table] = append(stacks[st.Table], taken{dp: dp, loss: st.Loss})
		}
		if power > capW {
			alloc.Feasible = false
		} else {
			// Prune: the last step may save more power than the cap
			// still needed, leaving earlier steps redundant. Undo the
			// costliest undoable step until none fits under the cap.
			// Only each job's most recent step is undoable, preserving
			// the per-job prefix structure.
			for {
				best, bestLoss := -1, 0.0
				for i := range stacks {
					n := len(stacks[i])
					if n == 0 {
						continue
					}
					top := stacks[i][n-1]
					if power+top.dp <= capW && top.loss > bestLoss {
						best, bestLoss = i, top.loss
					}
				}
				if best < 0 {
					break
				}
				n := len(stacks[best])
				power += stacks[best][n-1].dp
				stacks[best] = stacks[best][:n-1]
				cur[best]--
			}
		}
	}

	alloc.PowerW = power
	for i := range jobs {
		j := &jobs[i]
		pt := j.Table.Points[cur[i]]
		t := j.Table.PointTime(cur[i])
		ja := JobAlloc{
			ID:        j.ID,
			Point:     cur[i],
			Time:      t,
			Energy:    pt.Energy,
			PowerW:    float64(j.pipelines()) * j.Table.AvgPower(cur[i]),
			FloorTime: floorTimes[i],
			Loss:      j.weight() * (t - floorTimes[i]) / floorTimes[i],
		}
		alloc.Loss += ja.Loss
		alloc.Jobs = append(alloc.Jobs, ja)
	}
	return alloc
}
