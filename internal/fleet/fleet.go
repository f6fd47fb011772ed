// Package fleet is the datacenter-scale layer above per-job Perseus: a
// multi-job energy orchestrator that trades iteration time across N
// concurrent training jobs under a shared facility power envelope.
//
// Perseus (the rest of this repository) characterizes one job's
// iteration time-energy Pareto frontier and serves the schedule for
// T_opt = min(T*, T') — removing that job's intrinsic and extrinsic
// bloat. Real clusters run many jobs at once, and the highest-leverage
// datacenter knob is a fleet power cap: once every job exposes its
// frontier, a global allocator can pick each job's operating point so
// the fleet meets the cap at minimum total throughput loss. This
// generalizes extrinsic bloat from one pipeline held up by a straggler
// to a whole datacenter held down by a power envelope.
//
// The package has two parts: a power-budget allocator (alloc.go), a
// frontier.Descend down each job's lower convex hull of (iteration
// time, average power) that is exact at every hull breakpoint on any
// table, convex or not, and certifies its gap to the optimum elsewhere
// (Allocation.LossBound); and an event-driven multi-job simulator that
// replays scenario traces of arrivals, departures, stragglers, and cap
// changes (sim.go).
package fleet

import "perseus/internal/frontier"

// Job is one training job as the allocator sees it.
type Job struct {
	// ID names the job; unique among the jobs allocated together.
	ID string

	// Table is the job's characterized time-energy frontier.
	Table *frontier.LookupTable

	// Pipelines is the number of data-parallel pipeline replicas, each
	// executing the deployed plan; it scales the job's power draw.
	// Zero means 1.
	Pipelines int

	// Weight scales the job's throughput loss in the fleet objective:
	// an allocator slows a weight-2 job half as eagerly as a weight-1
	// job for the same watts. Zero means 1.
	Weight float64

	// TPrime is the anticipated straggler iteration time in seconds;
	// 0 means no straggler. Per Perseus Eq. 2 the job gains nothing by
	// running faster than T_opt = min(T*, T'), so the allocator treats
	// T_opt as the job's free operating floor: slowing down to it costs
	// the fleet no throughput, and the power it frees can be spent on
	// other jobs.
	TPrime float64
}

func (j *Job) pipelines() int {
	if j.Pipelines <= 0 {
		return 1
	}
	return j.Pipelines
}

func (j *Job) weight() float64 {
	if j.Weight <= 0 {
		return 1
	}
	return j.Weight
}

// floorIndex returns the index of the job's operating floor: the
// T_opt = min(T*, T') point under a straggler, the Tmin point otherwise.
func (j *Job) floorIndex() int {
	if j.TPrime <= 0 {
		return 0
	}
	return j.Table.LookupIndex(j.TPrime)
}
