package fleet

import (
	"fmt"
	"sort"

	"perseus/internal/cluster"
)

// SimJob couples a fleet job with the cluster description needed to
// simulate it: the allocator plans on the job's frontier table, and the
// simulator replays each allocated plan through cluster.Simulate to
// report realized time, energy, and power (including blocking energy
// the frontier model does not carry).
type SimJob struct {
	Job

	// Spec is the job's cluster description. Spec.Schedule must be the
	// schedule the Table was characterized on (table frequency plans
	// are indexed by schedule op id).
	Spec cluster.Spec
}

// EventKind enumerates scenario trace events.
type EventKind int

const (
	// EventArrive registers a new job (Event.Job).
	EventArrive EventKind = iota

	// EventDepart deregisters a job (Event.JobID).
	EventDepart

	// EventStraggler sets a job's straggler state: Factor > 1 is onset
	// (the job's pipeline 0 slows by Factor), Factor <= 1 is recovery.
	EventStraggler

	// EventSetCap changes the fleet power cap to Event.CapW.
	EventSetCap
)

// String renders the kind for traces and tables.
func (k EventKind) String() string {
	switch k {
	case EventArrive:
		return "arrive"
	case EventDepart:
		return "depart"
	case EventStraggler:
		return "straggler"
	case EventSetCap:
		return "set-cap"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one scenario trace entry.
type Event struct {
	// At is the event time in seconds from replay start.
	At float64

	// Kind selects the event.
	Kind EventKind

	// Job is the arriving job (EventArrive only).
	Job *SimJob

	// JobID targets an existing job (EventDepart, EventStraggler).
	JobID string

	// Factor is the straggler slowdown degree (EventStraggler): the
	// job's pipeline 0 runs Factor times slower; <= 1 is recovery.
	Factor float64

	// CapW is the new fleet power cap in watts (EventSetCap); 0 uncaps.
	CapW float64
}

// Scenario is a replayable multi-job trace.
type Scenario struct {
	// Horizon is the replay end time in seconds.
	Horizon float64

	// CapW is the initial fleet power cap (0 = uncapped).
	CapW float64

	// Events are the trace entries; Replay sorts them by time.
	Events []Event
}

// SegmentJob is one job's state during a segment.
type SegmentJob struct {
	// ID names the job.
	ID string

	// Point and PlannedTime are the allocator's operating point.
	Point       int
	PlannedTime float64

	// AllocPowerW is the model power at the point (frontier energy over
	// time, scaled by pipelines) — what the allocator budgeted.
	AllocPowerW float64

	// IterTime is the simulated end-to-end iteration time, including
	// the straggler's drag.
	IterTime float64

	// PowerW is the simulated average power over the job's GPUs,
	// including blocking energy.
	PowerW float64

	// Iterations and EnergyJ are the job's progress and energy over the
	// segment, extrapolated from the simulated steady-state iteration.
	Iterations float64
	EnergyJ    float64

	// StragglerFactor is the active slowdown degree (1 = healthy).
	StragglerFactor float64
}

// Segment is one constant-state interval between scenario events.
type Segment struct {
	// Start and End bound the segment in seconds.
	Start, End float64

	// CapW is the cap in force (0 = uncapped); Feasible reports whether
	// the allocator met it.
	CapW     float64
	Feasible bool

	// AllocPowerW is the fleet's model power; PowerW the simulated one.
	AllocPowerW float64
	PowerW      float64

	// Jobs holds the active jobs' states in arrival order.
	Jobs []SegmentJob
}

// JobTotal accumulates one job's whole-scenario outcome.
type JobTotal struct {
	ID         string
	ActiveS    float64
	Iterations float64
	EnergyJ    float64
}

// Series is the replayed scenario: per-segment fleet state plus
// per-job and fleet totals.
type Series struct {
	Segments []Segment

	// Totals lists per-job outcomes in first-arrival order.
	Totals []JobTotal

	// EnergyJ is the fleet's total simulated energy.
	EnergyJ float64

	// PeakPowerW is the maximum simulated fleet power over segments.
	PeakPowerW float64
}

// activeJob is a registered job during a replay: its arrival, the
// allocator's view of it (the arrival's Job with the straggler's T'),
// and its straggler slowdown (1 = healthy).
type activeJob struct {
	sim    *SimJob
	job    Job
	factor float64
}

// Replay runs the event-driven multi-job simulation: it applies the
// scenario's events in time order — job arrival and departure,
// straggler onset and recovery, cap changes — re-running the
// power-budget allocator at every state change, and simulates each
// constant-state segment with cluster.Simulate at the allocated
// operating points.
func Replay(sc Scenario) (*Series, error) {
	if sc.Horizon <= 0 {
		return nil, fmt.Errorf("fleet: scenario horizon must be positive, got %v", sc.Horizon)
	}
	if err := checkCap(sc.CapW); err != nil {
		return nil, err
	}
	events := append([]Event(nil), sc.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	for _, e := range events {
		if e.At < 0 || e.At > sc.Horizon {
			return nil, fmt.Errorf("fleet: event %s at %v outside [0, %v]", e.Kind, e.At, sc.Horizon)
		}
	}

	capW := sc.CapW
	var active []*activeJob // arrival order, for deterministic allocation output
	byID := map[string]*activeJob{}
	totals := map[string]*JobTotal{}
	var order []string // first-arrival order, for stable totals
	series := &Series{}

	apply := func(e Event) error {
		switch e.Kind {
		case EventArrive:
			if e.Job == nil {
				return fmt.Errorf("fleet: arrival event at %v has no job", e.At)
			}
			id := e.Job.ID
			if id == "" {
				return fmt.Errorf("fleet: job needs an id")
			}
			if e.Job.Table == nil || len(e.Job.Table.Points) == 0 {
				return fmt.Errorf("fleet: job %s needs a characterized frontier table", id)
			}
			if _, ok := byID[id]; ok {
				return fmt.Errorf("fleet: job %s already registered", id)
			}
			a := &activeJob{sim: e.Job, job: e.Job.Job, factor: 1}
			active = append(active, a)
			byID[id] = a
			if _, ok := totals[id]; !ok {
				totals[id] = &JobTotal{ID: id}
				order = append(order, id)
			}
		case EventDepart:
			a, ok := byID[e.JobID]
			if !ok {
				return fmt.Errorf("fleet: departure of unknown job %s at %v", e.JobID, e.At)
			}
			delete(byID, e.JobID)
			for k := range active {
				if active[k] == a {
					active = append(active[:k], active[k+1:]...)
					break
				}
			}
		case EventStraggler:
			a, ok := byID[e.JobID]
			if !ok {
				return fmt.Errorf("fleet: straggler event for unknown job %s at %v", e.JobID, e.At)
			}
			if e.Factor <= 1 { // recovery
				a.factor, a.job.TPrime = 1, 0
			} else {
				a.factor, a.job.TPrime = e.Factor, a.job.Table.Tmin()*e.Factor
			}
		case EventSetCap:
			if err := checkCap(e.CapW); err != nil {
				return err
			}
			capW = e.CapW
		default:
			return fmt.Errorf("fleet: unknown event kind %d at %v", int(e.Kind), e.At)
		}
		return nil
	}

	for i, now := 0, 0.0; ; {
		for ; i < len(events) && events[i].At <= now; i++ {
			if err := apply(events[i]); err != nil {
				return nil, err
			}
		}
		if now >= sc.Horizon {
			break
		}
		next := sc.Horizon
		if i < len(events) {
			next = events[i].At
		}
		seg, err := simulateSegment(active, capW, now, next)
		if err != nil {
			return nil, err
		}
		for k := range seg.Jobs {
			sjob := &seg.Jobs[k]
			tot := totals[sjob.ID]
			tot.ActiveS += next - now
			tot.Iterations += sjob.Iterations
			tot.EnergyJ += sjob.EnergyJ
		}
		series.EnergyJ += seg.PowerW * (next - now)
		if seg.PowerW > series.PeakPowerW {
			series.PeakPowerW = seg.PowerW
		}
		series.Segments = append(series.Segments, seg)
		now = next
	}
	for _, id := range order {
		series.Totals = append(series.Totals, *totals[id])
	}
	return series, nil
}

// simulateSegment allocates the active jobs under capW and simulates
// each at its allocated point over [start, end).
func simulateSegment(active []*activeJob, capW, start, end float64) (Segment, error) {
	jobs := make([]Job, len(active))
	for k, a := range active {
		jobs[k] = a.job
	}
	alloc := Allocate(jobs, capW)
	seg := Segment{
		Start:       start,
		End:         end,
		CapW:        alloc.CapW,
		Feasible:    alloc.Feasible,
		AllocPowerW: alloc.PowerW,
	}
	for k, ja := range alloc.Jobs {
		sjob, err := simulateJob(active[k], ja, end-start)
		if err != nil {
			return Segment{}, err
		}
		seg.PowerW += sjob.PowerW
		seg.Jobs = append(seg.Jobs, sjob)
	}
	return seg, nil
}

// simulateJob simulates one allocated job's steady state over dur
// seconds.
func simulateJob(a *activeJob, ja JobAlloc, dur float64) (SegmentJob, error) {
	sj := a.sim
	plan := cluster.Plan(sj.Table.Points[ja.Point].Freqs)
	var res cluster.Result
	var err error
	if a.factor > 1 {
		// The straggler pipeline keeps the fastest plan — it is slow
		// because the hardware throttled it, not by schedule — while
		// the other replicas deploy the allocated T_opt plan (paper
		// §3.2 step 5).
		fastest := cluster.Plan(sj.Table.Points[0].Freqs)
		res, err = cluster.SimulateMulti(sj.Spec, func(p int) cluster.Plan {
			if p == 0 {
				return fastest
			}
			return plan
		}, []cluster.Straggler{{Pipeline: 0, Factor: a.factor}})
	} else {
		res, err = cluster.Simulate(sj.Spec, plan, nil)
	}
	if err != nil {
		return SegmentJob{}, fmt.Errorf("fleet: simulating job %s: %w", ja.ID, err)
	}
	powerW := res.TotalPowerW()
	return SegmentJob{
		ID:              ja.ID,
		Point:           ja.Point,
		PlannedTime:     ja.Time,
		AllocPowerW:     ja.PowerW,
		IterTime:        res.IterTime,
		PowerW:          powerW,
		Iterations:      dur / res.IterTime,
		EnergyJ:         powerW * dur,
		StragglerFactor: a.factor,
	}, nil
}
