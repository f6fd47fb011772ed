// Package cluster simulates the execution of one training iteration on a
// cluster of GPUs: data-parallel pipeline replicas running a pipeline
// schedule under a frequency plan, with gradient synchronization at the
// end of the iteration and optional straggler pipelines.
//
// It substitutes for the Merak training framework + real GPU testbed of
// paper §5-6. The simulator is deterministic and exact with respect to the
// model of Eq. 3: total energy is computation energy plus P_blocking times
// all non-computing GPU time, including both intra-pipeline communication
// gaps and the tail wait for the straggler pipeline to finish gradient
// sync.
package cluster

import (
	"fmt"
	"math"

	"perseus/internal/dag"
	"perseus/internal/gpu"
	"perseus/internal/profile"
	"perseus/internal/sched"
)

// Spec describes one data-parallel training job.
type Spec struct {
	// Schedule is the per-pipeline instruction schedule.
	Schedule *sched.Schedule

	// Profile provides per-computation time/energy at each frequency.
	Profile *profile.Profile

	// DataParallel is the number of pipeline replicas (paper §2.1); all
	// replicas run the same schedule and synchronize gradients at the
	// end of the iteration. Default 1.
	DataParallel int

	// TensorParallel is the number of GPUs per virtual stage performing
	// identical split work (paper §4.4). Per-GPU computation times in
	// Profile already reflect the split; this multiplies energy
	// accounting. Default 1.
	TensorParallel int
}

func (s Spec) dp() int {
	if s.DataParallel <= 0 {
		return 1
	}
	return s.DataParallel
}

func (s Spec) tp() int {
	if s.TensorParallel <= 0 {
		return 1
	}
	return s.TensorParallel
}

// GPUs returns the total number of GPUs the job occupies.
func (s Spec) GPUs() int { return s.dp() * s.tp() * s.Schedule.Stages }

// Plan assigns a frequency to every schedule op (indexed by op id).
// Frequency 0 denotes a constant-time op. PlanAllMax returns the default
// mode of operation: everything at maximum frequency.
type Plan []gpu.Frequency

// PlanAllMax builds the all-maximum-frequency plan for a spec.
func PlanAllMax(s *sched.Schedule, g *gpu.Model) Plan {
	plan := make(Plan, len(s.Ops))
	for i, op := range s.Ops {
		if op.Kind == sched.Constant {
			continue
		}
		plan[i] = g.FMax
	}
	return plan
}

// Straggler marks one pipeline replica as slowed by Factor: every
// computation on it takes Factor times longer (e.g. thermal or power
// throttling, paper §2.3).
type Straggler struct {
	Pipeline int
	Factor   float64
}

// PipelineResult is the outcome of one pipeline replica.
type PipelineResult struct {
	// Time is the pipeline's own makespan (before waiting for sync).
	Time float64

	// ComputeJ is computation energy over the pipeline's GPUs.
	ComputeJ float64

	// BlockJ is blocking energy (gaps + tail sync wait) over the
	// pipeline's GPUs, up to the global iteration end.
	BlockJ float64
}

// Result is the outcome of one training iteration.
type Result struct {
	// IterTime is the end-to-end iteration time: the slowest pipeline's
	// makespan (every pipeline must wait for gradient sync, §2.1).
	IterTime float64

	// Energy is the total energy over all GPUs: ComputeJ + BlockJ.
	Energy float64

	// ComputeJ and BlockJ decompose Energy per Eq. 3.
	ComputeJ, BlockJ float64

	// AvgPowerW is the cluster's average power draw: Energy divided by
	// iteration time and GPU count. Because Perseus saves energy without
	// slowdown, it reduces average power draw by the same fraction — the
	// paper's datacenter power-delivery motivation (§1).
	AvgPowerW float64

	// PerPipeline holds each replica's breakdown.
	PerPipeline []PipelineResult
}

// TotalPowerW returns the whole cluster's average power draw over the
// iteration — Energy over iteration time, summed across every
// pipeline's GPUs (unlike AvgPowerW, which is per GPU). This is the
// rate segment-level accounting integrates: energy, carbon, and cost
// over a constant-state interval are TotalPowerW × duration × rate.
func (r *Result) TotalPowerW() float64 {
	if r.IterTime <= 0 {
		return 0
	}
	return r.Energy / r.IterTime
}

// OpSpan is one computation's realized execution interval, for timeline
// rendering (paper Figures 1 and 10).
type OpSpan struct {
	Op    sched.Op
	Start float64
	Dur   float64
	Freq  gpu.Frequency
	Power float64
}

// engine precomputes the schedule topology for repeated simulations.
type engine struct {
	spec Spec
	g    *dag.Graph
}

func newEngine(spec Spec) (*engine, error) {
	if spec.Schedule == nil || spec.Profile == nil {
		return nil, fmt.Errorf("cluster: spec needs schedule and profile")
	}
	g, err := dag.Build(spec.Schedule, func(op sched.Op) int64 { return 1 })
	if err != nil {
		return nil, err
	}
	return &engine{spec: spec, g: g}, nil
}

// realize returns each op's realized duration and raw energy under the
// plan, scaled by the straggler factor.
func (e *engine) realize(plan Plan, factor float64) (durs, energy []float64, err error) {
	ops := e.g.Ops
	durs = make([]float64, len(ops))
	energy = make([]float64, len(ops))
	for i, op := range ops {
		tp, err := e.spec.Profile.For(op)
		if err != nil {
			return nil, nil, err
		}
		var pt gpu.Point
		var raw float64
		if tp.Constant || plan[i] == 0 {
			pt, raw = tp.Points[0], tp.Raw[0]
		} else {
			found := false
			for j := range tp.Points {
				if tp.Points[j].Freq == plan[i] {
					pt, raw = tp.Points[j], tp.Raw[j]
					found = true
					break
				}
			}
			if !found {
				return nil, nil, fmt.Errorf("cluster: op %d plan frequency %d not in profile for %v", i, plan[i], op)
			}
		}
		// A throttled straggler runs longer; we model its computation
		// power as unchanged, so energy scales with the factor.
		durs[i] = pt.Time * factor
		energy[i] = raw * factor
	}
	return durs, energy, nil
}

// startsOf computes earliest start times under float durations.
func (e *engine) startsOf(durs []float64) ([]float64, float64) {
	g := e.g
	est := make([]float64, len(g.Dur))
	for _, v := range g.Topo() {
		var dv float64
		if int(v) < len(durs) {
			dv = durs[v]
		}
		for _, w := range g.Succ[v] {
			if t := est[v] + dv; t > est[w] {
				est[w] = t
			}
		}
	}
	return est, est[g.Sink]
}

// Simulate runs one training iteration with every pipeline executing the
// same frequency plan and returns its timing and energy.
func Simulate(spec Spec, plan Plan, stragglers []Straggler) (Result, error) {
	return SimulateMulti(spec, func(int) Plan { return plan }, stragglers)
}

// SimulateMulti runs one training iteration with a per-pipeline frequency
// plan: planFor(p) returns pipeline p's plan. This is how Perseus deploys
// energy schedules — the straggler keeps its own pace while non-straggler
// pipelines receive the T_opt schedule (paper §3.2 step 5).
func SimulateMulti(spec Spec, planFor func(pipeline int) Plan, stragglers []Straggler) (Result, error) {
	e, err := newEngine(spec)
	if err != nil {
		return Result{}, err
	}
	factors := make([]float64, spec.dp())
	for i := range factors {
		factors[i] = 1
	}
	for _, st := range stragglers {
		if st.Pipeline < 0 || st.Pipeline >= spec.dp() {
			return Result{}, fmt.Errorf("cluster: straggler pipeline %d out of range [0,%d)", st.Pipeline, spec.dp())
		}
		if st.Factor < 1 {
			return Result{}, fmt.Errorf("cluster: straggler factor %v < 1", st.Factor)
		}
		factors[st.Pipeline] = st.Factor
	}

	type pipeState struct {
		time float64
		comp float64   // compute energy (one GPU per stage)
		busy []float64 // per physical stage busy seconds
	}
	states := make([]pipeState, spec.dp())
	for pi := range states {
		plan := planFor(pi)
		if len(plan) != len(spec.Schedule.Ops) {
			return Result{}, fmt.Errorf("cluster: pipeline %d plan has %d entries for %d ops",
				pi, len(plan), len(spec.Schedule.Ops))
		}
		durs, energies, err := e.realize(plan, factors[pi])
		if err != nil {
			return Result{}, err
		}
		_, mk := e.startsOf(durs)
		ps := pipeState{time: mk, busy: make([]float64, spec.Schedule.Stages)}
		for i, op := range e.g.Ops {
			ps.comp += energies[i]
			ps.busy[op.Stage] += durs[i]
		}
		states[pi] = ps
	}

	var res Result
	for _, ps := range states {
		if ps.time > res.IterTime {
			res.IterTime = ps.time
		}
	}
	pb := spec.Profile.PBlocking
	tp := float64(spec.tp())
	for _, ps := range states {
		pr := PipelineResult{Time: ps.time, ComputeJ: ps.comp * tp}
		for _, busy := range ps.busy {
			idle := res.IterTime - busy
			if idle < -1e-9 {
				return Result{}, fmt.Errorf("cluster: stage busy %v exceeds iteration time %v", busy, res.IterTime)
			}
			pr.BlockJ += math.Max(idle, 0) * pb * tp
		}
		res.PerPipeline = append(res.PerPipeline, pr)
		res.ComputeJ += pr.ComputeJ
		res.BlockJ += pr.BlockJ
	}
	res.Energy = res.ComputeJ + res.BlockJ
	if res.IterTime > 0 {
		res.AvgPowerW = res.Energy / res.IterTime / float64(spec.GPUs())
	}
	return res, nil
}

// Timeline returns the realized execution spans of one (non-straggler)
// pipeline under the plan, for visualization.
func Timeline(spec Spec, plan Plan) ([]OpSpan, error) {
	e, err := newEngine(spec)
	if err != nil {
		return nil, err
	}
	if len(plan) != len(spec.Schedule.Ops) {
		return nil, fmt.Errorf("cluster: plan has %d entries for %d ops", len(plan), len(spec.Schedule.Ops))
	}
	durs, energies, err := e.realize(plan, 1)
	if err != nil {
		return nil, err
	}
	starts, _ := e.startsOf(durs)
	spans := make([]OpSpan, len(e.g.Ops))
	for i, op := range e.g.Ops {
		power := 0.0
		if durs[i] > 0 {
			power = energies[i] / durs[i]
		}
		spans[i] = OpSpan{Op: op, Start: starts[i], Dur: durs[i], Freq: plan[i], Power: power}
	}
	return spans, nil
}
