// Package experiments regenerates every table and figure of the paper's
// evaluation (§6, Appendices A/H): workload definitions from Tables 8-10,
// the strong-scaling emulation grid of Table 5, and drivers producing the
// same rows and series the paper reports. The drivers are shared by
// cmd/perseus-tables and the repository benchmarks.
package experiments

import (
	"fmt"
	"math"

	"perseus/internal/cluster"
	"perseus/internal/dag"
	"perseus/internal/frontier"
	"perseus/internal/gpu"
	"perseus/internal/model"
	"perseus/internal/partition"
	"perseus/internal/profile"
	"perseus/internal/sched"
)

// WorkloadConfig is one evaluation workload (paper Tables 8-10).
type WorkloadConfig struct {
	// Display is the paper's name for the workload, e.g. "GPT-3 1.3B".
	Display string

	// Model is the model-zoo variant name.
	Model string

	// Stages is the pipeline-parallel degree.
	Stages int

	// MicrobatchSize and Microbatches follow the paper's tables; the
	// global batch size is their product times DataParallel.
	MicrobatchSize, Microbatches int

	// DataParallel and TensorParallel degrees (1 unless 3D parallelism).
	DataParallel, TensorParallel int

	// Schedule names the pipeline schedule; default "1f1b".
	Schedule string

	// Chunks is the number of model chunks per stage for interleaved
	// schedules; 0 means 1.
	Chunks int
}

// A100Workloads returns the four-stage pipeline workloads run on A100
// PCIe GPUs (paper Table 10).
func A100Workloads() []WorkloadConfig {
	return []WorkloadConfig{
		{Display: "GPT-3 1.3B", Model: "gpt3-1.3b", Stages: 4, MicrobatchSize: 4, Microbatches: 128},
		{Display: "BERT 1.3B", Model: "bert-1.3b", Stages: 4, MicrobatchSize: 8, Microbatches: 32},
		{Display: "T5 3B", Model: "t5-3b", Stages: 4, MicrobatchSize: 4, Microbatches: 32},
		{Display: "Bloom 3B", Model: "bloom-3b", Stages: 4, MicrobatchSize: 4, Microbatches: 128},
		{Display: "Wide-ResNet 1.5B", Model: "wide-resnet101", Stages: 4, MicrobatchSize: 64, Microbatches: 24},
	}
}

// A40Workloads returns the eight-stage pipeline workloads run on A40 GPUs
// (paper Table 9).
func A40Workloads() []WorkloadConfig {
	return []WorkloadConfig{
		{Display: "GPT-3 2.7B", Model: "gpt3-2.7b", Stages: 8, MicrobatchSize: 4, Microbatches: 256},
		{Display: "BERT 1.3B", Model: "bert-1.3b", Stages: 8, MicrobatchSize: 8, Microbatches: 32},
		{Display: "T5 3B", Model: "t5-3b", Stages: 8, MicrobatchSize: 4, Microbatches: 32},
		{Display: "Bloom 3B", Model: "bloom-3b", Stages: 8, MicrobatchSize: 4, Microbatches: 128},
		{Display: "Wide-ResNet 1.5B", Model: "wide-resnet101", Stages: 8, MicrobatchSize: 32, Microbatches: 48},
	}
}

// ThreeDWorkload returns the 3D-parallelism workload (paper Table 8):
// GPT-3 6.7B with data-parallel 2, tensor-parallel 2, pipeline-parallel 4
// on A40s.
func ThreeDWorkload() WorkloadConfig {
	return WorkloadConfig{
		Display: "GPT-3 6.7B (DP2 TP2 PP4)", Model: "gpt3-6.7b",
		Stages: 4, MicrobatchSize: 4, Microbatches: 128,
		DataParallel: 2, TensorParallel: 2,
	}
}

// Scale trades experiment fidelity for runtime.
type Scale struct {
	// MaxMicrobatches caps the per-pipeline microbatch count (0 = paper
	// value). Intrinsic savings depend on the warm-up/steady-state ratio
	// (paper §6.3), so capping changes absolute numbers slightly while
	// preserving ordering and shape.
	MaxMicrobatches int

	// TargetSteps controls the optimizer's unit time τ: τ is chosen so
	// the frontier has about this many points (at least the paper's
	// 1 ms). 0 means 1500.
	TargetSteps int
}

// Full runs experiments at the paper's parameters.
var Full = Scale{}

// Quick is the reduced fidelity used by tests and benchmarks.
var Quick = Scale{MaxMicrobatches: 12, TargetSteps: 300}

func (sc Scale) microbatches(m int) int {
	if sc.MaxMicrobatches > 0 && m > sc.MaxMicrobatches {
		return sc.MaxMicrobatches
	}
	return m
}

func (sc Scale) targetSteps() int {
	if sc.TargetSteps <= 0 {
		return 1500
	}
	return sc.TargetSteps
}

// System bundles one workload's runnable state: the cluster spec, the
// computation DAG, and the characterized time-energy frontier.
type System struct {
	Config   WorkloadConfig
	GPU      *gpu.Model
	Spec     cluster.Spec
	Frontier *frontier.Frontier

	// Base is the all-max-frequency simulation without stragglers: the
	// default mode of operation every savings number is relative to.
	Base cluster.Result
}

// BuildSystem assembles and characterizes a workload on a GPU model.
func BuildSystem(cfg WorkloadConfig, g *gpu.Model, sc Scale) (*System, error) {
	m, err := model.ByName(cfg.Model)
	if err != nil {
		return nil, err
	}
	schedName := cfg.Schedule
	if schedName == "" {
		schedName = "1f1b"
	}
	chunks := cfg.Chunks
	if chunks == 0 {
		chunks = 1
	}
	part, err := partition.MinImbalance(m.LayerCosts(), cfg.Stages*chunks)
	if err != nil {
		return nil, err
	}
	tp := cfg.TensorParallel
	if tp == 0 {
		tp = 1
	}
	prof, err := profile.FromWorkload(profile.Workload{
		Model: m, GPU: g, Stages: cfg.Stages, Chunks: chunks,
		Partition: part.Boundaries, MicrobatchSize: cfg.MicrobatchSize,
		TensorParallel: tp,
	})
	if err != nil {
		return nil, err
	}
	micro := sc.microbatches(cfg.Microbatches)
	s, err := sched.ByName(schedName, cfg.Stages, micro, chunks)
	if err != nil {
		return nil, err
	}
	spec := cluster.Spec{
		Schedule:       s,
		Profile:        prof,
		DataParallel:   cfg.DataParallel,
		TensorParallel: tp,
	}

	unit := autoUnit(s, prof, sc.targetSteps())
	// Initial durations are placeholders; Characterize resets every
	// computation to its minimum-energy duration (Algorithm 1 line 1).
	graph, err := dag.Build(s, func(op sched.Op) int64 { return 1 })
	if err != nil {
		return nil, err
	}
	f, err := frontier.Characterize(graph, prof, frontier.Options{Unit: unit})
	if err != nil {
		return nil, err
	}
	base, err := cluster.Simulate(spec, cluster.PlanAllMax(s, g), nil)
	if err != nil {
		return nil, err
	}
	return &System{Config: cfg, GPU: g, Spec: spec, Frontier: f, Base: base}, nil
}

// autoUnit picks τ so the frontier spans roughly targetSteps points,
// never finer than the paper's 1 ms.
func autoUnit(s *sched.Schedule, prof *profile.Profile, targetSteps int) float64 {
	span := func(slow bool) float64 {
		g, err := dag.Build(s, func(op sched.Op) int64 { return 1 })
		if err != nil {
			return 0
		}
		est := make([]float64, len(g.Dur))
		for _, v := range g.Topo() {
			var dv float64
			if int(v) < len(g.Ops) {
				tp, err := prof.For(g.Ops[v])
				if err == nil {
					if slow {
						dv = tp.MaxTime()
					} else {
						dv = tp.MinTime()
					}
				}
			}
			for _, w := range g.Succ[v] {
				if t := est[v] + dv; t > est[w] {
					est[w] = t
				}
			}
		}
		return est[g.Sink]
	}
	delta := span(true) - span(false)
	unit := delta / float64(targetSteps)
	// Quantization must stay fine relative to individual computations,
	// or rounding planned durations dominates the schedule: cap τ at an
	// eighth of the fastest computation.
	minComp := math.Inf(1)
	for _, tp := range prof.Types {
		if t := tp.MinTime(); t < minComp {
			minComp = t
		}
	}
	if cap := minComp / 8; unit > cap {
		unit = cap
	}
	if unit < 1e-3 {
		unit = 1e-3
	}
	return unit
}

// PerseusPlan returns the frequency plan for an anticipated straggler
// iteration time tPrime (Eq. 2: T_opt = min(T*, T')); pass the frontier's
// Tmin (or 0) for the no-straggler schedule.
func (sys *System) PerseusPlan(tPrime float64) cluster.Plan {
	if tPrime <= 0 {
		tPrime = sys.Frontier.Tmin()
	}
	return cluster.Plan(sys.Frontier.Lookup(tPrime).Plan())
}

// SimulatePlan runs the workload under one shared plan without stragglers.
func (sys *System) SimulatePlan(plan cluster.Plan) (cluster.Result, error) {
	return cluster.Simulate(sys.Spec, plan, nil)
}

// MinEnergyPlan returns the plan where every computation runs at its
// minimum-energy frequency: the upper bound for savings (paper §2.4).
func (sys *System) MinEnergyPlan() (cluster.Plan, error) {
	plan := make(cluster.Plan, len(sys.Spec.Schedule.Ops))
	for i, op := range sys.Spec.Schedule.Ops {
		if op.Kind == sched.Constant {
			continue
		}
		tp, err := sys.Spec.Profile.For(op)
		if err != nil {
			return nil, err
		}
		plan[i] = tp.Points[len(tp.Points)-1].Freq
	}
	return plan, nil
}

func pct(x float64) string { return fmt.Sprintf("%.1f", 100*x) }
