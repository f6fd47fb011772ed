// Package perseus is a Go implementation of Perseus ("Reducing Energy
// Bloat in Large Model Training", SOSP 2024): a software-only energy
// optimization system for large model training that removes intrinsic
// energy bloat (non-critical computations in an imbalanced pipeline
// running needlessly fast) and extrinsic energy bloat (whole pipelines
// running needlessly fast while a straggler holds up gradient sync).
//
// The package characterizes a training job's complete iteration
// time-energy Pareto frontier with an efficient graph cut-based algorithm
// and serves, for any anticipated straggler iteration time T', the energy
// schedule for T_opt = min(T*, T').
//
// Because this repository targets environments without GPUs, every
// hardware dependency is substituted with a calibrated simulation (see
// DESIGN.md): an analytical DVFS GPU model, a deterministic
// pipeline-cluster simulator, and an analytic model zoo. The optimization
// system itself — profiles, frontier characterization, server, client —
// is implemented as in the paper.
//
// Quick start:
//
//	sys, err := perseus.Characterize(perseus.Workload{
//		Model: "gpt3-1.3b", GPU: "A100-PCIe",
//		Stages: 4, MicrobatchSize: 4, Microbatches: 32,
//	})
//	...
//	plan := sys.PlanFor(0)            // remove intrinsic bloat
//	res, err := sys.Simulate(plan, nil)
package perseus

import (
	"fmt"
	"io"
	"net/http"

	"perseus/internal/baselines"
	"perseus/internal/cluster"
	"perseus/internal/experiments"
	"perseus/internal/frontier"
	"perseus/internal/gpu"
	"perseus/internal/model"
	"perseus/internal/server"
	"perseus/internal/viz"
)

// Workload describes a training job to optimize.
type Workload struct {
	// Model is a model-zoo variant name; see ModelNames.
	Model string

	// GPU is a GPU preset name; see GPUNames.
	GPU string

	// Stages is the pipeline-parallel degree.
	Stages int

	// MicrobatchSize and Microbatches define the per-pipeline batch.
	MicrobatchSize, Microbatches int

	// DataParallel and TensorParallel degrees; 0 means 1.
	DataParallel, TensorParallel int

	// Schedule is the pipeline schedule name ("1f1b", "gpipe",
	// "interleaved-1f1b", "early-recompute-1f1b"); empty means 1F1B.
	Schedule string

	// Chunks is the number of model chunks per stage for interleaved
	// 1F1B (paper §4.4); 0 means 1.
	Chunks int

	// TargetSteps tunes the optimizer's unit time so the frontier has
	// about this many schedules; 0 means 1500.
	TargetSteps int
}

// System is a characterized workload: its frontier and simulator.
type System struct {
	sys *experiments.System
}

// Plan assigns a locked SM frequency (MHz) to every pipeline instruction.
type Plan = cluster.Plan

// Straggler marks one data-parallel pipeline as slowed by Factor.
type Straggler = cluster.Straggler

// Result is one simulated training iteration's time and energy.
type Result = cluster.Result

// FrontierPoint is one energy schedule on the time-energy frontier.
type FrontierPoint struct {
	// Time is the planned iteration time in seconds.
	Time float64
	// Energy is the schedule's computation energy in joules (adjusted
	// for blocking power, paper Eq. 4).
	Energy float64
}

// Characterize profiles the workload and characterizes its time-energy
// frontier (paper Algorithm 1).
func Characterize(w Workload) (*System, error) {
	g, err := gpu.ByName(w.GPU)
	if err != nil {
		return nil, err
	}
	cfg := experiments.WorkloadConfig{
		Display:        w.Model,
		Model:          w.Model,
		Stages:         w.Stages,
		MicrobatchSize: w.MicrobatchSize,
		Microbatches:   w.Microbatches,
		DataParallel:   w.DataParallel,
		TensorParallel: w.TensorParallel,
		Schedule:       w.Schedule,
		Chunks:         w.Chunks,
	}
	sys, err := experiments.BuildSystem(cfg, g, experiments.Scale{TargetSteps: w.TargetSteps})
	if err != nil {
		return nil, err
	}
	return &System{sys: sys}, nil
}

// Tmin returns the fastest iteration time on the frontier in seconds: the
// iteration time of running every computation at maximum speed.
func (s *System) Tmin() float64 { return s.sys.Frontier.Tmin() }

// TStar returns the minimum-energy iteration time in seconds; slowing
// beyond it increases energy (paper §3.1).
func (s *System) TStar() float64 { return s.sys.Frontier.TStar() }

// Frontier returns the characterized frontier points by increasing time:
// the Pareto set, each point strictly cheaper than every faster one, which
// PlanFor and the saved lookup table choose from.
func (s *System) Frontier() []FrontierPoint {
	pts := s.sys.Frontier.Points()
	out := make([]FrontierPoint, len(pts))
	for i, p := range pts {
		out[i] = FrontierPoint{Time: p.Time, Energy: p.Energy}
	}
	return out
}

// PlanFor returns the energy schedule for an anticipated straggler
// iteration time tPrime, applying T_opt = min(T*, T') (paper Eq. 2).
// tPrime <= 0 returns the no-straggler schedule at Tmin, which removes
// intrinsic bloat only.
func (s *System) PlanFor(tPrime float64) Plan { return s.sys.PerseusPlan(tPrime) }

// MaxFrequencyPlan returns the default mode of operation: every
// computation at maximum frequency.
func (s *System) MaxFrequencyPlan() Plan {
	return cluster.PlanAllMax(s.sys.Spec.Schedule, s.sys.GPU)
}

// MinEnergyPlan returns the §2.4 upper-bound plan: every computation at
// its minimum-energy frequency, regardless of slowdown.
func (s *System) MinEnergyPlan() (Plan, error) { return s.sys.MinEnergyPlan() }

// EnvPipePlan returns the EnvPipe baseline's plan (paper §6.2).
func (s *System) EnvPipePlan() (Plan, error) { return baselines.EnvPipe(s.sys.Spec) }

// BaselineFrontier returns a Zeus-derived baseline's time-energy sweep:
// name is "zeus-global" or "zeus-per-stage" (paper §6.4).
func (s *System) BaselineFrontier(name string) ([]FrontierPoint, error) {
	var pts []baselines.PlanPoint
	var err error
	switch name {
	case "zeus-global":
		pts, err = baselines.ZeusGlobal(s.sys.Spec)
	case "zeus-per-stage":
		pts, err = baselines.ZeusPerStage(s.sys.Spec)
	default:
		return nil, fmt.Errorf("perseus: unknown baseline %q", name)
	}
	if err != nil {
		return nil, err
	}
	out := make([]FrontierPoint, len(pts))
	for i, p := range pts {
		out[i] = FrontierPoint{Time: p.Time, Energy: p.Energy}
	}
	return out, nil
}

// Simulate runs one training iteration with every pipeline on the same
// plan, under the given stragglers, and returns time and energy.
func (s *System) Simulate(plan Plan, stragglers []Straggler) (Result, error) {
	return cluster.Simulate(s.sys.Spec, plan, stragglers)
}

// SimulatePerPipeline runs one iteration with per-pipeline plans — how
// Perseus deploys schedules when a straggler is present.
func (s *System) SimulatePerPipeline(planFor func(pipeline int) Plan, stragglers []Straggler) (Result, error) {
	return cluster.SimulateMulti(s.sys.Spec, planFor, stragglers)
}

// Baseline returns the all-max-frequency iteration result without
// stragglers.
func (s *System) Baseline() Result { return s.sys.Base }

// Savings returns the energy saving fraction of a result against the
// all-max baseline, plus the iteration slowdown fraction.
func (s *System) Savings(r Result) (saving, slowdown float64) {
	return 1 - r.Energy/s.sys.Base.Energy, r.IterTime/s.sys.Base.IterTime - 1
}

// RenderTimeline writes the pipeline execution timeline under the plan
// (paper Figures 1/10) as ASCII art.
func (s *System) RenderTimeline(w io.Writer, plan Plan, width int) error {
	spans, err := cluster.Timeline(s.sys.Spec, plan)
	if err != nil {
		return err
	}
	return viz.Timeline(w, spans, width)
}

// SaveLookupTable writes the characterized energy-schedule lookup table
// (paper §3.2's server-side cache) as a binary PLT1 body, loadable with
// frontier.LoadTable.
func (s *System) SaveLookupTable(w io.Writer) error {
	return s.sys.Frontier.Table().Save(w)
}

// LookupPoint exposes the frontier's raw lookup for advanced callers.
func (s *System) LookupPoint(tPrime float64) frontier.Point {
	return s.sys.Frontier.Lookup(tPrime)
}

// ModelNames lists the model zoo variants (paper Table 1).
func ModelNames() []string { return model.Names() }

// GPUNames lists the GPU presets.
func GPUNames() []string {
	return []string{gpu.A100PCIe.Name, gpu.A100SXM.Name, gpu.A40.Name, gpu.H100SXM.Name}
}

// NewServerHandler returns an http.Handler serving the Perseus server API
// (paper §3.2): job registration, profile upload, schedule lookup, and
// set_straggler.
func NewServerHandler() http.Handler { return server.New().Handler() }
