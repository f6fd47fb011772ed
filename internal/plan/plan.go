// Package plan owns the vocabulary the planning layers share — the grid
// temporal planner, the multi-region spatio-temporal planner, the
// forecast-driven MPC controllers and the fleet power-cap allocator —
// so they cannot drift apart on it: the planning objective, the
// request validation and deadline-resolution rules (Request), the
// energy/carbon/cost accounting every result embeds (Account,
// Predicted), and the energy-bloat decomposition (bloat.go). Callers
// call each layer's own entry point directly.
//
// plan is a leaf package: it imports nothing from the planning layers,
// and they all import it.
package plan

import (
	"fmt"
	"math"
)

// Objective selects what a plan minimizes. It was historically declared
// by the grid package; grid.Objective is now an alias of this type, so
// every layer shares one vocabulary.
type Objective string

const (
	// ObjectiveCarbon minimizes total gCO₂ emitted.
	ObjectiveCarbon Objective = "carbon"

	// ObjectiveCost minimizes total electricity cost in $.
	ObjectiveCost Objective = "cost"

	// ObjectiveEnergy minimizes total energy in joules, ignoring the
	// signal's rates (useful as a signal-blind control).
	ObjectiveEnergy Objective = "energy"
)

// ParseObjective maps a string to an Objective ("" means carbon).
func ParseObjective(s string) (Objective, error) {
	switch Objective(s) {
	case "":
		return ObjectiveCarbon, nil
	case ObjectiveCarbon, ObjectiveCost, ObjectiveEnergy:
		return Objective(s), nil
	}
	return "", fmt.Errorf("plan: unknown objective %q (want carbon, cost, or energy)", s)
}

// Request is a planner-agnostic planning request. Not every planner
// consumes every field — the grid planner ignores Quantile — but the
// validation and defaulting rules are shared, so the layers cannot
// drift apart on what "deadline 0" or "quantile 0" means.
type Request struct {
	// Target is the number of iterations to complete; must be positive
	// for planners that consume it.
	Target float64 `json:"target_iterations,omitempty"`

	// DeadlineS is the completion deadline in signal seconds; 0 means
	// the planning horizon (resolved by ResolveDeadline).
	DeadlineS float64 `json:"deadline_s,omitempty"`

	// Objective selects what to minimize; "" means carbon.
	Objective Objective `json:"objective,omitempty"`

	// PowerScale multiplies a job's per-point average power (e.g.
	// data-parallel pipeline replicas); <= 0 means 1.
	PowerScale float64 `json:"power_scale,omitempty"`

	// Quantile is the forecast quantile a forecast-driven planner sees:
	// 0 or 0.5 plans on the point forecast, higher values plan robustly
	// against the pessimistic band. Must be in [0, 1).
	Quantile float64 `json:"quantile,omitempty"`
}

// Validate checks the request invariants shared by every layer: a
// positive finite target, a non-negative non-NaN deadline, a known
// objective, and a quantile in [0, 1).
func (r Request) Validate() error {
	if !(r.Target > 0) || math.IsInf(r.Target, 0) {
		return fmt.Errorf("plan: target iterations must be positive and finite, got %v", r.Target)
	}
	if math.IsNaN(r.DeadlineS) || math.IsInf(r.DeadlineS, 0) || r.DeadlineS < 0 {
		return fmt.Errorf("plan: deadline must be finite and non-negative, got %v", r.DeadlineS)
	}
	if _, err := ParseObjective(string(r.Objective)); err != nil {
		return err
	}
	if math.IsNaN(r.Quantile) || r.Quantile < 0 || r.Quantile >= 1 {
		return fmt.Errorf("plan: quantile must be in [0, 1), got %v", r.Quantile)
	}
	return nil
}

// ResolveDeadline applies the shared deadline rule: 0 means the
// planning horizon, and the deadline may not exceed it (beyond a small
// tolerance for float accumulation in horizon arithmetic).
func (r Request) ResolveDeadline(horizonS float64) (float64, error) {
	d := r.DeadlineS
	if math.IsNaN(d) || d < 0 {
		return 0, fmt.Errorf("plan: deadline must be non-negative, got %v", d)
	}
	if d == 0 {
		d = horizonS
	}
	if d > horizonS+1e-9 {
		return 0, fmt.Errorf("plan: deadline %v beyond planning horizon %v", d, horizonS)
	}
	return d, nil
}

// Scale resolves PowerScale's default: values <= 0 mean 1.
func (r Request) Scale() float64 {
	if r.PowerScale <= 0 {
		return 1
	}
	return r.PowerScale
}

// PlanQuantile resolves Quantile's default: 0 means the point forecast
// (the 0.5 quantile).
func (r Request) PlanQuantile() float64 {
	if r.Quantile == 0 {
		return 0.5
	}
	return r.Quantile
}

// Account is the realized (or planned) accounting every layer totals:
// energy consumed, carbon emitted, money spent. Result types embed it
// so the JSON field names stay identical across layers.
type Account struct {
	EnergyJ float64 `json:"energy_j"`
	CarbonG float64 `json:"carbon_g"`
	CostUSD float64 `json:"cost_usd"`
}

// Accumulate adds b into a.
func (a *Account) Accumulate(b Account) {
	a.EnergyJ += b.EnergyJ
	a.CarbonG += b.CarbonG
	a.CostUSD += b.CostUSD
}

// Total reads the component matching the objective.
func (a Account) Total(obj Objective) float64 {
	switch obj {
	case ObjectiveCost:
		return a.CostUSD
	case ObjectiveEnergy:
		return a.EnergyJ
	default:
		return a.CarbonG
	}
}

// Predicted is the forecast-side twin of Account: what the forecasts
// in force at planning time predicted the same execution would emit
// and cost. The gap between Predicted and Account is reconciliation
// drift.
type Predicted struct {
	PredCarbonG float64 `json:"pred_carbon_g"`
	PredCostUSD float64 `json:"pred_cost_usd"`
}

// Accumulate adds b into p.
func (p *Predicted) Accumulate(b Predicted) {
	p.PredCarbonG += b.PredCarbonG
	p.PredCostUSD += b.PredCostUSD
}
