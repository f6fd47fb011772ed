// Package api declares the wire types of the Perseus HTTP contract
// (paper §5, Table 2): every request and response body the server
// (internal/server) and its client (internal/client) exchange is
// declared here once, and both sides name it by alias. Bodies that are
// another package's type travel as that type: grid.Signal, grid.Plan,
// region.Plan, frontier.LookupTable and the obs views embedded below.
//
// Declarations only, with one codec. Two bodies are not JSON: the
// ProfileUpload travels as a binary PPF1 body, one row per computation
// type with the measured floats bit for bit (upload.go), and the
// frontier.LookupTable as a binary PLT1 body, one full plan and then
// each point's changes (frontier/wire.go). The routes these bodies
// travel on are the registration list in server.routes.
package api

import (
	"perseus/internal/forecast"
	"perseus/internal/grid"
	"perseus/internal/obs"
)

// JobRequest registers a training job: its pipeline schedule (from which
// the server reconstructs the computation DAG) and accelerator type.
type JobRequest struct {
	Schedule     string  `json:"schedule"` // "1f1b", "gpipe", ...
	Stages       int     `json:"stages"`
	Microbatches int     `json:"microbatches"`
	Chunks       int     `json:"chunks,omitempty"`
	GPU          string  `json:"gpu"`            // gpu preset name
	Unit         float64 `json:"unit,omitempty"` // optimizer τ seconds

	// DataParallel is the number of pipeline replicas; the fleet
	// allocator scales the job's power draw by it. 0 means 1; a
	// negative count is rejected at registration.
	DataParallel int `json:"data_parallel,omitempty"`

	// Weight scales the job's throughput loss in the fleet objective
	// (fleet.Job.Weight). 0 means 1; a negative or non-finite weight is
	// rejected at registration.
	Weight float64 `json:"weight,omitempty"`
}

// JobResponse returns the job handle.
type JobResponse struct {
	JobID string `json:"job_id"`
}

// MeasurementJSON is one profiler observation (client → server). The
// name is kept from when the upload was JSON; on the wire it is one entry
// of each column of its computation type's row (ProfileUpload).
type MeasurementJSON struct {
	Virtual int
	Kind    string // "forward" | "backward"
	Freq    int    // MHz
	Time    float64
	Energy  float64
}

// ProfileUpload carries a job's complete online profile. It travels as an
// application/octet-stream PPF1 body (MarshalBinary, UnmarshalBinary):
// one row per (virtual stage, kind) — the table the profiler fills — with
// that type's measurements in the order they were taken.
type ProfileUpload struct {
	PBlocking    float64
	Measurements []MeasurementJSON
}

// StragglerNotice is the set_straggler payload (paper Table 2): the
// infrastructure anticipates accelerator id becoming Degree times slower
// after Delay seconds. Degree 1 communicates a recovery.
type StragglerNotice struct {
	ID     string  `json:"id"`
	Delay  float64 `json:"delay_s"`
	Degree float64 `json:"degree"`
}

// ScheduleResponse is the energy schedule for the current T_opt.
type ScheduleResponse struct {
	Ready bool `json:"ready"`
	// Time is the planned iteration time of the deployed schedule.
	Time float64 `json:"time_s"`
	// Tmin and TStar bound the frontier.
	Tmin  float64 `json:"tmin_s"`
	TStar float64 `json:"tstar_s"`
	// Freqs is the per-op frequency plan, indexed by schedule op id.
	Freqs []int `json:"freqs_mhz"`
	// Version increments whenever the deployed schedule changes — on
	// characterization, stragglers, fleet floors, and controller
	// re-plans — so clients can poll cheaply or long-poll via
	// If-None-Match.
	Version int `json:"version"`
}

// FrontierResponse lists the characterized frontier.
type FrontierResponse struct {
	Ready  bool      `json:"ready"`
	Time   []float64 `json:"time_s"`
	Energy []float64 `json:"energy_j"`
}

// FleetCapRequest sets the facility power cap (watts); 0 uncaps.
type FleetCapRequest struct {
	CapW float64 `json:"cap_w"`
}

// JobAllocationResponse is one job's fleet allocation.
type JobAllocationResponse struct {
	JobID string `json:"job_id"`

	// Ready is false until the job is characterized; an unready job
	// draws no planned power and takes no part in the allocation.
	Ready bool `json:"ready"`

	// Time is the allocated planned iteration time; the job's deployed
	// schedule never runs faster while a cap is in force.
	Time float64 `json:"time_s"`

	// PowerW is the job's allocated power draw (all pipelines).
	PowerW float64 `json:"power_w"`

	// FloorTime and Loss mirror fleet.JobAlloc.
	FloorTime float64 `json:"floor_s"`
	Loss      float64 `json:"loss"`
}

// FleetStatusResponse is the fleet-wide allocation.
type FleetStatusResponse struct {
	CapW     float64                 `json:"cap_w"`
	PowerW   float64                 `json:"power_w"`
	Loss     float64                 `json:"loss"`
	Feasible bool                    `json:"feasible"`
	Jobs     []JobAllocationResponse `json:"jobs"`
}

// GridSignalRequest installs a grid trace and (optionally) the default
// temporal-planning objective.
type GridSignalRequest struct {
	Signal    grid.Signal `json:"signal"`
	Objective string      `json:"objective,omitempty"`
}

// GridSignalResponse summarizes the installed signal.
type GridSignalResponse struct {
	Name      string  `json:"name"`
	Intervals int     `json:"intervals"`
	HorizonS  float64 `json:"horizon_s"`
	Objective string  `json:"objective"`
}

// EmissionsResponse is a job's cumulative emissions accounting since
// characterization: deployed-schedule energy integrated against the
// grid signal (cyclically beyond its horizon).
type EmissionsResponse struct {
	JobID string `json:"job_id"`

	// Ready is false until the job is characterized and drawing power.
	Ready bool `json:"ready"`

	// SinceS is the accounted wall-clock span in seconds.
	SinceS float64 `json:"since_s"`

	// EnergyJ, CarbonG, and CostUSD are the cumulative totals. Carbon
	// and cost stay zero while no signal is installed.
	EnergyJ float64 `json:"energy_j"`
	CarbonG float64 `json:"carbon_g"`
	CostUSD float64 `json:"cost_usd"`

	// PredCarbonG and PredCostUSD accrue the same draw at the latest
	// issued forecast's rates (zero until POST /grid/forecast; global
	// signal only — a placed job accrues at its region's rates, which
	// the forecast does not cover). DriftCarbonG is realized minus
	// predicted over exactly the forecast-covered spans: positive means
	// the grid ran dirtier than forecast.
	PredCarbonG  float64 `json:"pred_carbon_g"`
	PredCostUSD  float64 `json:"pred_cost_usd"`
	DriftCarbonG float64 `json:"drift_carbon_g"`
}

// RegionRequest registers a datacenter region: its GPU capacity,
// facility power cap, and grid signal.
type RegionRequest struct {
	Name   string      `json:"name"`
	GPUs   int         `json:"gpus,omitempty"`
	CapW   float64     `json:"cap_w,omitempty"`
	Signal grid.Signal `json:"signal"`
}

// RegionInfo summarizes one registered region.
type RegionInfo struct {
	Name      string  `json:"name"`
	GPUs      int     `json:"gpus"`
	CapW      float64 `json:"cap_w"`
	Intervals int     `json:"intervals"`
	HorizonS  float64 `json:"horizon_s"`
}

// PlacementRequest places a job into a region.
type PlacementRequest struct {
	Region string `json:"region"`

	// MigrationJ is the energy overhead of the move in joules
	// (checkpoint, transfer, restart). It is charged at the destination
	// region's instantaneous rates into the job's emissions account and
	// booked as a "migration" entry in the bloat ledger. 0 (and a
	// placement into the job's current region) charges nothing.
	MigrationJ float64 `json:"migration_j,omitempty"`
}

// PlacementEntry is one step of a job's placement history.
type PlacementEntry struct {
	Region  string  `json:"region"`
	AtUnixS float64 `json:"at_unix_s"`
}

// PlacementResponse reports a job's current placement.
type PlacementResponse struct {
	JobID string `json:"job_id"`

	// Region is the current placement ("" = unplaced).
	Region string `json:"region"`

	// Migrations counts region changes after the initial placement.
	Migrations int `json:"migrations"`

	// History lists every placement in time order.
	History []PlacementEntry `json:"history,omitempty"`
}

// ForecastRequest installs a forecast issuer over the installed grid
// signal and issues a forecast from the revealed history.
type ForecastRequest struct {
	// Model selects the forecaster: persistence, seasonal, or smoothed
	// (history-driven models), or "revisions" — the seeded noisy-
	// revision feed that simulates an external forecast provider over
	// the installed signal, the issuer the background controller's MPC
	// experiments replay.
	Model string `json:"model"`

	// Level is the uncertainty-band quantile level; 0 means 0.9.
	Level float64 `json:"level,omitempty"`

	// Quantile is the default planning quantile of a managed job whose
	// POST /controller/jobs leaves quantile 0: 0 plans on the point
	// forecast, higher values plan robustly against the pessimistic band.
	Quantile float64 `json:"quantile,omitempty"`

	// HorizonS extends the forecast coverage in signal seconds; 0
	// means one full signal cycle beyond the current time.
	HorizonS float64 `json:"horizon_s,omitempty"`

	// Seed and Sigma parameterize the "revisions" issuer (ignored for
	// history-driven models): Seed selects the innovation stream and
	// Sigma the per-step relative innovation (0 = the provider default).
	Seed  int64   `json:"seed,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
}

// ForecastResponse is an issued forecast plus the installed issuer
// parameters.
type ForecastResponse struct {
	Model     string  `json:"model"`
	Level     float64 `json:"level"`
	Quantile  float64 `json:"quantile"`
	IssuedS   float64 `json:"issued_s"`
	HorizonS  float64 `json:"horizon_s"`
	Intervals int     `json:"intervals"`

	// Forecast is the issued forecast: point-forecast signal plus
	// carbon and price bands.
	Forecast *forecast.Forecast `json:"forecast"`
}

// ReplanResponse is a job's rolling-horizon schedule state: the frozen
// executed prefix (realized against the installed signal, predicted
// against the forecasts that planned it) and the freshly re-planned
// remainder.
type ReplanResponse struct {
	JobID     string  `json:"job_id"`
	Target    float64 `json:"target_iterations"`
	DeadlineS float64 `json:"deadline_s"`
	Objective string  `json:"objective"`
	Quantile  float64 `json:"quantile"`

	// Plans counts planner invocations for this schedule so far.
	Plans int `json:"plans"`

	// DoneIterations is the frozen prefix's progress;
	// RemainingIterations is what the fresh plan still has to cover.
	DoneIterations      float64 `json:"done_iterations"`
	RemainingIterations float64 `json:"remaining_iterations"`

	// Feasible reports whether the remaining target still fits before
	// the deadline under the latest forecast.
	Feasible bool `json:"feasible"`

	// Frozen lists the executed spans in time order (signal seconds),
	// with realized and predicted accounting — exactly the controller's
	// executed-interval records.
	Frozen []forecast.ExecutedInterval `json:"frozen,omitempty"`

	// EnergyJ, CarbonG, and CostUSD total the frozen prefix (realized);
	// PredCarbonG and PredCostUSD total what its planning forecasts
	// predicted for it.
	EnergyJ     float64 `json:"energy_j"`
	CarbonG     float64 `json:"carbon_g"`
	CostUSD     float64 `json:"cost_usd"`
	PredCarbonG float64 `json:"pred_carbon_g"`
	PredCostUSD float64 `json:"pred_cost_usd"`

	// Remaining is the fresh plan for [RemainingOffsetS, DeadlineS),
	// planned on the forecast window starting there: its runs cover the
	// window's intervals, timed relative to RemainingOffsetS. nil once
	// the target is complete.
	Remaining        *grid.Plan `json:"remaining,omitempty"`
	RemainingOffsetS float64    `json:"remaining_offset_s"`
}

// RolloutResponse is the read-only view of a managed job's
// rolling-horizon schedule: the same shape as the POST /controller/jobs
// response plus the job's current schedule version.
type RolloutResponse struct {
	ReplanResponse
	Version int `json:"version"`
}

// ControllerJobStatus is one managed job's view in the controller
// status.
type ControllerJobStatus struct {
	JobID               string  `json:"job_id"`
	Version             int     `json:"version"`
	Plans               int     `json:"plans"`
	DoneIterations      float64 `json:"done_iterations"`
	RemainingIterations float64 `json:"remaining_iterations"`
	Feasible            bool    `json:"feasible"`
	LastError           string  `json:"last_error,omitempty"`

	// LastReplanUnixS is the wall-clock time of the job's last
	// successful re-plan (0 = never re-planned).
	LastReplanUnixS float64 `json:"last_replan_unix_s,omitempty"`
}

// CacheStats reports the plan cache's cumulative counters and current
// size. Coalesced counts the subset of hits that waited on an
// in-flight solve; evictions counts entries dropped by epoch
// invalidation and size-cap flushes; entries counts resident plans,
// solved or in flight.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// ControllerStatus is the controller runtime's observable state.
type ControllerStatus struct {
	Running bool `json:"running"`

	// Ticks counts completed controller ticks.
	Ticks int `json:"ticks"`

	// LastTickUnixS is the wall-clock time of the last tick (0 = none).
	LastTickUnixS float64 `json:"last_tick_unix_s,omitempty"`

	// LastTickError is the first per-job error of the last tick, empty
	// when the tick advanced every managed job cleanly.
	LastTickError string `json:"last_tick_error,omitempty"`

	// NextBoundaryS is the countdown, in seconds from now, to the next
	// interval boundary the background loop would tick at (-1 without
	// a signal).
	NextBoundaryS float64 `json:"next_boundary_s"`

	// Jobs lists the managed jobs in management order.
	Jobs []ControllerJobStatus `json:"jobs"`

	// Cache reports the plan cache counters.
	Cache CacheStats `json:"cache"`
}

// ControllerJobRequest puts a job's rolling schedule under controller
// management.
type ControllerJobRequest struct {
	JobID     string  `json:"job_id"`
	Target    float64 `json:"iterations"`
	DeadlineS float64 `json:"deadline_s,omitempty"`
	Objective string  `json:"objective,omitempty"`
	Quantile  float64 `json:"quantile,omitempty"`
}

// HealthResponse is the GET /healthz liveness and readiness view.
type HealthResponse struct {
	// Status is the worst per-SLO status: ok, warn, or breach.
	Status string `json:"status"`

	// Ready is false while any SLO is in breach — the load-balancer
	// readiness signal.
	Ready bool `json:"ready"`

	UptimeS           float64 `json:"uptime_s"`
	Jobs              int     `json:"jobs"`
	Regions           int     `json:"regions"`
	SignalInstalled   bool    `json:"signal_installed"`
	ForecastInstalled bool    `json:"forecast_installed"`
	ControllerRunning bool    `json:"controller_running"`

	// SLOs carries every rule's current multi-window status.
	SLOs []obs.SLOStatus `json:"slos"`
}

// EventsResponse is the GET /debug/events view: structured events,
// oldest first.
type EventsResponse struct {
	Events []obs.Event `json:"events"`
}

// TracesResponse is the GET /debug/traces view: assembled span trees,
// newest first.
type TracesResponse struct {
	Traces []obs.Trace `json:"traces"`
}

// SLOResponse is the GET /debug/slo view: every rule evaluated now.
type SLOResponse struct {
	SLOs []obs.SLOStatus `json:"slos"`
}

// LedgerResponse is the GET /debug/ledger view: fleet-wide cumulative
// totals plus per-job views (registration order; one job with ?job=).
type LedgerResponse struct {
	Fleet obs.LedgerTotals    `json:"fleet"`
	Jobs  []obs.JobLedgerView `json:"jobs"`
}
