package main

// metricDef declares one metric the benchmark prints. BENCHMARK.json
// lists the same names, units and directions; smoke_test.go keeps the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median a change may lose
}

// workloadDef declares one workload.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"characterize", "The paper's algorithm: six 300-450 point frontiers per pass, so >=90% of the time is frontier.Characterize + maxflow + dag; the other layers run at base size"},
	{"serve_mixed", "The serving path over TCP with planners idle: 32 jobs under a fleet cap, a reader (304s, schedules, cached plans) and a writer (stragglers, cold plans) sharing one server"},
	{"control_loop", "The controller runtime: 64 managed jobs re-planned cold every tick under replanMu, ledger settle, hub wake of two parked pollers; frontier and region at base size"},
	{"region_plan", "The joint planner: cold 4-job, seeded 4-job and cold 8-job region.Optimize on a phase-shifted pair with migration friction; the only place a warm start shows"},
}

// endToEnd are the figures a user of the system sees. Every workload
// reports all of them: its own group's from a full-size phase, the
// others' from the same code at base size.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"first_schedule_ms_gm", "ms", "lower", 0.25},
	{"frontier_points_per_s", "1/s", "higher", 0.25},
	{"intrinsic_saving_pct", "%", "higher", 0.15},
	{"read_req_per_s", "1/s", "higher", 0.25},
	{"read_ms_p50", "ms", "lower", 0.25},
	{"straggler_to_schedule_ms_p50", "ms", "lower", 0.25},
	{"plan_cold_ms_p50", "ms", "lower", 0.25},
	{"tick_to_wake_ms_mean", "ms", "lower", 0.25},
	{"mpc_carbon_vs_oracle", "ratio", "lower", 0.10},
	{"region_plan_j4_ms_p50", "ms", "lower", 0.25},
	{"region_replan_j4_ms_p50", "ms", "lower", 0.25},
	{"region_plan_j8_ms_p50", "ms", "lower", 0.25},
	{"region_carbon_vs_bestfixed", "ratio", "lower", 0.05},
}
