package experiments

import (
	"bytes"
	"strings"
	"testing"

	"perseus/internal/gpu"
	"perseus/internal/grid"
)

// TestGridComparisonOnBundledTrace is the end-to-end acceptance check
// on a real characterized workload: over the bundled 24 h diurnal
// trace, at equal iterations completed, the grid-aware plan's total
// carbon is strictly below both signal-blind baselines.
func TestGridComparisonOnBundledTrace(t *testing.T) {
	sys, err := BuildSystem(WorkloadConfig{
		Display: "gpt3-1.3b", Model: "gpt3-1.3b", Stages: 2,
		MicrobatchSize: 4, Microbatches: 4,
	}, gpu.A100PCIe, Quick)
	if err != nil {
		t.Fatal(err)
	}
	lt := sys.Frontier.Table()
	sig := grid.Diurnal24h()
	// 55% utilization at T*: enough slack to shift around the evening
	// peak, tight enough that the planner must run most of the day.
	target := 0.55 * sig.Horizon() / lt.TStar()

	strategies, err := GridComparison(lt, sig, target, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(strategies) != 4 {
		t.Fatalf("got %d strategies", len(strategies))
	}
	byName := map[string]*grid.Plan{}
	for _, st := range strategies {
		if !st.Plan.Feasible {
			t.Fatalf("%s infeasible", st.Name)
		}
		if d := st.Plan.Iterations - target; d < -1e-6*target || d > 1e-6*target {
			t.Fatalf("%s completes %.1f iterations, want %.1f", st.Name, st.Plan.Iterations, target)
		}
		byName[st.Name] = st.Plan
	}
	aware := byName["grid-aware (carbon)"]
	if !(aware.CarbonG < byName["always-Tmin"].CarbonG) {
		t.Fatalf("grid-aware carbon %.0f g not strictly below always-Tmin %.0f g",
			aware.CarbonG, byName["always-Tmin"].CarbonG)
	}
	if !(aware.CarbonG < byName["static min-energy"].CarbonG) {
		t.Fatalf("grid-aware carbon %.0f g not strictly below static min-energy %.0f g",
			aware.CarbonG, byName["static min-energy"].CarbonG)
	}
	if cost := byName["grid-aware (cost)"]; cost.CostUSD > aware.CostUSD+1e-9 {
		t.Fatalf("cost-objective plan costs %.4f$, more than the carbon plan %.4f$",
			cost.CostUSD, aware.CostUSD)
	}

	// The tables render every strategy and the per-interval plan.
	var buf bytes.Buffer
	if err := GridComparisonTable(sig, strategies).Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"always-Tmin", "static min-energy", "grid-aware (carbon)", "Carbon vs fast"} {
		if !strings.Contains(out, want) {
			t.Fatalf("comparison table missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := GridPlanTable(lt, sig, aware).Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "idle") {
		t.Fatalf("plan table should show idle hours:\n%s", buf.String())
	}
}
