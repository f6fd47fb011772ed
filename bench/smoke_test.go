package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkJSON mirrors ../BENCHMARK.json, the registration the driver
// reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	if err := json.Unmarshal(buf, &bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

// TestRegistrationMatchesCatalog: BENCHMARK.json names exactly the
// workloads and metrics the binary knows, with the same units,
// directions and bounds.
func TestRegistrationMatchesCatalog(t *testing.T) {
	bm := loadBenchmarkJSON(t)
	if len(bm.Paths) != 1 || bm.Paths[0] != "bench" || len(bm.Command) != 2 || bm.Command[1] != "bench/run.sh" {
		t.Errorf("command %v over paths %v: want bash bench/run.sh over bench", bm.Command, bm.Paths)
	}
	if bm.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, repetition counts are sized for %d", bm.RunSeconds, nominalSeconds)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads registered, %d in the catalogue", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.Name || bm.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: registered %q, catalogue %q", i, bm.Workloads[i].Name, w.Name)
		}
	}
	if len(bm.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics registered, %d in the catalogue", len(bm.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range endToEnd {
		r := bm.EndToEnd[i]
		if r.Name != m.Name || r.Unit != m.Unit || r.Better != m.Better || r.Bound != m.Bound {
			t.Errorf("end-to-end %d: registered %+v, catalogue %+v", i, r, m)
		}
		if r.Bound <= 0 || r.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", r.Name, r.Bound)
		}
		hasSetup = hasSetup || (r.Name == "setup_s" && r.Unit == "s" && r.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics registered, %d in the catalogue", len(bm.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		r := bm.PerLayer[i]
		if r.Name != m.Name || r.Unit != m.Unit || r.Better != m.Better {
			t.Errorf("per-layer %d: registered %+v, catalogue %+v", i, r, m)
		}
	}
}

func checkReport(t *testing.T, name string, rep report, want []metricDef, mayBeZero map[string]bool) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", name, rep.Correct, rep.Attempted, rep.Failed)
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, %d declared", name, len(rep.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not printed", name, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: %s printed in %q, declared %q", name, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: %s = %v", name, m.Name, got.Value)
		case got.Value == 0 && !mayBeZero[m.Name]:
			t.Errorf("%s: %s is 0", name, m.Name)
		}
	}
}

// TestSmoke runs every workload at a fiftieth of its repetitions, and
// one traced run, through the same run() the binary calls.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		rep, err := run(config{Workload: w.Name, Seed: 1, Seconds: nominalSeconds / 50.0, OutDir: t.TempDir()}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		checkReport(t, w.Name, rep, endToEnd, nil)
	}

	out := t.TempDir()
	rep, err := run(config{Workload: "region_plan", Seed: 2, Seconds: nominalSeconds / 50.0, Trace: true, OutDir: out}, io.Discard)
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	// Tracing overhead is a difference of two timings and may be 0 or
	// negative; allocation counts may legitimately reach 0 one day.
	checkReport(t, "region_plan -trace", rep, perLayer, map[string]bool{"trace_overhead_pct": true, "maxflow.mincut_allocs": true})
	buf, err := os.ReadFile(filepath.Join(out, "region_plan.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf, &tf); err != nil {
		t.Fatalf("trace file: %v", err)
	}
	if len(tf.Spans) == 0 || tf.Workload != "region_plan" {
		t.Errorf("trace file holds %d spans of workload %q", len(tf.Spans), tf.Workload)
	}
	if tf.CoveragePct < 85 {
		t.Errorf("layers account for %.1f%% of traced operation time, want >= 85%%", tf.CoveragePct)
	}
	layers := map[string]bool{}
	for _, s := range tf.Spans {
		layers[s.Layer] = true
	}
	for _, l := range []string{layerHarness, "client", "server", "region", "frontier", "dag", "profile", "sched"} {
		if !layers[l] {
			t.Errorf("no span from layer %q in the trace", l)
		}
	}
}
