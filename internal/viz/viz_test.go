package viz

import (
	"bytes"
	"strings"
	"testing"

	"perseus/internal/cluster"
	"perseus/internal/sched"
)

func spans() []cluster.OpSpan {
	return []cluster.OpSpan{
		{Op: sched.Op{Stage: 0, Virtual: 0, Microbatch: 0, Kind: sched.Forward}, Start: 0, Dur: 1, Freq: 1410, Power: 300},
		{Op: sched.Op{Stage: 0, Virtual: 0, Microbatch: 0, Kind: sched.Backward}, Start: 2, Dur: 2, Freq: 1200, Power: 250},
		{Op: sched.Op{Stage: 1, Virtual: 1, Microbatch: 0, Kind: sched.Forward}, Start: 1, Dur: 1, Freq: 900, Power: 150},
		{Op: sched.Op{Stage: 1, Virtual: 1, Microbatch: 0, Kind: sched.Backward}, Start: 2, Dur: 2, Freq: 1410, Power: 290},
	}
}

func TestTimeline(t *testing.T) {
	var buf bytes.Buffer
	if err := Timeline(&buf, spans(), 60); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // 2 stages + time axis
		t.Fatalf("%d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "S1 |") || !strings.HasPrefix(lines[1], "S2 |") {
		t.Errorf("missing stage rows:\n%s", out)
	}
	if !strings.Contains(lines[0], "F") || !strings.Contains(lines[0], "B") {
		t.Errorf("missing kind markers:\n%s", out)
	}
	if !strings.Contains(lines[2], "Time (seconds)") {
		t.Errorf("missing time axis:\n%s", out)
	}
}

func TestTimelineEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Timeline(&buf, nil, 60); err == nil {
		t.Error("empty spans should error")
	}
}

func TestTimelineNarrowWidthClamped(t *testing.T) {
	var buf bytes.Buffer
	if err := Timeline(&buf, spans(), 1); err != nil {
		t.Fatal(err)
	}
	if len(buf.String()) == 0 {
		t.Error("no output at clamped width")
	}
}

func TestSeries(t *testing.T) {
	var buf bytes.Buffer
	if err := Series(&buf, "perseus", []float64{1, 2}, []float64{30, 20}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# perseus") {
		t.Errorf("missing series name")
	}
	if err := Series(&buf, "bad", []float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
}
