package main

import (
	"bytes"
	"strings"
	"testing"

	"perseus/internal/experiments"
)

// TestOrderMatchesRunners keeps the -experiment all sequence and the
// runner registry from drifting apart.
func TestOrderMatchesRunners(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range order {
		if _, ok := runners[id]; !ok {
			t.Errorf("order lists %q but no runner exists", id)
		}
		if seen[id] {
			t.Errorf("order lists %q twice", id)
		}
		seen[id] = true
	}
	for id := range runners {
		if !seen[id] {
			t.Errorf("runner %q missing from order", id)
		}
	}
}

// TestDemosRender runs each planner demo at quick scale and checks it
// announces its characterization and renders every table heading.
func TestDemosRender(t *testing.T) {
	for id, tables := range map[string]int{"grid": 2, "region": 2, "forecast": 3, "fleet": 3} {
		var buf bytes.Buffer
		if err := runners[id](experiments.Quick, &buf); err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		out := buf.String()
		if !strings.HasPrefix(out, "characterizing ") {
			t.Errorf("%s: first line %q does not start with \"characterizing \"", id, strings.SplitN(out, "\n", 2)[0])
		}
		if got := strings.Count("\n"+out, "\n== "); got != tables {
			t.Errorf("%s: rendered %d table headings, want %d:\n%s", id, got, tables, out)
		}
	}
}
