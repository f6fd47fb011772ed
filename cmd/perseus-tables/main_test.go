package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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

// wallClock lists the experiments whose columns time the host, the only
// ones whose output is not byte-stable.
var wallClock = map[string]bool{"overhead": true, "ablation": true}

// TestGolden runs every byte-stable experiment at -scale quick and
// compares its output with testdata/<id>.golden, byte for byte. To
// accept a deliberate change, regenerate the file:
//
//	go run ./cmd/perseus-tables -experiment <id> -scale quick > cmd/perseus-tables/testdata/<id>.golden
func TestGolden(t *testing.T) {
	for _, id := range order {
		if wallClock[id] {
			continue
		}
		var buf bytes.Buffer
		if err := runners[id](scales["quick"], &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		path := filepath.Join("testdata", id+".golden")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := buf.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("%s differs from %s:\n%s", id, path, firstDiff(string(got), string(want)))
		}
	}
}

// firstDiff quotes the first line on which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got %q\nwant %q", i+1, gl, wl)
		}
	}
	return "(equal lines, different bytes)"
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
