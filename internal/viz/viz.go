// Package viz renders pipeline execution timelines (paper Figures 1 and
// 10): per-stage rows of forward/backward computations drawn to scale,
// shaded by power draw, as ASCII art — and frontier series as CSV.
package viz

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"perseus/internal/cluster"
)

// shades order from low to high power draw.
var shades = []rune{'.', ':', '-', '=', '+', '*', '#', '@'}

// Timeline renders one pipeline iteration as an ASCII chart: one row per
// physical stage, computations drawn to scale over width columns, letters
// marking op kind boundaries and shade characters indicating power.
func Timeline(w io.Writer, spans []cluster.OpSpan, width int) error {
	if len(spans) == 0 {
		return fmt.Errorf("viz: no spans")
	}
	if width < 20 {
		width = 20
	}
	var end float64
	var maxPower float64
	stages := 0
	for _, sp := range spans {
		if e := sp.Start + sp.Dur; e > end {
			end = e
		}
		if sp.Power > maxPower {
			maxPower = sp.Power
		}
		if sp.Op.Stage+1 > stages {
			stages = sp.Op.Stage + 1
		}
	}
	perStage := make([][]cluster.OpSpan, stages)
	for _, sp := range spans {
		perStage[sp.Op.Stage] = append(perStage[sp.Op.Stage], sp)
	}
	for st := range perStage {
		sort.Slice(perStage[st], func(i, j int) bool {
			return perStage[st][i].Start < perStage[st][j].Start
		})
	}
	col := func(t float64) int {
		c := int(t / end * float64(width))
		if c >= width {
			c = width - 1
		}
		return c
	}
	for st := 0; st < stages; st++ {
		row := make([]rune, width)
		for i := range row {
			row[i] = ' '
		}
		for _, sp := range perStage[st] {
			a, b := col(sp.Start), col(sp.Start+sp.Dur)
			shade := shades[min(len(shades)-1, int(sp.Power/maxPower*float64(len(shades))))]
			for c := a; c <= b && c < width; c++ {
				row[c] = shade
			}
			// Mark the op kind at its first column.
			row[a] = rune(sp.Op.Kind.String()[0])
		}
		if _, err := fmt.Fprintf(w, "S%-2d|%s|\n", st+1, string(row)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "    0.00%sTime (seconds)%s%.2f\n",
		strings.Repeat(" ", max(1, width/2-12)), strings.Repeat(" ", max(1, width/2-12)), end)
	return err
}

// Series writes (x, y) pairs as CSV with a header, for frontier plots
// (paper Figures 9, 12, 13).
func Series(w io.Writer, name string, xs, ys []float64) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("viz: %d xs vs %d ys", len(xs), len(ys))
	}
	if _, err := fmt.Fprintf(w, "# %s\ntime_s,energy_j\n", name); err != nil {
		return err
	}
	for i := range xs {
		if _, err := fmt.Fprintf(w, "%.6f,%.3f\n", xs[i], ys[i]); err != nil {
			return err
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
