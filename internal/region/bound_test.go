package region

import (
	"math"
	"math/rand"
	"testing"
)

// TestBoundMatchesExact holds the Lagrangian bound to the exact light
// cost of every placement of seeded small instances that draw power
// caps, origins, deadlines inside a cell and downtime longer than a
// cell, each again with a transfer in flight at the start: at the
// placement's own λ the bound is its cost to 1e-12 relative, and at 0,
// ½λ, 2λ and 5λ it is never above it (weak duality, with the same
// 1e-12 for rounding). Each job is checked with
// the jobs before it committed, so later jobs price capped cells in a
// view that carries the others' draw.
func TestBoundMatchesExact(t *testing.T) {
	var checked, capped, origins, cut, spilled, paused int
	var worst float64
	for n := int64(0); n < 200; n++ {
		seed := 1 + n/2
		rng := rand.New(rand.NewSource(seed))
		inst := randomBruteInstance(rng, 2+rng.Intn(2), 2, 3+rng.Intn(2), 0)
		withCaps(rng, &inst)
		withMoves(rng, &inst)
		if n%2 == 1 {
			withPause(rng, &inst)
		}
		p := emptyPlanner(t, inst)
		if len(p.capAt) > 0 {
			capped++
		}
		if inst.opts.Migration.DowntimeS > p.cells[0].Duration() {
			spilled++
		}
		var b bound
		for ji := range inst.jobs {
			j := &inst.jobs[ji]
			if j.Origin != "" {
				origins++
			}
			if j.DeadlineS > 0 && j.DeadlineS < p.horizon {
				cut++
			}
			if j.PausedUntilS > 0 {
				paused++
			}
			for _, pl := range enumerate(len(p.regions), len(p.cells)) {
				out, err := p.evaluateLight(&p.desc.scratch, j, pl)
				if err != nil {
					t.Fatal(err)
				}
				if !out.feasible {
					continue
				}
				b.prepare(p, ji, j, out.price)
				got := b.value(p, pl)
				worst = max(worst, math.Abs(got-out.cost)/math.Abs(out.cost))
				if math.Abs(got-out.cost) > 1e-12*math.Abs(out.cost) {
					t.Fatalf("seed %d job %d placement %v: bound %v at its own λ %v, exact cost %v", seed, ji, pl, got, out.price, out.cost)
				}
				for _, f := range []float64{0, 0.5, 2, 5} {
					b.prepare(p, ji, j, f*out.price)
					if got := b.value(p, pl); got > out.cost+1e-12*math.Abs(out.cost) {
						t.Fatalf("seed %d job %d placement %v: bound %v at λ %v exceeds the exact cost %v", seed, ji, pl, got, f*out.price, out.cost)
					}
				}
				checked++
			}
			ev, err := p.evaluateFull(&p.desc.scratch, j, p.starts(j)[0])
			if err != nil {
				t.Fatal(err)
			}
			p.usage.apply(j, ev, +1)
		}
	}
	if checked < 10000 || capped == 0 || origins == 0 || cut == 0 || spilled == 0 || paused == 0 {
		t.Fatalf("checked %d feasible placements (%d capped instances, %d origins, %d deadlines inside a cell, %d spilling downtimes, %d paused jobs): the draw misses a case",
			checked, capped, origins, cut, spilled, paused)
	}
	t.Logf("checked %d feasible placements; worst relative gap at the own λ %.1e", checked, worst)
}
