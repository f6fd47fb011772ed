package region

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// value is the bound on placement walked in full, the reference splice
// is held to: compileInto's walk — the origin, the transfer in flight
// idling the start, a pause keeping the last region, each arrival charged at its cell's rates and idling the
// downtime from the arrival on, across as many cells as it covers, and
// every cell cut at the deadline — with each run second priced at its
// cell's reduced cost.
func (b *bound) value(p *planner, placement []int) float64 {
	mig := p.opts.Migration
	var run, moved float64
	idleUntil := b.pause
	prev := b.origin
	for k, c := range p.cells {
		r := placement[k]
		if r == Paused {
			continue
		}
		if prev != Paused && r != prev {
			idleUntil = c.StartS + mig.DowntimeS
			rt := p.rates[r][k]
			moved += mig.charge(rt.carbon, rt.price).Total(p.opts.Objective)
		}
		prev = r
		if s := min(c.EndS, b.deadline) - max(c.StartS, idleUntil); s > 0 {
			run += s * b.rc[r][k]
		}
	}
	return run + moved + b.lambda*b.target
}

// spliceInstances lists the instances TestSpliceMatchesValue prices on:
// FuzzPlan's seed inputs at each of its three stages (as drawn, capped,
// capped and moved), then longer random ones with power caps, origins,
// deadlines inside a cell and downtime up to two and a half cells, each
// again with a transfer in flight at the start.
func spliceInstances() []bruteInstance {
	var out []bruteInstance
	for seed := int64(1); seed <= 8; seed++ {
		nr, nj, nc, contended := uint8(seed%3), uint8(seed%2), uint8(seed%3), seed%2 == 0
		rng := rand.New(rand.NewSource(seed))
		capacity := 0
		if contended {
			capacity = 1
		}
		inst := randomBruteInstance(rng, 2+int(nr)%2, 1+int(nj)%2, 2+int(nc)%3, capacity)
		out = append(out, inst)
		inst = cloneInstance(inst)
		withCaps(rng, &inst)
		out = append(out, inst)
		inst = cloneInstance(inst)
		withMoves(rng, &inst)
		out = append(out, inst)
	}
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		inst := randomBruteInstance(rng, 2+rng.Intn(2), 2, 6+rng.Intn(7), 0)
		withCaps(rng, &inst)
		withMoves(rng, &inst)
		out = append(out, inst)
		inst = cloneInstance(inst)
		withPause(rng, &inst)
		out = append(out, inst)
	}
	return out
}

// cloneInstance copies an instance deeply enough for withCaps and
// withMoves to draw onto the copy alone.
func cloneInstance(inst bruteInstance) bruteInstance {
	out := bruteInstance{opts: inst.opts, jobs: slices.Clone(inst.jobs), regions: slices.Clone(inst.regions)}
	for r := range out.regions {
		sig := *out.regions[r].Signal
		sig.Intervals = slices.Clone(sig.Intervals)
		out.regions[r].Signal = &sig
	}
	return out
}

// randomPlacement draws a placement of runs: each run a random region
// or a pause, one to four cells long, so that long paused stretches and
// runs ending at, inside and after the deadline all occur.
func randomPlacement(rng *rand.Rand, nRegions, nCells int) []int {
	pl := make([]int, 0, nCells)
	for len(pl) < nCells {
		r := rng.Intn(nRegions+1) - 1
		for n := 1 + rng.Intn(4); n > 0 && len(pl) < nCells; n-- {
			pl = append(pl, r)
		}
	}
	return pl
}

// TestSpliceMatchesValue holds splice to the full walk: on every
// instance of spliceInstances, for each job at several prices (0 and
// multiples of a feasible placement's own λ) and random placements,
// every segment move — each range to each region and to Paused, priced
// against the walk of that target in every cell — and every swap range
// — priced against the walk of a second random placement — must equal
// bound.value on the spliced placement to 1e-12 of the terms' size.
func TestSpliceMatchesValue(t *testing.T) {
	var checked, origins, cut, spilled, pausedRuns, inFlight int
	var worst float64
	for n, inst := range spliceInstances() {
		rng := rand.New(rand.NewSource(int64(n)))
		p := emptyPlanner(t, inst)
		if inst.opts.Migration.DowntimeS > p.cells[0].Duration() {
			spilled++
		}
		var b bound
		var base, other walk
		consts := make([]walk, len(p.constPl))
		for ji := range inst.jobs {
			j := &inst.jobs[ji]
			if j.Origin != "" {
				origins++
			}
			if j.DeadlineS > 0 && j.DeadlineS < p.horizon {
				cut++
			}
			if j.PausedUntilS > 0 {
				inFlight++
			}
			out, err := p.evaluateLight(&p.desc.scratch, j, p.starts(j)[0])
			if err != nil {
				t.Fatal(err)
			}
			lambda := out.price
			if !out.feasible || lambda < 0 {
				lambda = 1e-3
			}
			for _, f := range []float64{0, 0.5, 1, 3} {
				b.prepare(p, ji, j, f*lambda)
				for x, pl := range p.constPl {
					b.walk(p, &consts[x], pl)
				}
				for range 4 {
					pl := randomPlacement(rng, len(p.regions), len(p.cells))
					if slices.Contains(pl, Paused) {
						pausedRuns++
					}
					sec := randomPlacement(rng, len(p.regions), len(p.cells))
					b.walk(p, &base, pl)
					b.walk(p, &other, sec)
					check := func(what string, got float64, cand []int) {
						t.Helper()
						want := b.value(p, cand)
						size := math.Abs(want) + b.lambda*b.target
						if rel := math.Abs(got-want) / size; rel > worst {
							worst = rel
						}
						if math.Abs(got-want) > 1e-12*size {
							t.Fatalf("instance %d job %d λ %v: %s of %v gives %v, the full walk of %v gives %v",
								n, ji, b.lambda, what, pl, got, cand, want)
						}
						checked++
					}
					for i := range p.cells {
						for k := i; k < len(p.cells); k++ {
							for x := range p.constPl {
								cand := slices.Clone(pl)
								for c := i; c <= k; c++ {
									cand[c] = x - 1
								}
								check("move", b.splice(p, &base, &consts[x], i, k), cand)
							}
							cand := slices.Clone(pl)
							copy(cand[i:k+1], sec[i:k+1])
							check("swap", b.splice(p, &base, &other, i, k), cand)
						}
					}
				}
			}
		}
	}
	if checked < 50000 || origins == 0 || cut == 0 || spilled == 0 || pausedRuns == 0 || inFlight == 0 {
		t.Fatalf("checked %d splices (%d origins, %d deadlines inside a cell, %d spilling downtimes, %d placements with pauses, %d jobs with a transfer in flight): the draw misses a case",
			checked, origins, cut, spilled, pausedRuns, inFlight)
	}
	t.Logf("checked %d splices; worst relative gap %.1e", checked, worst)
}
