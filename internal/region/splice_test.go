package region

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"perseus/internal/frontier"
)

// value is the bound on placement walked in full, the reference splice
// is held to: compileInto's walk — the origin, a pause keeping the last
// region, each arrival charged at its cell's rates and idling the
// downtime from the arrival on, across as many cells as it covers, and
// every cell cut at the deadline — with each run second priced at its
// cell's reduced cost.
func (b *bound) value(p *planner, placement []int) float64 {
	mig := p.opts.Migration
	var run, moved float64
	idleUntil := math.Inf(-1)
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
// deadlines inside a cell and downtime up to two and a half cells.
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
	var checked, origins, cut, spilled, pausedRuns int
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
			out, err := p.evaluateLight(&p.scratch[0], j, p.starts(j)[0])
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
	if checked < 50000 || origins == 0 || cut == 0 || spilled == 0 || pausedRuns == 0 {
		t.Fatalf("checked %d splices (%d origins, %d deadlines inside a cell, %d spilling downtimes, %d placements with pauses): the draw misses a case",
			checked, origins, cut, spilled, pausedRuns)
	}
	t.Logf("checked %d splices; worst relative gap %.1e", checked, worst)
}

// nearCollinearTable returns a three-point table, every point on its
// hull, whose ladder σ computed as newLadder does descends by rounding
// from the first edge to the second, with those two raw σ.
func nearCollinearTable(t *testing.T) (*frontier.LookupTable, [2]float64) {
	t.Helper()
	for t0 := int64(60); t0 < 90; t0++ {
		t1, t2 := t0+7, t0+19
		e0, e2 := 5000.0, 4100.0
		chord := e0 + (e2-e0)*float64(t1-t0)/float64(t2-t0)
		for ulps := 1; ulps <= 64; ulps++ {
			e1 := chord
			for range ulps {
				e1 = math.Nextafter(e1, 0)
			}
			lt := &frontier.LookupTable{Unit: 0.01, TminUnits: t0, TStarUnits: t2, Points: []frontier.TablePoint{
				{TimeUnits: t0, Energy: e0}, {TimeUnits: t1, Energy: e1}, {TimeUnits: t2, Energy: e2},
			}}
			if len(lt.Hull()) != 3 {
				continue
			}
			ps := func(i int) float64 { return 1 / lt.PointTime(i) }
			raw := [2]float64{
				(lt.AvgPower(1) - lt.AvgPower(2)) / (ps(1) - ps(2)),
				(lt.AvgPower(0) - lt.AvgPower(1)) / (ps(0) - ps(1)),
			}
			if raw[1] < raw[0] {
				return lt, raw
			}
		}
	}
	t.Fatal("no near-collinear table whose σ descends")
	return nil, [2]float64{}
}

// TestLadderMatchesScan holds the ladder to a scan: for every cap floor
// of several tables — convex ones, non-convex ones whose floors fall off
// the hull, and a near-collinear one whose raw σ descend — and prices
// at, beside and between every σ of the floor's ladder and at random,
// least equals min(0, perJ·P − λ/t over the points the floor allows) to
// 1e-12 of the terms' size. It may never be below the scan (it prices a
// real point) and never above it by more than that rounding: a bound
// above the true minimum would prune a winning move.
func TestLadderMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tables := []*frontier.LookupTable{
		convexTable(0.01, 80, 110, 3000, 120),
		convexTable(0.005, 40, 200, 900, 300),
	}
	for range 4 {
		lt := &frontier.LookupTable{Unit: 0.01, TminUnits: 50}
		e := 6000 + 2000*rng.Float64()
		for u := int64(50); len(lt.Points) < 40; u += 1 + rng.Int63n(3) {
			lt.Points = append(lt.Points, frontier.TablePoint{TimeUnits: u, Energy: e})
			e -= 5 + 60*rng.Float64()
			lt.TStarUnits = u
		}
		tables = append(tables, lt)
	}
	collinear, raw := nearCollinearTable(t)
	tables = append(tables, collinear)

	var checked, exact, offHull int
	var worst float64
	for ti, lt := range tables {
		j := &Job{Table: lt}
		var pc pointCosts
		pc.hull = newLadder(j, lt.Hull())
		for f := range lt.Points {
			if !slices.Contains(lt.Hull(), f) {
				offHull++
			}
			l := pc.from(j, f)
			for q := 1; q < len(l.sigma); q++ {
				if l.sigma[q] < l.sigma[q-1] {
					t.Fatalf("table %d floor %d: ladder σ %v descends", ti, f, l.sigma)
				}
			}
			perJs := []float64{0, 1e-4, 3e-4 * (1 + rng.Float64()), 1}
			for _, perJ := range perJs {
				lambdas := []float64{0, 1e9 * rng.Float64()}
				for _, s := range append(slices.Clone(l.sigma), raw[0], raw[1], (raw[0]+raw[1])/2) {
					at := perJ * s
					lambdas = append(lambdas, at, math.Nextafter(at, 0), math.Nextafter(at, math.Inf(1)), at*(1+1e-9), at*(1-1e-9))
				}
				for q := 1; q < len(l.sigma); q++ {
					lambdas = append(lambdas, perJ*(l.sigma[q-1]+l.sigma[q])/2)
				}
				for _, lambda := range lambdas {
					got := l.least(perJ, lambda)
					want, size := 0.0, 0.0
					for i := f; i < len(lt.Points); i++ {
						q := pointCost{perS: 1 / lt.PointTime(i), powerW: lt.AvgPower(i)}
						want = min(want, perJ*q.powerW-lambda*q.perS)
						size = max(size, perJ*q.powerW, lambda*q.perS)
					}
					if got < want {
						t.Fatalf("table %d floor %d perJ %v λ %v: ladder %v below the scan's %v", ti, f, perJ, lambda, got, want)
					}
					if got-want > 1e-12*size {
						t.Fatalf("table %d floor %d perJ %v λ %v: ladder %v above the scan's %v", ti, f, perJ, lambda, got, want)
					}
					worst = max(worst, (got-want)/max(size, math.SmallestNonzeroFloat64))
					if got == want {
						exact++
					}
					checked++
				}
			}
		}
	}
	if offHull == 0 {
		t.Fatal("every floor is a hull vertex: the off-hull ladders went untested")
	}
	t.Logf("checked %d prices (%d bit-equal to the scan); worst gap %.1e of the terms' size", checked, exact, worst)
}
