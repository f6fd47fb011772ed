package grid

import (
	"fmt"
	"math"
	"slices"

	"perseus/internal/frontier"
)

// greedy is the temporal solver as it stood before the price search: a
// frontier.Descend walk that steps the interval whose pending step has
// the least slope dc/dw, one hull vertex faster at a time, summing
// coverage step by step. It is kept, unchanged in its decisions, as the
// reference the price search is held to step for step
// (TestDecisionsMatchGreedy) and in cost (FuzzOptimize).
type greedy struct {
	ivs      []greedyInterval
	pts      []int
	tm, pw   []float64
	slowest  int
	prefixes []greedyPrefix
	hull     []int
	heap     []frontier.Key
	frac     refFrac
	steps    int
	price    float64
	coverage float64
	cost     float64
	feasible bool
	maxCover float64
	scale    float64
}

// greedyInterval is one interval's descent state: it steps one solver
// position faster at a time, except that a capped interval whose floor
// is off the table's hull leaves the hull at join for its own prefix,
// entering it at tail.
type greedyInterval struct {
	iv   Interval
	dur  float64
	perJ float64
	c    float64 // perJ·scale·dur: what every descent step's dc multiplies
	work float64 // dur/tm[cur], carried from the step that reached cur; 0 idle
	lo   int     // fastest allowed position under the interval cap
	join int     // hull position stepped from into tail; -1 when lo is on the hull
	tail int     // slowest position of the interval's own prefix
	only bool    // idle-only: even the slowest point violates the cap
	cur  int     // current descent state; -1 = idle
	next greedyStep
}

// greedyPrefix is the hull prefix of one off-hull cap floor, at solver
// positions pos..tail, entered from hull position join.
type greedyPrefix struct {
	floor, pos, join, tail int
}

// greedyStep is an interval's pending step into state to: dw
// iterations at cost dc, leaving it doing w iterations.
type greedyStep struct {
	to        int
	w, dw, dc float64
}

func (g *greedy) addPoint(lt *frontier.LookupTable, i int) {
	g.pts = append(g.pts, i)
	g.tm = append(g.tm, lt.PointTime(i))
	g.pw = append(g.pw, lt.AvgPower(i))
}

func (g *greedy) floor(lt *frontier.LookupTable, hull []int, f int) (lo, join, tail int) {
	j, _ := slices.BinarySearch(hull, f)
	if hull[j] == f {
		return j, -1, 0
	}
	for _, c := range g.prefixes {
		if c.floor == f {
			return c.pos, c.join, c.tail
		}
	}
	c := greedyPrefix{floor: f, pos: len(g.pts), join: j}
	g.hull = lt.HullOf(g.hull[:0], f, hull[j])
	for _, i := range g.hull[:len(g.hull)-1] {
		g.addPoint(lt, i)
	}
	c.tail = len(g.pts) - 1
	g.prefixes = append(g.prefixes, c)
	return c.pos, c.join, c.tail
}

// nextStep sets the interval's pending step and returns its key; false
// once the interval is saturated at its cap floor.
func (g *greedy) nextStep(k int32) (frontier.Key, bool) {
	pi := &g.ivs[k]
	if pi.only || pi.cur == pi.lo {
		return frontier.Key{}, false
	}
	st := &pi.next
	if pi.cur < 0 {
		st.to = g.slowest
		st.w = pi.dur / g.tm[st.to]
		st.dw = st.w
		st.dc = pi.perJ * g.scale * g.pw[st.to] * pi.dur
	} else {
		st.to = pi.cur - 1
		if pi.cur == pi.join {
			st.to = pi.tail
		}
		st.w = pi.dur / g.tm[st.to]
		st.dw = st.w - pi.work
		st.dc = pi.c * (g.pw[st.to] - g.pw[pi.cur])
	}
	return frontier.Key{Slope: st.dc / st.dw, Lane: k}, true
}

// solveGreedy runs the greedy on the instance.
func solveGreedy(lt *frontier.LookupTable, sig *Signal, opts Options) (*greedy, error) {
	d, scale, obj, err := normalize(lt, sig, opts)
	if err != nil {
		return nil, err
	}
	g := &greedy{frac: refFrac{k: -1}, scale: scale}
	hull := lt.Hull()
	for _, i := range hull {
		g.addPoint(lt, i)
	}
	g.slowest = len(hull) - 1
	minPow := g.pw[g.slowest]
	for _, iv := range sig.Intervals {
		if iv.StartS >= d {
			break
		}
		if iv.EndS > d {
			iv.EndS = d
		}
		pi := greedyInterval{iv: iv, dur: iv.Duration(), perJ: PerJoule(obj, iv), cur: -1, join: -1}
		pi.c = pi.perJ * scale * pi.dur
		if iv.CapW > 0 {
			if maxW := iv.CapW / scale; maxW < minPow {
				pi.only = true
			} else {
				pi.lo, pi.join, pi.tail = g.floor(lt, hull, lt.FirstUnderPower(maxW))
			}
		}
		if !pi.only {
			g.maxCover += pi.dur / g.tm[pi.lo]
		}
		g.ivs = append(g.ivs, pi)
	}
	g.feasible = g.maxCover >= opts.Target-1e-9
	if !g.feasible {
		for k := range g.ivs {
			if pi := &g.ivs[k]; !pi.only {
				pi.cur = pi.lo
			}
		}
		g.coverage, g.price = g.maxCover, -1
		return g, nil
	}
	for k := range g.ivs {
		if key, ok := g.nextStep(int32(k)); ok {
			g.heap = append(g.heap, key)
		}
	}
	frontier.Descend(g.heap, func(key frontier.Key) (frontier.Key, bool, bool) {
		if g.coverage >= opts.Target-1e-9 {
			return frontier.Key{}, false, true
		}
		pi := &g.ivs[key.Lane]
		st := pi.next
		g.steps++
		g.price = key.Slope
		if need := opts.Target - g.coverage; st.dw > need+1e-12 {
			f := need / st.dw
			g.frac = refFrac{k: int(key.Lane), from: pi.cur, to: st.to, f: f}
			g.coverage += need
			g.cost += f * st.dc
			return frontier.Key{}, false, true
		}
		pi.cur, pi.work = st.to, st.w
		g.coverage += st.dw
		g.cost += st.dc
		next, ok := g.nextStep(key.Lane)
		return next, ok, false
	})
	return g, nil
}

// point maps a greedy solver position to its table index (-1 idle).
func (g *greedy) point(pos int) int {
	if pos < 0 {
		return pos
	}
	return g.pts[pos]
}

// totals accounts the greedy's plan the way Solver.account does.
func (g *greedy) totals() (iterations, energy, carbon, cost float64) {
	for k, pi := range g.ivs {
		var slices [2]Slice
		n := 0
		switch {
		case g.frac.k == k:
			fast := g.frac.f * pi.dur
			slices[0], n = Slice{Point: g.frac.to, Seconds: fast}, 1
			if g.frac.from >= 0 {
				slices[1], n = Slice{Point: g.frac.from, Seconds: pi.dur - fast}, 2
			}
		case pi.cur >= 0:
			slices[0], n = Slice{Point: pi.cur, Seconds: pi.dur}, 1
		}
		var iters, e float64
		for _, sl := range slices[:n] {
			iters += sl.Seconds / g.tm[sl.Point]
			e += sl.Seconds * g.scale * g.pw[sl.Point]
		}
		iterations += iters
		energy += e
		carbon += e / JoulesPerKWh * pi.iv.CarbonGPerKWh
		cost += e / JoulesPerKWh * pi.iv.PriceUSDPerKWh
	}
	return iterations, energy, carbon, cost
}

// greedyDecisions compares the solve s last ran — on lt, sig and opts,
// returning p — with the greedy's on the same instance. It returns
// where their decisions first differ (the point of an interval, the
// fractional interval or its endpoints, the step count), or "" when
// they agree. When they agree every total must be within 1e-12
// relative of the greedy's. A tie may let them differ; the plans'
// objectives must then agree within 1e-12 relative at equal
// iterations — as cost − λ·iterations, at the plan's price λ — since
// either plan may stop up to 1e-9 iterations short of the target.
func greedyDecisions(s *Solver, lt *frontier.LookupTable, sig *Signal, opts Options, p *Plan) (string, error) {
	g, err := solveGreedy(lt, sig, opts)
	if err != nil {
		return "", err
	}
	diff := g.diff(&s.sol)
	if diff == "" && s.Steps() != g.steps {
		diff = fmt.Sprintf("%d steps, greedy %d", s.Steps(), g.steps)
	}
	want := Plan{Objective: p.Objective}
	want.Iterations, want.EnergyJ, want.CarbonG, want.CostUSD = g.totals()
	type total struct {
		name      string
		got, want float64
	}
	near := func(c total, scale float64) error {
		if math.Abs(c.got-c.want) > 1e-12*scale {
			return fmt.Errorf("%s %v, greedy %v (decisions: %q)", c.name, c.got, c.want, diff)
		}
		return nil
	}
	if diff != "" {
		lambda := max(p.Price, 0)
		c := total{"objective − λ·iterations", p.Total() - lambda*p.Iterations, want.Total() - lambda*want.Iterations}
		return diff, near(c, max(math.Abs(p.Total()), math.Abs(want.Total()), lambda*p.Iterations, lambda*want.Iterations))
	}
	for _, c := range []total{{"iterations", p.Iterations, want.Iterations}, {"energy", p.EnergyJ, want.EnergyJ},
		{"carbon", p.CarbonG, want.CarbonG}, {"cost", p.CostUSD, want.CostUSD}} {
		if err := near(c, max(math.Abs(c.got), math.Abs(c.want))); err != nil {
			return diff, err
		}
	}
	return diff, nil
}

// diff returns where sol's decisions first differ from the greedy's:
// an interval's point, or the fractional interval or its endpoints.
func (g *greedy) diff(sol *solution) string {
	if len(sol.ivs) != len(g.ivs) {
		return fmt.Sprintf("%d intervals, greedy %d", len(sol.ivs), len(g.ivs))
	}
	for k := range sol.ivs {
		if got, want := pointOf(sol, k), g.point(g.ivs[k].cur); got != want {
			return fmt.Sprintf("interval %d at point %d, greedy %d", k, got, want)
		}
	}
	if got, want := fracOf(sol), g.frac; got.k != want.k || (got.k >= 0 && (got.from != g.point(want.from) || got.to != g.point(want.to))) {
		return fmt.Sprintf("fractional step %+v, greedy %+v", got, want)
	}
	return ""
}
