// Package frontier implements Perseus's core contribution (paper §4): the
// iterative graph cut-based characterization of a training pipeline's
// time-energy Pareto frontier, and the energy-schedule lookup that removes
// intrinsic and extrinsic energy bloat.
//
// Starting from the schedule where every computation runs at its
// minimum-energy duration (the frontier's right end, T*), each iteration
// reduces the iteration time by one unit τ with the smallest possible
// energy increase (Algorithm 1). One reduction step (Algorithm 2 /
// GetNextSchedule) works on the Critical DAG: any s-t cut of it speeds the
// whole DAG by τ when the S→T cut computations speed up by τ — and T→S cut
// computations may simultaneously slow down by τ, recovering energy. The
// cheapest such cut is a minimum cut of the Capacity DAG whose edges carry
// the marginal energies of the continuous relaxation (Appendix E), found
// by maximum flow with lower bounds.
package frontier

import (
	"errors"
	"fmt"
	"math"

	"perseus/internal/dag"
	"perseus/internal/fit"
	"perseus/internal/gpu"
	"perseus/internal/maxflow"
	"perseus/internal/profile"
)

// Options configure frontier characterization.
type Options struct {
	// Unit is the unit time τ in seconds (paper §4.2); each iteration of
	// the optimizer reduces iteration time by exactly one unit. Smaller
	// units give a finer frontier at higher optimization cost. Default
	// 1 ms, the paper's setting (Appendix B.4).
	Unit float64

	// MaxSteps caps optimizer iterations as a safety net. Default
	// 500000.
	MaxSteps int

	// Stepper selects the per-iteration strategy. Default MinCutStepper
	// (the paper's algorithm). GreedyStepper is the ablation baseline
	// that speeds up the single cheapest critical computation and fails
	// to handle parallel critical paths.
	Stepper Stepper

	// PiecewiseFit replaces the exponential relaxation with
	// piecewise-linear interpolation of the measured Pareto points
	// (ablation, DESIGN.md §5).
	PiecewiseFit bool

	// Solver selects the max-flow algorithm inside MinCutStepper's
	// min-cut subroutine, whether that stepper is the default or set
	// explicitly; GreedyStepper solves no flow and ignores it. Default
	// maxflow.EdmondsKarp, the paper's choice, which grows each step's
	// cut from the last; maxflow.Dinic computes identical cuts searching
	// from s every time, the reference, and is about 13 % slower at the
	// median of BenchmarkAblationMaxFlowSolver (1.71 vs 1.52 ms).
	Solver maxflow.Solver

	// keyframeEvery controls duration-snapshot spacing for plan
	// reconstruction; exposed for tests.
	keyframeEvery int
}

func (o Options) withDefaults() Options {
	if o.Unit <= 0 {
		o.Unit = 1e-3
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 500000
	}
	if o.Stepper == nil {
		o.Stepper = MinCutStepper{}
	}
	if o.keyframeEvery <= 0 {
		o.keyframeEvery = 256
	}
	return o
}

// Stepper finds the next energy schedule one unit-time faster than the
// current one.
type Stepper interface {
	// Step mutates st.durs to reduce the makespan by (at least) one
	// unit with minimal energy increase, returning false when no
	// further reduction is possible. It leaves in st.moved, in
	// ascending order, every computation whose duration it changed (and
	// possibly some it changed back), and calls st.durationsMoved after
	// the last change.
	Step(st *state) (bool, error)
}

// compInfo is the per-computation planning state derived from its type
// profile.
type compInfo struct {
	tp         *profile.TypeProfile
	curve      fit.Curve
	minU, maxU int64
	fixed      bool // single-choice duration (constant op or τ too coarse)
}

// state is the optimizer's working state for one Characterize call.
type state struct {
	g      *dag.Graph
	unit   float64
	info   []compInfo
	durs   []int64 // alias of g.Dur[:NumReal()]
	nReal  int
	solver maxflow.Solver

	moved []int32 // computations the last Step touched, ascending
	est   []int64 // earliest starts under the current durations; empty when they moved since
	mk    int64   // the makespan under the current durations; 0 when they moved since

	// cut is MinCutStepper's flow network and buffers, built by its first
	// Step and reused by every later one.
	cut       *cutNet
	fallbacks int // steps that fell back to the speed-up-only cut
	rebuilds  int // steps that rebuilt the Critical DAG
}

// starts returns the earliest starts under the current durations. The pass
// over the DAG runs once per change of durations: a step's revert check,
// Characterize's makespan read after it and the next step's critical-path
// analysis share it.
func (st *state) starts() []int64 {
	if len(st.est) == 0 {
		st.est = st.g.EarliestStartsInto(st.est)
		st.mk = st.est[st.g.Sink]
	}
	return st.est
}

// makespan returns the iteration time under the current durations: the one
// a step that knew it left, else the earliest starts' sink.
func (st *state) makespan() int64 {
	if st.mk == 0 {
		st.starts()
	}
	return st.mk
}

// durationsMoved drops the starts and makespan a change of st.durs
// outdated.
func (st *state) durationsMoved() { st.est, st.mk = st.est[:0], 0 }

// phi returns the relaxed adjusted energy of computation i at duration d.
func (st *state) phi(i int, d int64) float64 {
	ci := &st.info[i]
	if ci.fixed {
		return ci.tp.Points[0].Energy
	}
	return ci.curve.Eval(float64(d) * st.unit)
}

// marginals returns e+ (cost of speeding up by one unit) and e- (gain of
// slowing down by one unit) for computation i, clamped to be non-negative
// and consistent (e- <= e+), guarding against fit wiggle at the edges.
func (st *state) marginals(i int) (ePlus, eMinus float64) {
	d := st.durs[i]
	ci := &st.info[i]
	if d > ci.minU {
		ePlus = st.phi(i, d-1) - st.phi(i, d)
		if ePlus < 0 {
			ePlus = 0
		}
	}
	if d < ci.maxU {
		eMinus = st.phi(i, d) - st.phi(i, d+1)
		if eMinus < 0 {
			eMinus = 0
		}
	}
	if d > ci.minU && d < ci.maxU && eMinus > ePlus {
		eMinus = ePlus
	}
	return ePlus, eMinus
}

// Point is one energy schedule on the frontier.
type Point struct {
	// TimeUnits and Time give the planned iteration time.
	TimeUnits int64
	Time      float64

	// EnergyRelaxed is the relaxed objective Σ φ_i(t_i): adjusted energy
	// under the continuous fit.
	EnergyRelaxed float64

	// Energy is the discrete adjusted computation energy
	// Σ (e_i − P_blocking·t_i) after converting durations to real
	// frequencies.
	Energy float64

	// RawEnergy is the discrete unadjusted computation energy Σ e_i.
	RawEnergy float64

	index int
	f     *Frontier
}

// Durations returns the planned per-computation durations in τ units,
// indexed by DAG op id.
func (p Point) Durations() []int64 { return p.f.durationsAt(p.index) }

// Plan returns the realized frequency plan: for each computation, the
// slowest frequency not exceeding its planned duration (paper §4.3).
// Constant ops get frequency 0.
func (p Point) Plan() []gpu.Frequency {
	durs := p.Durations()
	plan := make([]gpu.Frequency, p.f.nReal)
	for i := 0; i < p.f.nReal; i++ {
		ci := &p.f.info[i]
		if ci.tp.Constant {
			continue
		}
		pt, _ := realize(ci, durs[i], p.f.Unit)
		plan[i] = pt.Freq
	}
	return plan
}

// realize converts a planned duration to the discrete Pareto choice. A
// duration at the computation's fastest bound means "as fast as possible"
// and always realizes the maximum frequency; otherwise quantization (ceil
// of MinTime to τ units) could admit one frequency step below maximum and
// silently slow the Tmin schedule.
func realize(ci *compInfo, dur int64, unit float64) (gpu.Point, float64) {
	if dur <= ci.minU {
		return ci.tp.Points[0], ci.tp.Raw[0]
	}
	return ci.tp.ForDuration(float64(dur) * unit)
}

// Frontier is the characterized time-energy tradeoff frontier: energy
// schedules from Tmin (all-max-frequency iteration time) to T* (minimum
// energy), one per unit time.
type Frontier struct {
	// Unit is τ in seconds.
	Unit float64

	// Graph is the computation DAG the frontier was characterized on.
	Graph *dag.Graph

	points []Point
	deltas [][]durDelta // per point, changes vs previous point
	keys   map[int][]int64
	keyStp int
	info   []compInfo
	nReal  int

	tminUnits, tstarUnits int64
	stats                 Stats
}

// Stats counts the work one characterization did and the size of the
// table it yields.
type Stats struct {
	Steps           int // stepper calls, the last of which may have found no cut
	EdgesMoved      int // network edges re-clamped by every min-cut solve together; the first clamps all
	Searches        int // breadth-first passes from a source (path searches or level graphs) run by them
	Grown           int // of those solves, the ones that grew the last S side instead of searching from s
	AugmentingPaths int // paths pushed by them
	Fallbacks       int // steps that fell back to the speed-up-only cut
	Rebuilds        int // steps that rebuilt the Critical DAG; the others kept the previous step's
	TablePoints     int // points Table keeps: the Pareto set
	HullPoints      int // of those, the lower convex hull's vertices (LookupTable.Hull)
}

// Stats returns the work counts of the characterization that built f.
func (f *Frontier) Stats() Stats { return f.stats }

type durDelta struct {
	comp  int32
	delta int8
}

// Tmin returns the shortest iteration time on the frontier in seconds.
func (f *Frontier) Tmin() float64 { return float64(f.tminUnits) * f.Unit }

// TStar returns the minimum-energy iteration time in seconds (paper §3.1).
func (f *Frontier) TStar() float64 { return float64(f.tstarUnits) * f.Unit }

// Points returns every frontier point ordered by increasing time.
func (f *Frontier) Points() []Point { return f.points }

// Lookup returns the energy schedule for a straggler iteration time
// tPrime, applying the universal prescription T_opt = min(T*, T')
// (paper Eq. 2): the schedule with the largest planned time not exceeding
// T_opt. A tPrime at or below Tmin returns the fastest schedule — only
// intrinsic bloat can be removed (Figure 3a).
func (f *Frontier) Lookup(tPrime float64) Point {
	topt := math.Min(tPrime, f.TStar())
	units := int64(math.Floor(topt/f.Unit + 1e-9))
	// Points are time-ascending; binary search the last one <= units.
	lo, hi := 0, len(f.points)-1
	if units <= f.points[0].TimeUnits {
		return f.points[0]
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if f.points[mid].TimeUnits <= units {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return f.points[lo]
}

// durationsAt reconstructs the duration vector of point idx from the
// nearest keyframe plus deltas.
func (f *Frontier) durationsAt(idx int) []int64 {
	base := idx - idx%f.keyStp
	durs := append([]int64(nil), f.keys[base]...)
	for i := base + 1; i <= idx; i++ {
		for _, d := range f.deltas[i] {
			durs[d.comp] += int64(d.delta)
		}
	}
	return durs
}

// Characterize computes the frontier of a pipeline's computation DAG given
// its profile (paper Algorithm 1).
func Characterize(g *dag.Graph, p *profile.Profile, opts Options) (*Frontier, error) {
	opts = opts.withDefaults()
	nReal := g.NumReal()
	if nReal == 0 {
		return nil, fmt.Errorf("frontier: empty DAG")
	}
	st := &state{g: g, unit: opts.Unit, nReal: nReal, solver: opts.Solver}
	st.info = make([]compInfo, nReal)
	for i, op := range g.Ops {
		tp, err := p.For(op)
		if err != nil {
			return nil, err
		}
		ci := compInfo{tp: tp}
		if opts.PiecewiseFit && !tp.Constant {
			var ts, es []float64
			for _, pt := range tp.Points {
				ts = append(ts, pt.Time)
				es = append(es, pt.Energy)
			}
			pw, err := fit.FitPiecewise(ts, es)
			if err != nil {
				return nil, fmt.Errorf("frontier: piecewise fit for op %d: %w", i, err)
			}
			ci.curve = pw
		} else {
			ci.curve = tp.Curve
		}
		// Round the fastest duration to the nearest unit: ceiling would
		// bias every critical-path computation ~τ/2 long, inflating Tmin
		// by τ/2 times the critical path length. Realization treats a
		// duration at minU as "maximum frequency" (see realize), so a
		// rounded-down plan still executes correctly.
		ci.minU = unitsRound(tp.MinTime(), opts.Unit)
		// Ceil so the slowest planned duration admits the true
		// minimum-energy frequency; longer plans are always realizable.
		ci.maxU = unitsCeil(tp.MaxTime(), opts.Unit)
		if ci.minU < 1 {
			ci.minU = 1
		}
		if ci.maxU < ci.minU {
			ci.maxU = ci.minU
		}
		if tp.Constant || ci.minU == ci.maxU {
			ci.fixed = true
			ci.maxU = ci.minU
		}
		st.info[i] = ci
	}

	// Tmin: makespan with every computation at its fastest duration
	// (paper §3.1: the iteration time of running everything at maximum
	// speed).
	for i := 0; i < nReal; i++ {
		g.Dur[i] = st.info[i].minU
	}
	tminUnits := g.Makespan()

	// Algorithm 1 line 1: begin with the minimum energy schedule.
	for i := 0; i < nReal; i++ {
		g.Dur[i] = st.info[i].maxU
	}
	st.durs = g.Dur[:nReal]

	f := &Frontier{
		Unit:      opts.Unit,
		Graph:     g,
		info:      st.info,
		nReal:     nReal,
		keyStp:    opts.keyframeEvery,
		keys:      map[int][]int64{},
		tminUnits: tminUnits,
	}

	// Incrementally maintained energy sums.
	var relaxed, adj, raw float64
	for i := 0; i < nReal; i++ {
		relaxed += st.phi(i, st.durs[i])
		pt, r := realize(&st.info[i], st.durs[i], opts.Unit)
		adj += pt.Energy
		raw += r
	}

	prevDurs := append([]int64(nil), st.durs...)
	record := func(mk int64) {
		idx := len(f.points)
		deltas := make([]durDelta, 0, len(st.moved))
		for _, i := range st.moved {
			if d := st.durs[i] - prevDurs[i]; d != 0 {
				deltas = append(deltas, durDelta{comp: i, delta: int8(d)})
				// Update energy sums incrementally.
				relaxed += st.phi(int(i), st.durs[i]) - st.phi(int(i), prevDurs[i])
				newPt, newRaw := realize(&st.info[i], st.durs[i], opts.Unit)
				oldPt, oldRaw := realize(&st.info[i], prevDurs[i], opts.Unit)
				adj += newPt.Energy - oldPt.Energy
				raw += newRaw - oldRaw
				prevDurs[i] = st.durs[i]
			}
		}
		f.deltas = append(f.deltas, deltas)
		if idx%f.keyStp == 0 {
			f.keys[idx] = append([]int64(nil), st.durs...)
		}
		f.points = append(f.points, Point{
			TimeUnits:     mk,
			Time:          float64(mk) * opts.Unit,
			EnergyRelaxed: relaxed,
			Energy:        adj,
			RawEnergy:     raw,
			index:         idx,
			f:             f,
		})
	}

	mk := st.makespan()
	f.tstarUnits = mk
	record(mk)
	for mk > tminUnits && f.stats.Steps < opts.MaxSteps {
		f.stats.Steps++
		ok, err := opts.Stepper.Step(st)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		newMk := st.makespan()
		if newMk >= mk {
			return nil, fmt.Errorf("frontier: step did not reduce makespan (%d -> %d)", mk, newMk)
		}
		mk = newMk
		record(mk)
	}
	f.stats.Fallbacks, f.stats.Rebuilds = st.fallbacks, st.rebuilds
	if st.cut != nil {
		nw := st.cut.nw
		f.stats.EdgesMoved, f.stats.Searches, f.stats.Grown, f.stats.AugmentingPaths = nw.EdgesMoved(), nw.Searches(), nw.Grown(), nw.AugmentingPaths()
	}

	// Reverse to time-ascending order and fix indices.
	for i, j := 0, len(f.points)-1; i < j; i, j = i+1, j-1 {
		f.points[i], f.points[j] = f.points[j], f.points[i]
	}
	for i := range f.points {
		f.points[i].f = f
	}
	keep := paretoSet(len(f.points), func(i int) float64 { return f.points[i].Energy })
	f.stats.TablePoints = len(keep)
	f.stats.HullPoints = len(lowerHull(nil, 0, len(keep)-1,
		func(i int) float64 { return float64(f.points[keep[i]].TimeUnits) },
		func(i int) float64 { return f.points[keep[i]].Energy }))
	return f, nil
}

func unitsCeil(sec, unit float64) int64 {
	return int64(math.Ceil(sec/unit - 1e-9))
}

func unitsRound(sec, unit float64) int64 {
	return int64(math.Round(sec / unit))
}

// MinCutStepper is the paper's GetNextSchedule (Algorithm 2): it removes
// non-critical computations, annotates the Critical DAG with marginal
// energy flow capacities (Eq. 8), and finds the minimum s-t cut via
// maximum flow with lower bounds. S→T cut computations speed up by one
// unit; T→S cut computations slow down by one unit, reclaiming energy
// (Appendix E.1).
//
// The value is stateless. What a step reuses lives in the state of the
// Characterize call it serves: one flow network over the whole DAG, built
// by the first step. A later step removes a computation or dependency from
// the Critical DAG by setting its edge's capacity to zero, and hands the
// network only the bounds that differ from the previous step's — those on
// and around the previous cut — so the network re-clamps, re-balances and
// re-routes just that much of the flow it kept (maxflow.Network).
//
// Most steps keep the Critical DAG itself. Call a step clean when its cut
// crosses the Critical DAG only forward: it did not fall back, and no
// critical computation (fixed or at its slowest included) or tight
// dependency is cut T→S. Every critical path then crosses the cut exactly
// once, at a sped-up computation, so it gets exactly one unit shorter, no
// path gets longer, and the makespan is mk−1. A critical computation's
// earliest start drops by one exactly when its in-node is on the T side,
// so the slack of a dependency between two critical computations moves by
// +1 when the cut crosses it T→S and −1 when S→T (the same as old +
// [in(v)∈T] − [in(w)∈T] + [v sped up]). Every other computation is far or
// near: far when its slack at the last rebuild exceeds nearSlack, which
// keeps it off the Critical DAG for that many clean steps at least (its
// slack drops by at most one a step); near otherwise, and then tracked
// exactly — its earliest and latest starts recomputed after each clean
// step over its critical and near neighbours, since a path through a far
// computation is too short to matter. After a clean step the next one
// keeps the Critical DAG — same critical computations, same tight
// dependencies — when every loose dependency between critical
// computations keeps positive slack, no near computation turned critical
// and the far ones' slack, lowered by one per clean step, is still ≥ 1.
// Such a step skips both start-time passes and the bounds loop over every
// node and prices only the computations the last cut moved; any other
// step rebuilds the Critical DAG from the earliest and latest starts. Both
// hand the network the same bounds, so the frontier is the same.
type MinCutStepper struct{}

// nearSlack is the most slack at a rebuild with which an off-DAG
// computation is tracked exactly: four units halve the rebuilds that the
// far ones' bound alone leaves on the bench's six frontiers.
const nearSlack = 4

// cutNet is MinCutStepper's working set. Computation v is flow node 2v
// (in) and 2v+1 (out); edge nodeEdge[v] joins them and carries v's
// bounds, and the edges after it, one per g.Succ[v] in order, are v's
// dependencies. The network's bounds are those the last step set: all
// zero on a computation that was off the Critical DAG (critical[v] false).
type cutNet struct {
	nw       *maxflow.Network
	nodeEdge []int32
	critical []bool // per computation: on the Critical DAG as of the last step
	was      []bool // the same as of the rebuild before
	slowed   []int32

	// lo[v], up[v] are computation v's bounds at duration boundDur[v]
	// (zero: never computed); most computations keep their duration from
	// one step to the next, and the bounds cost three curve evaluations.
	lo, up   []float64
	boundDur []int64

	// keep is set after a clean step that leaves the Critical DAG as it
	// was. slack bounds the far computations' slack from below; tight
	// lists the Critical DAG's dependencies and loose the other
	// dependencies between critical computations, with their slack; near
	// lists the near computations in topological order (isNear marks
	// them); est holds the earliest starts of the critical and near
	// computations and lst the latest starts of the near ones, theirs
	// over paths through critical and near computations only. All are as
	// of the current durations.
	keep     bool
	slack    int64
	tight    []dep
	loose    []looseDep
	near     []int32
	isNear   []bool
	est, lst []int64
}

// dep is a dependency v→w as the flow nodes it joins, out(v) and in(w).
type dep struct{ out, in int32 }

// looseDep is a dependency between two critical computations that lies on
// no critical path.
type looseDep struct {
	dep
	slack int64 // est[w] − est[v] − dur[v], positive
}

func newCutNet(g *dag.Graph) (*cutNet, error) {
	n := len(g.Dur)
	c := &cutNet{
		nodeEdge: make([]int32, n), critical: make([]bool, n), was: make([]bool, n),
		lo: make([]float64, n), up: make([]float64, n), boundDur: make([]int64, n),
		isNear: make([]bool, n), est: make([]int64, n),
	}
	var edges []maxflow.BoundedEdge
	for v := range g.Dur {
		c.nodeEdge[v] = int32(len(edges))
		edges = append(edges, maxflow.BoundedEdge{From: 2 * v, To: 2*v + 1})
		for _, w := range g.Succ[v] {
			edges = append(edges, maxflow.BoundedEdge{From: 2*v + 1, To: 2 * int(w)})
		}
	}
	c.tight = make([]dep, 0, len(edges)-n)
	var err error
	c.nw, err = maxflow.NewNetwork(2*n, edges, 2*g.Source, 2*g.Sink+1)
	return c, err
}

// price sets critical computation v's bounds at its current duration.
func (c *cutNet) price(st *state, v int) {
	lo, up := 0.0, math.Inf(1)
	if v < st.nReal && !st.info[v].fixed {
		if d := st.durs[v]; c.boundDur[v] != d {
			ePlus, eMinus := st.marginals(v)
			ci := &st.info[v]
			switch {
			case d == ci.maxU: // slowest: can only speed up
				c.lo[v], c.up[v] = 0, ePlus
			case d == ci.minU: // fastest: can only slow down
				c.lo[v], c.up[v] = eMinus, math.Inf(1)
			default:
				c.lo[v], c.up[v] = eMinus, ePlus
			}
			c.boundDur[v] = d
		}
		lo, up = c.lo[v], c.up[v]
	}
	c.nw.SetBounds(int(c.nodeEdge[v]), lo, up)
}

// rebuild finds the Critical DAG under the current durations, whose
// makespan is mk, and hands the network its bounds.
func (c *cutNet) rebuild(st *state, mk int64) {
	g := st.g
	st.rebuilds++
	est := st.starts()
	copy(c.est, est)
	c.lst = g.LatestStartsInto(c.lst, mk)
	c.was, c.critical = c.critical, c.was
	critical := c.critical
	for v := range critical {
		critical[v] = est[v] == c.lst[v]
	}
	critical[g.Source] = true
	critical[g.Sink] = true

	c.slack, c.tight, c.loose, c.near = math.MaxInt64, c.tight[:0], c.loose[:0], c.near[:0]
	for _, v := range g.Topo() {
		slack := c.lst[v] - est[v]
		c.isNear[v] = !critical[v] && slack <= nearSlack
		switch {
		case c.isNear[v]:
			c.near = append(c.near, v)
		case !critical[v]:
			c.slack = min(c.slack, slack)
		}
	}
	for v := range critical {
		e := int(c.nodeEdge[v])
		if !critical[v] {
			// Off the Critical DAG; its bounds are zero already unless it
			// was on it at the last rebuild.
			for i := 0; c.was[v] && i <= len(g.Succ[v]); i++ {
				c.nw.SetBounds(e+i, 0, 0)
			}
			continue
		}
		c.price(st, v)
		for i, w := range g.Succ[v] {
			// Only tight edges belong to the Critical DAG: both
			// endpoints critical and the dependency binding
			// (est[w] == est[v] + dur[v]). A slack dependency between
			// two critical nodes lies on no critical path and must not
			// constrain the cut.
			up := 0.0
			if critical[w] {
				d := dep{out: int32(2*v + 1), in: 2 * w}
				if slack := est[w] - est[v] - g.Dur[v]; slack > 0 {
					c.loose = append(c.loose, looseDep{d, slack})
				} else {
					c.tight = append(c.tight, d)
					up = math.Inf(1)
				}
			}
			c.nw.SetBounds(e+1+i, 0, up)
		}
	}
}

// keeps reports whether the step after a clean one, whose S side is side
// and which left makespan mk and the critical computations' earliest
// starts in c.est, may keep the Critical DAG. It brings the loose
// dependencies' slack and the near computations' starts up to date as it
// checks them.
func (c *cutNet) keeps(g *dag.Graph, side []bool, mk int64) bool {
	for _, d := range c.tight {
		if !side[d.out] && side[d.in] {
			return false // cut T→S
		}
	}
	for i := range c.loose {
		d := &c.loose[i]
		switch out, in := side[d.out], side[d.in]; {
		case !out && in:
			d.slack++
		case out && !in:
			if d.slack--; d.slack == 0 {
				return false // turned tight
			}
		}
	}
	if c.slack--; c.slack < 1 {
		return false // a far computation may have turned critical
	}
	c.est[g.Sink] = mk
	for _, u := range c.near {
		var est int64
		for _, p := range g.Pred[u] {
			if c.critical[p] || c.isNear[p] {
				est = max(est, c.est[p]+g.Dur[p])
			}
		}
		c.est[u] = est
	}
	for i := len(c.near) - 1; i >= 0; i-- {
		u := c.near[i]
		lst := int64(math.MaxInt64)
		for _, w := range g.Succ[u] {
			switch {
			case c.critical[w]:
				lst = min(lst, c.est[w])
			case c.isNear[w]:
				lst = min(lst, c.lst[w])
			}
		}
		if c.lst[u] = lst - g.Dur[u]; c.lst[u] == c.est[u] {
			return false // turned critical
		}
	}
	return true
}

// Step implements Stepper.
func (MinCutStepper) Step(st *state) (bool, error) {
	if st.cut == nil {
		c, err := newCutNet(st.g)
		if err != nil {
			return false, fmt.Errorf("frontier: min cut: %w", err)
		}
		st.cut = c
	}
	c := st.cut
	mk := st.makespan()
	if c.keep {
		// The last step was clean and kept every path's criticality: only
		// the computations it sped up have new bounds.
		for _, v := range st.moved {
			c.price(st, int(v))
		}
	} else {
		c.rebuild(st, mk)
	}
	critical := c.critical

	finite, err := c.nw.Solve(st.solver)
	clean := true
	if errors.Is(err, maxflow.ErrInfeasible) {
		// No circulation satisfies every slow-down credit (Hoffman
		// violation): some set of computations could be slowed for more
		// energy than their surroundings can absorb, meaning the relaxed
		// frontier has an improving rearrangement this step cannot
		// express. The paper's Algorithm 3 returns nil here without a
		// recovery; we fall back to the speed-up-only cut (all lower
		// bounds zero), which is always feasible and still reduces the
		// makespan by exactly one unit, at a slightly higher energy for
		// this step. The network kept what the failed attempt routed and
		// what it could not, so the retry re-clamps only the credits; the
		// next step rebuilds, which restores them.
		st.fallbacks++
		clean = false
		for v := 0; v < st.nReal; v++ {
			if critical[v] && !st.info[v].fixed {
				c.nw.SetBounds(int(c.nodeEdge[v]), 0, c.up[v])
			}
		}
		finite, err = c.nw.Solve(st.solver)
	}
	c.keep = false
	if err != nil {
		return false, fmt.Errorf("frontier: min cut: %w", err)
	}
	if !finite {
		return false, nil
	}

	side := c.nw.SSide()
	st.moved, c.slowed = st.moved[:0], c.slowed[:0]
	spedUp := 0
	for v := 0; v < st.nReal; v++ {
		if !critical[v] {
			continue
		}
		inS, outS := side[2*v], side[2*v+1]
		if !inS {
			c.est[v]-- // as a clean step leaves it
		}
		if !inS && outS {
			// Only a computation with a slow-down credit is cut T→S in
			// exact arithmetic, and it slows down; the check keeps a
			// rounding-level flow from passing for a clean step.
			clean = false
		}
		if st.info[v].fixed {
			continue
		}
		switch {
		case inS && !outS: // S→T cut edge: speed up
			if st.durs[v] <= st.info[v].minU {
				return false, fmt.Errorf("frontier: cut crosses computation %d already at its fastest", v)
			}
			st.durs[v]--
			st.moved = append(st.moved, int32(v))
			spedUp++
		case !inS && outS: // T→S cut edge: slow down
			if st.durs[v] < st.info[v].maxU {
				st.durs[v]++
				st.moved = append(st.moved, int32(v))
				c.slowed = append(c.slowed, int32(v))
			}
		}
	}
	st.durationsMoved()
	if spedUp == 0 {
		return false, fmt.Errorf("frontier: finite cut with no computations to speed up")
	}
	if clean && c.keeps(st.g, side, mk-1) {
		c.keep, st.mk = true, mk-1
	}

	// Safety check (DESIGN.md §3): slowing T→S computations is exact on
	// the Critical DAG but may lengthen a path through formerly
	// non-critical nodes. If the makespan did not drop by exactly one
	// unit, revert the slowdowns — speedups alone always reduce every
	// critical path and never lengthen any path.
	if len(c.slowed) > 0 && st.makespan() != mk-1 {
		for _, v := range c.slowed {
			st.durs[v]--
		}
		st.durationsMoved()
	}
	return true, nil
}

// GreedyStepper is the ablation baseline: speed up the single critical
// computation with the smallest marginal energy. It cannot reduce the
// makespan when two critical paths run in parallel (paper Figure 6's key
// observation), so it terminates early with a partial frontier.
type GreedyStepper struct{}

// Step implements Stepper.
func (GreedyStepper) Step(st *state) (bool, error) {
	g := st.g
	critical, mk := g.Critical()
	best, bestCost := -1, math.Inf(1)
	for v := 0; v < st.nReal; v++ {
		if !critical[v] || st.info[v].fixed || st.durs[v] <= st.info[v].minU {
			continue
		}
		ePlus, _ := st.marginals(v)
		if ePlus < bestCost {
			best, bestCost = v, ePlus
		}
	}
	if best < 0 {
		return false, nil
	}
	st.durs[best]--
	if g.Makespan() >= mk {
		// Parallel critical paths: a single speedup cannot help. Revert
		// and give up.
		st.durs[best]++
		return false, nil
	}
	st.moved = append(st.moved[:0], int32(best))
	st.durationsMoved()
	return true, nil
}
