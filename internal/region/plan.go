package region

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"perseus/internal/grid"
	pln "perseus/internal/plan"
)

// Options parameterizes the multi-region planner.
type Options struct {
	// Objective selects what to minimize; "" means carbon.
	Objective grid.Objective

	// Migration is the fixed pause-cost of moving a job between
	// regions; the zero value makes moves free.
	Migration MigrationCost

	// Workers has no effect: where nothing binds, the jobs' first
	// descents run on up to GOMAXPROCS goroutines, and everything else
	// runs on the calling goroutine. It is kept for callers that still
	// set it.
	Workers int

	// Seeds optionally warm-starts each job's descent from a prior
	// placement, keyed by job ID. A seed is one extra starting
	// candidate beside the usual single-region and rate-envelope
	// starts, and descent accepts it only on strict improvement — so a
	// stale or infeasible seed changes nothing, while a near-optimal
	// one (the previous MPC tick's plan) lets descent converge in a
	// move or two.
	Seeds map[string][]SeedSpan
}

// SeedSpan pins one stretch of a warm-start seed placement: run in
// Region over [StartS, EndS) seconds ("" or an unknown name pauses).
// Spans are expressed in time rather than cell indices because the
// common cell grid generally shifts between MPC ticks.
type SeedSpan struct {
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	Region string  `json:"region"`
}

// gaussSeidelRounds is the number of improvement rounds after the first
// sequential pass: each round re-plans every job against the others'
// committed placements.
const gaussSeidelRounds = 2

// Assignment is one cell of a job's placement sequence.
type Assignment struct {
	// Cell indexes Plan.Cells.
	Cell int `json:"cell"`

	// StartS and EndS bound the cell.
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`

	// Region indexes Plan.Regions; -1 means the job is paused.
	Region int `json:"region"`

	// Migrate marks the cell at whose start the job arrives from a
	// different region (checkpoint transfer downtime and energy are
	// charged here).
	Migrate bool `json:"migrate,omitempty"`
}

// JobPlan is one job's spatio-temporal schedule.
type JobPlan struct {
	// JobID names the job.
	JobID string `json:"job_id"`

	// Assignments is the per-cell placement in time order.
	Assignments []Assignment `json:"assignments"`

	// Temporal is the job's inner temporal plan over the composite
	// signal its placement induces (grid.Optimize output; points index
	// the job's lookup table), and Signal is that composite signal:
	// Temporal.Intervals(table, Signal) expands the plan. Signal is not
	// part of the wire form.
	Temporal *grid.Plan   `json:"temporal"`
	Signal   *grid.Signal `json:"-"`

	// Migrations counts region changes; the downtime and transfer
	// energy totals follow, with the energy priced at each arrival
	// cell's rates.
	Migrations         int     `json:"migrations"`
	MigrationDowntimeS float64 `json:"migration_downtime_s"`
	MigrationEnergyJ   float64 `json:"migration_energy_j"`
	MigrationCarbonG   float64 `json:"migration_carbon_g"`
	MigrationCostUSD   float64 `json:"migration_cost_usd"`

	// The embedded plan.Account totals the job including migration.
	pln.Account

	// Feasible reports whether the job completes its target by its
	// deadline under the placement.
	Feasible bool `json:"feasible"`
}

// Plan is a joint multi-region schedule for a set of jobs.
type Plan struct {
	// Objective is what the plan minimizes.
	Objective grid.Objective `json:"objective"`

	// HorizonS is the planning horizon in seconds.
	HorizonS float64 `json:"horizon_s"`

	// Regions lists the region names; Assignment.Region indexes it.
	Regions []string `json:"regions"`

	// Cells is the common planning grid (union of all regions' signal
	// boundaries).
	Cells []Cell `json:"cells"`

	// Jobs holds the per-job schedules in input order.
	Jobs []JobPlan `json:"jobs"`

	// The embedded plan.Account totals the plan including migration.
	pln.Account

	// Feasible reports whether every job meets its target and deadline.
	Feasible bool `json:"feasible"`

	// Stats counts the work the solve did; it is not part of the wire
	// form.
	Stats Stats `json:"-"`
}

// Stats counts one solve's work.
type Stats struct {
	Orders        int // job orders run (one when no region can bind)
	Descents      int // per-job descents
	Candidates    int // placements proposed to a job memo: starts, unpruned descent moves, incumbent re-evaluations, swap lookups
	Pruned        int // descent moves and swaps the Lagrangian bound ruled out: never proposed, never solved
	InnerSolves   int // proposals that missed and ran the inner temporal solver, totals only
	SwapSolves    int // the InnerSolves made for swap lookups
	MemoResets    int // non-empty memos dropped because the job's cap view changed
	MemoBytes     int // the job memos' high-water marks, summed
	Materialized  int // temporal plans built
	SwapsTried    int // range exchanges that change something and fit
	SwapsAccepted int
}

// add sums o's counts into s.
func (s *Stats) add(o Stats) {
	s.Orders += o.Orders
	s.Descents += o.Descents
	s.Candidates += o.Candidates
	s.Pruned += o.Pruned
	s.InnerSolves += o.InnerSolves
	s.SwapSolves += o.SwapSolves
	s.MemoResets += o.MemoResets
	s.MemoBytes += o.MemoBytes
	s.Materialized += o.Materialized
	s.SwapsTried += o.SwapsTried
	s.SwapsAccepted += o.SwapsAccepted
}

// MemoHits is the number of proposals a memo answered without a solve.
func (s Stats) MemoHits() int { return s.Candidates - s.InnerSolves }

// SpanAttrs lists the counts as key/value pairs for the solve's trace
// span.
func (p *Plan) SpanAttrs() []string {
	s := p.Stats
	return []string{
		"orders", strconv.Itoa(s.Orders), "descents", strconv.Itoa(s.Descents),
		"candidates", strconv.Itoa(s.Candidates), "pruned", strconv.Itoa(s.Pruned),
		"inner_solves", strconv.Itoa(s.InnerSolves),
		"memo_hits", strconv.Itoa(s.MemoHits()), "memo_resets", strconv.Itoa(s.MemoResets),
		"materialized", strconv.Itoa(s.Materialized),
		"swaps_tried", strconv.Itoa(s.SwapsTried), "swaps_accepted", strconv.Itoa(s.SwapsAccepted),
	}
}

// Total reads the plan total matching its objective.
func (p *Plan) Total() float64 { return p.Account.Total(p.Objective) }

// eval is one job's evaluated placement. It is born light — placement
// and outcome, all a comparison reads — and gains its temporal plan,
// migration summary and cell map only when planner.materialize is
// asked for them: by a commit at a capped cell, or by assembly.
type eval struct {
	placement []int
	outcome
	plan   *grid.Plan
	sig    *grid.Signal // the composite signal plan was solved on
	mig    migSummary
	cellOf []int
}

// usage tracks the capacity and power other jobs consume per
// (region, cell), so sequential planning respects shared limits.
type usage struct {
	gpus  [][]int     // [region][cell]
	peakW [][]float64 // [region][cell] peak planned power
}

func newUsage(nRegions, nCells int) *usage {
	u := &usage{gpus: make([][]int, nRegions), peakW: make([][]float64, nRegions)}
	for r := range u.gpus {
		u.gpus[r] = make([]int, nCells)
		u.peakW[r] = make([]float64, nCells)
	}
	return u
}

// apply commits (sign +1) or releases (sign -1) a job's evaluated
// placement: its GPUs and its power.
func (u *usage) apply(j *Job, ev *eval, sign int) {
	if ev == nil || ev.placement == nil {
		return
	}
	for k, r := range ev.placement {
		if r >= 0 {
			u.gpus[r][k] += sign * j.gpus()
		}
	}
	u.power(j, ev, sign)
}

// power adds (or removes) the peak power ev's temporal plan draws per
// cell. A light eval has no plan and draws nothing here: peakW is read
// only at capped cells, and planner.commit materializes every eval
// placed at one.
func (u *usage) power(j *Job, ev *eval, sign int) {
	if ev.plan == nil {
		return
	}
	// Peak slice power per cell, run by run via the composite-interval →
	// cell map.
	i := 0
	for _, run := range ev.plan.Runs {
		var peak float64
		if len(run.Slices) == 0 && run.Point != grid.Idle {
			peak = j.scale() * j.Table.AvgPower(run.Point)
		}
		for _, sl := range run.Slices {
			if p := j.scale() * j.Table.AvgPower(sl.Point); p > peak {
				peak = p
			}
		}
		for end := i + run.Count; i < end; i++ {
			k := ev.cellOf[i]
			if r := ev.placement[k]; r >= 0 {
				u.peakW[r][k] += float64(sign) * peak
			}
		}
	}
}

// planner bundles the planning context: the immutable instance
// (regions, cells, options, precomputed rates) plus the mutable solve
// state — committed usage, the solve's descender, and one candidate memo
// per job, kept for the whole solve.
type planner struct {
	regions []Region
	cells   []Cell
	horizon float64
	opts    Options
	usage   *usage

	rates   [][]cellRates // [region][cell]
	capAt   [][2]int      // the (region, cell)s that carry a power cap
	constPl [][]int       // per target t, t in every cell (constPl[t+1])
	memos   []jobMemo     // one per job; see descender.sync
	desc    descender     // descents, lookups and plans on the calling goroutine
	swapA   []int         // swapRefine's exchanged placements
	swapB   []int
	stats   Stats

	// swapRefine keeps one bound per job, priced at its incumbent's λ,
	// and walks both incumbents under both jobs' bounds (see splice):
	// a's and b's under a's, then b's and a's under b's. swapWalked is
	// false until the four are walked for the current pair and
	// incumbents.
	swapBnds   []bound
	swapWalks  [4]walk
	swapWalked bool

	// resetPerDescent is the differential tests' reference planner: every
	// sync drops the memo (each descent starts empty, each incumbent and
	// swap lookup is solved afresh), every job order is run in sequence
	// with every Gauss-Seidel round, and no bound prunes a move or a swap.
	resetPerDescent bool
}

// newPlanner validates the instance and builds a ready planner:
// normalized objective, common cell grid and rate table. The shared
// front half of every planning entry point (Optimize, Fixed, BestFixed,
// NoMigration), hoisted so BestFixed pays it once rather than once per
// region.
func newPlanner(regions []Region, jobs []Job, opts Options) (*planner, error) {
	if err := validate(regions, jobs, opts); err != nil {
		return nil, err
	}
	obj, err := grid.ParseObjective(string(opts.Objective))
	if err != nil {
		return nil, err
	}
	opts.Objective = obj

	horizon := 0.0
	maxSig := 0.0
	for i := range regions {
		if h := regions[i].Signal.Horizon(); h > maxSig {
			maxSig = h
		}
	}
	for i := range jobs {
		d := jobs[i].DeadlineS
		if d <= 0 {
			d = maxSig
		}
		if d > horizon {
			horizon = d
		}
	}
	cells := commonGrid(regions, horizon)
	p := &planner{
		regions: regions,
		cells:   cells,
		horizon: horizon,
		opts:    opts,
		rates:   rateTable(regions, cells),
	}
	for r := range p.rates {
		for k := range p.rates[r] {
			rc := &p.rates[r][k]
			rc.arrive = opts.Migration.charge(rc.carbon, rc.price).Total(obj)
			if rc.capW > 0 {
				p.capAt = append(p.capAt, [2]int{r, k})
			}
		}
	}
	for t := Paused; t < len(regions); t++ {
		p.constPl = append(p.constPl, slices.Repeat([]int{t}, len(cells)))
	}
	p.desc.init(len(p.constPl), &p.stats)
	return p, nil
}

// descender is what one goroutine's descents and lookups write: the
// compile buffers and inner solver, the incumbent and candidate
// buffers, and the bound and walks planJob prunes with — its incumbent's
// and, per target, planner.constPl's. The planner's own counts into
// planner.stats; each further one descendApart starts counts apart,
// added when it finishes.
type descender struct {
	scratch    evalScratch
	curPl      []int // descent incumbent placement
	tmpPl      []int // candidate construction buffer
	moveBnd    bound
	curWalk    walk
	constWalks []walk
	fits       []bool // planJob's per-target "every cell so far allowed" and "some cell changed"
	changed    []bool
	stats      *Stats
}

// init sizes d for n targets (len(planner.constPl)), counting into stats.
func (d *descender) init(n int, stats *Stats) {
	d.constWalks = make([]walk, n)
	d.fits = make([]bool, n)
	d.changed = make([]bool, n)
	d.stats = stats
}

// allowed reports whether the job fits region r's GPU capacity in cell
// k given the other jobs' committed placements.
func (p *planner) allowed(j *Job, r, k int) bool {
	if p.regions[r].GPUs > 0 && p.usage.gpus[r][k]+j.gpus() > p.regions[r].GPUs {
		return false
	}
	return true
}

// capOverride returns the cap left for one more job in (r, k): the
// region's effective cap minus the power other jobs' plans already
// draw there (0 = uncapped).
func (p *planner) capOverride(r, k int) float64 {
	capW := p.rates[r][k].capW
	if capW <= 0 {
		return 0
	}
	rem := capW - p.usage.peakW[r][k]
	if rem < forceIdleCapW {
		rem = forceIdleCapW
	}
	return rem
}

// origin resolves the job's Origin region name to an index (Paused
// when unset; validate guarantees a set name resolves).
func (p *planner) origin(j *Job) int {
	if j.Origin == "" {
		return Paused
	}
	for i := range p.regions {
		if p.regions[i].Name == j.Origin {
			return i
		}
	}
	return Paused
}

// gridOptions maps a job to its inner temporal-planner options.
func (p *planner) gridOptions(j *Job) grid.Options {
	return grid.Options{
		Target:     j.Target,
		DeadlineS:  j.DeadlineS,
		Objective:  p.opts.Objective,
		PowerScale: j.scale(),
	}
}

// evaluateFull evaluates a placement and materializes the full eval —
// temporal plan, composite signal and cell map included — for the
// baselines' candidates and for materialize. Compile runs in the
// scratch's buffers; the returned eval retains only fresh state (the
// plan, copies of the signal and the cell map), never the scratch.
func (p *planner) evaluateFull(s *evalScratch, j *Job, placement []int) (*eval, error) {
	p.stats.Materialized++
	sig, mig, cellOf := compileInto(&s.compileScratch, p.cells, p.rates, placement, p.origin(j), j.PausedUntilS, p.opts.Migration, p.capOverride)
	plan, err := s.solver.Optimize(j.Table, sig, p.gridOptions(j))
	if err != nil {
		return nil, err
	}
	return &eval{
		placement: placement,
		plan:      plan,
		sig:       &grid.Signal{Name: sig.Name, Intervals: slices.Clone(sig.Intervals)},
		mig:       mig,
		cellOf:    append([]int(nil), cellOf...),
		outcome: outcome{
			coverage: plan.Iterations,
			feasible: plan.Feasible,
			price:    plan.Price,
			cost:     plan.Total() + mig.Total(plan.Objective),
		},
	}, nil
}

// materialize builds the temporal plan of a light eval in place. The
// usage in force must be the usage ev was evaluated under wherever
// that matters — at capped cells — which holds for commit (called
// before anything else moves) and for assembly (an eval still light
// then touches no capped cell, so no usage can change its plan).
func (p *planner) materialize(j *Job, ev *eval) error {
	full, err := p.evaluateFull(&p.desc.scratch, j, ev.placement)
	if err != nil {
		return err
	}
	*ev = *full
	return nil
}

// commit adds ev to the committed usage, building its temporal plan
// first when the placement meets a capped cell: the power drawn there
// is the one thing a commit needs a plan for.
func (p *planner) commit(j *Job, ev *eval) error {
	if ev.plan == nil && p.touchesCap(ev.placement) {
		if err := p.materialize(j, ev); err != nil {
			return err
		}
	}
	p.usage.apply(j, ev, +1)
	return nil
}

// touchesCap reports whether the placement runs in any capped cell.
func (p *planner) touchesCap(placement []int) bool {
	for _, c := range p.capAt {
		if placement[c[1]] == c[0] {
			return true
		}
	}
	return false
}

// sync returns job ji's memo, valid for the usage now committed: it is
// reset unless the others' peak power at every capped cell is exactly
// what the memo's entries were solved under. Exact comparison means a
// view that drifted by float rounding only costs a re-solve.
func (d *descender) sync(p *planner, ji int) *jobMemo {
	m := &p.memos[ji]
	if m.keys != nil && !p.resetPerDescent && p.sameView(m.view) {
		return m
	}
	if len(m.entries) > 0 {
		d.stats.MemoResets++
	}
	m.reset()
	m.view = p.readView(m.view[:0])
	return m
}

// readView appends the cap view now in force to dst: the peak power the
// committed usage draws at each capped (region, cell).
func (p *planner) readView(dst []float64) []float64 {
	for _, c := range p.capAt {
		dst = append(dst, p.usage.peakW[c[0]][c[1]])
	}
	return dst
}

// sameView reports whether v, a readView result, is exactly the cap
// view now in force.
func (p *planner) sameView(v []float64) bool {
	if len(v) != len(p.capAt) {
		return false
	}
	for i, c := range p.capAt {
		if v[i] != p.usage.peakW[c[0]][c[1]] {
			return false
		}
	}
	return true
}

// pruneCutoff is the cost a bound must stay below for its candidate to
// be worth solving against an incumbent costing cost: half of
// betterOutcome's (and jointBetter's) tolerance, the other half left to
// absorb the bound's rounding. A candidate whose bound reaches it cannot
// strictly beat the incumbent, so skipping it changes no decision.
func pruneCutoff(cost float64) float64 { return cost - 0.5e-9*(1+math.Abs(cost)) }

// lookup returns the outcome of one placement for job ji against the
// usage now committed, solving it only if the job's memo has not seen
// it under this cap view.
func (p *planner) lookup(ji int, j *Job, placement []int) (outcome, error) {
	e, err := p.desc.propose(p, p.desc.sync(p, ji), j, placement)
	if err != nil {
		return outcome{}, err
	}
	return p.memos[ji].entries[e].out, nil
}

// propose interns a candidate placement in the job's memo, which must be
// valid for the usage now committed (see sync), and returns its entry,
// solving the placement first when the memo has not seen it.
func (d *descender) propose(p *planner, m *jobMemo, j *Job, pl []int) (int32, error) {
	e := m.intern(pl)
	d.stats.Candidates++
	if !m.entries[e].solved {
		out, err := p.evaluateLight(&d.scratch, j, pl)
		if err != nil {
			return 0, err
		}
		m.entries[e].out, m.entries[e].solved = out, true
		d.stats.InnerSolves++
	}
	return e, nil
}

// evaluateLight evaluates a placement to its comparison outcome only —
// no plan, no allocations in steady state. grid.Solver.Evaluate totals
// with arithmetic bit-identical to Optimize's, so light and full
// evaluations of the same placement always agree; every comparison the
// planner makes is on light outcomes (see materialize).
func (p *planner) evaluateLight(s *evalScratch, j *Job, placement []int) (outcome, error) {
	sig, mig, _ := compileInto(&s.compileScratch, p.cells, p.rates, placement, p.origin(j), j.PausedUntilS, p.opts.Migration, p.capOverride)
	ev, err := s.solver.Evaluate(j.Table, sig, p.gridOptions(j))
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		cost:     ev.Total(p.opts.Objective) + mig.Total(p.opts.Objective),
		coverage: ev.Iterations,
		price:    ev.Price,
		feasible: ev.Feasible,
	}, nil
}

// regionIndex resolves a region name to its index, -1 when unknown.
func (p *planner) regionIndex(name string) int {
	for i := range p.regions {
		if p.regions[i].Name == name {
			return i
		}
	}
	return -1
}

// seedPlacement converts the job's warm-start seed spans to a
// placement on the current cell grid: each cell takes the region of
// the span covering its midpoint, clamped to Paused past the deadline,
// where the region is unknown, or where capacity is already committed.
// Returns nil when the job has no seed or the seed places nothing.
func (p *planner) seedPlacement(j *Job, kEnd int) []int {
	spans := p.opts.Seeds[j.ID]
	if len(spans) == 0 {
		return nil
	}
	pl := make([]int, len(p.cells))
	any := false
	for k, c := range p.cells {
		pl[k] = Paused
		if k >= kEnd {
			continue
		}
		mid := (c.StartS + c.EndS) / 2
		for _, sp := range spans {
			if mid < sp.StartS || mid >= sp.EndS {
				continue
			}
			if r := p.regionIndex(sp.Region); r >= 0 && p.allowed(j, r, k) {
				pl[k] = r
				any = true
			}
			break
		}
	}
	if !any {
		return nil
	}
	return pl
}

// deadline resolves the job's deadline: the planning horizon when unset.
func (p *planner) deadline(j *Job) float64 {
	if j.DeadlineS <= 0 {
		return p.horizon
	}
	return j.DeadlineS
}

// kEnd returns the first cell index at or beyond the job's deadline;
// cells from there on are forced to Paused (they cannot contribute).
func (p *planner) kEnd(j *Job) int {
	d := p.deadline(j)
	for k, c := range p.cells {
		if c.StartS >= d {
			return k
		}
	}
	return len(p.cells)
}

// starts builds the candidate starting placements: each single region
// (capacity permitting, Paused where blocked) and the per-cell
// rate-envelope placement (the allowed region with the lowest
// objective rate — optimal when migration is free).
func (p *planner) starts(j *Job) [][]int {
	kEnd := p.kEnd(j)
	K := len(p.cells)
	var out [][]int
	for r := range p.regions {
		pl := make([]int, K)
		for k := range pl {
			pl[k] = Paused
			if k < kEnd && p.allowed(j, r, k) {
				pl[k] = r
			}
		}
		out = append(out, pl)
	}
	env := make([]int, K)
	for k := range env {
		env[k] = Paused
		if k >= kEnd {
			continue
		}
		best, bestRate := Paused, math.Inf(1)
		for r := range p.regions {
			if !p.allowed(j, r, k) {
				continue
			}
			rate := p.rates[r][k].carbon
			if p.opts.Objective == grid.ObjectiveCost {
				rate = p.rates[r][k].price
			}
			if rate < bestRate {
				best, bestRate = r, rate
			}
		}
		env[k] = best
	}
	out = append(out, env)
	return out
}

// planJob finds one job's placement by steepest descent over
// contiguous segment moves, starting from the best candidate start:
// every move re-assigns one cell range [i, k] to one region t (or to
// Paused) and is evaluated exactly via the inner temporal planner, so
// the descent only accepts moves whose full spatio-temporal cost —
// migration pause-costs included — strictly improves.
//
// Each descent sweep generates the moves in canonical (i, k, t) order,
// tracking per target as k grows whether every cell of the range is
// allowed and whether any changes. A move is priced by the Lagrangian
// bound at the feasible incumbent's λ before it is built — spliced from
// the walks of the incumbent and of t in every cell — and one whose
// bound reaches pruneCutoff could never be accepted, so it is dropped
// unproposed. The rest are looked up in the job memo, solved on a miss,
// and compared in generation order with strict comparisons, so ties go
// to the first and the descent is the one that solves every move. The
// memo outlives the descent (see jobMemo): a re-plan of the same job
// under an unchanged cap view re-proposes what an earlier descent
// solved and reads it back. The winner is returned light.
func (d *descender) planJob(p *planner, ji int, j *Job) (*eval, error) {
	m := d.sync(p, ji)
	d.stats.Descents++
	kEnd := p.kEnd(j)

	starts := p.starts(j)
	if seed := p.seedPlacement(j, kEnd); seed != nil {
		starts = append(starts, seed)
	}
	var cur outcome
	haveCur := false
	for _, pl := range starts {
		e, err := d.propose(p, m, j, pl)
		if err != nil {
			return nil, err
		}
		if out := m.entries[e].out; betterOutcome(out, cur, haveCur) {
			cur, haveCur = out, true
			d.curPl = append(d.curPl[:0], pl...)
		}
	}

	// Each accepted move strictly improves, so this bound only cuts off
	// pathological slow convergence; observed descents take well under
	// a tenth of it.
	const maxMoves = 64
	for move := 0; move < maxMoves; move++ {
		// A feasible incumbent's λ prices every move before it is solved:
		// a move whose Lagrangian bound reaches the cutoff cannot be
		// accepted, so it is never proposed.
		prune := cur.feasible && cur.price >= 0 && !p.resetPerDescent
		if prune {
			if d.moveBnd.prepare(p, ji, j, cur.price) {
				for x, pl := range p.constPl {
					d.moveBnd.walk(p, &d.constWalks[x], pl)
				}
			}
			d.moveBnd.walk(p, &d.curWalk, d.curPl)
		}
		cutoff := pruneCutoff(cur.cost)
		bestE := int32(-1)
		var best outcome
		for i := 0; i < kEnd; i++ {
			for x := range d.fits {
				d.fits[x], d.changed[x] = true, false
			}
			for k := i; k < kEnd; k++ {
				for x := range d.fits {
					t := x - 1 // x indexes constPl: Paused, then the regions
					if t >= 0 && !p.allowed(j, t, k) {
						d.fits[x] = false
					}
					if !d.fits[x] {
						continue
					}
					d.changed[x] = d.changed[x] || d.curPl[k] != t
					if !d.changed[x] {
						continue
					}
					if prune && d.moveBnd.splice(p, &d.curWalk, &d.constWalks[x], i, k) >= cutoff {
						d.stats.Pruned++
						continue
					}
					cand := append(d.tmpPl[:0], d.curPl...)
					for c := i; c <= k; c++ {
						cand[c] = t
					}
					d.tmpPl = cand
					e, err := d.propose(p, m, j, cand)
					if err != nil {
						return nil, err
					}
					if out := m.entries[e].out; betterOutcome(out, cur, true) && betterOutcome(out, best, bestE >= 0) {
						best, bestE = out, e
					}
				}
			}
		}
		if bestE < 0 {
			break
		}
		cur = best
		d.curPl = append(d.curPl[:0], m.placement(bestE)...)
	}
	return &eval{placement: append([]int(nil), d.curPl...), outcome: cur}, nil
}

// Optimize plans the joint spatio-temporal schedule: for every job a
// per-cell (region | pause) placement with migration pause-costs, and
// within it the exact optimal temporal frequency plan, minimizing the
// total objective subject to each job's target and deadline, each
// region's GPU capacity, and each region's facility and interval power
// caps (shared across the jobs placed there).
//
// Jobs are planned sequentially against the committed usage of earlier
// jobs, then refined with gaussSeidelRounds rounds of Gauss-Seidel
// (each job re-planned against all others) and pairwise range swaps,
// over several job orders when the instance can bind (see binds). Per
// job the search is steepest descent over contiguous segment moves
// from the best of the single-region and rate-envelope starts (plus
// any warm-start seed); every candidate — a descent move, a re-checked
// incumbent, either half of a swap — is costed exactly by the inner
// temporal solver on the placement's composite signal, so temporal
// shifting, pausing, and migration trade off in one objective, and is
// costed once: outcomes are memoized per job for the whole solve
// (jobMemo), and a temporal plan is built only for a placement that
// is committed at a capped cell or wins. A descent move or swap is
// first priced by a Lagrangian lower bound at the incumbent's λ
// (bound), read in O(1) amortized off walks of the placements it is
// spliced from: one that provably cannot strictly beat the incumbent is
// never solved, which leaves every accepted move as it was. Where
// nothing binds (see binds) no job's descent reads what another commits:
// the first descents run side by side on up to GOMAXPROCS goroutines,
// and the Gauss-Seidel round right after them, which cannot move a job,
// is skipped; the plan does not depend on GOMAXPROCS. Otherwise the
// solve runs on the calling goroutine. brute_test.go cross-checks the
// result against exhaustive placement enumeration on small instances;
// memo_test.go checks it against the same planner run in sequence, with
// the memo dropped before every use and nothing pruned or skipped.
func Optimize(regions []Region, jobs []Job, opts Options) (*Plan, error) {
	return plan(regions, jobs, opts, nil)
}

// Fixed plans the single-datacenter baseline: every job runs in the
// named region for the whole horizon (pausing only via its temporal
// plan), with the same capacity and cap accounting as Optimize, so the
// two are directly comparable at equal iterations completed.
func Fixed(regions []Region, jobs []Job, name string, opts Options) (*Plan, error) {
	p, err := newPlanner(regions, jobs, opts)
	if err != nil {
		return nil, err
	}
	idx := p.regionIndex(name)
	if idx < 0 {
		return nil, fmt.Errorf("region: unknown region %q", name)
	}
	return p.solveAll(jobs, fixedCandidates(idx))
}

// fixedCandidates restricts a solve to the single-region start idx.
func fixedCandidates(idx int) func(*planner, *Job) [][]int {
	return func(p *planner, j *Job) [][]int {
		return [][]int{p.starts(j)[idx]}
	}
}

// BestFixed plans Fixed for every region and returns the best plan
// (feasible first, then lowest objective) — the strongest baseline
// that never moves a job after choosing one datacenter for the fleet.
// Validation and the common cell grid are built once and shared by the
// per-region solves, which run in region order; ties keep the first.
func BestFixed(regions []Region, jobs []Job, opts Options) (*Plan, error) {
	p, err := newPlanner(regions, jobs, opts)
	if err != nil {
		return nil, err
	}
	var best *Plan
	for i := range regions {
		pl, err := p.solveAll(jobs, fixedCandidates(i))
		if err != nil {
			return nil, err
		}
		if best == nil || (pl.Feasible && !best.Feasible) ||
			(pl.Feasible == best.Feasible && pl.Total() < best.Total()) {
			best = pl
		}
	}
	return best, nil
}

// NoMigration plans the placement-without-moves baseline: each job
// independently picks its single best region (sequentially, capacity
// respected) and stays there — spatial choice without the temporal
// freedom to chase another region's clean hours.
func NoMigration(regions []Region, jobs []Job, opts Options) (*Plan, error) {
	return plan(regions, jobs, opts, func(p *planner, j *Job) [][]int {
		return p.starts(j)[:len(p.regions)]
	})
}

// plan is the shared orchestration: build the planner, then solve.
func plan(regions []Region, jobs []Job, opts Options, candidates func(*planner, *Job) [][]int) (*Plan, error) {
	p, err := newPlanner(regions, jobs, opts)
	if err != nil {
		return nil, err
	}
	return p.solveAll(jobs, candidates)
}

// solveAll plans the jobs sequentially with committed usage: the full
// planner (descent + improvement rounds over several job orders) when
// candidates is nil, otherwise a baseline restricted to the candidates
// it returns, in input order. Each call starts from empty memos and
// counts.
func (p *planner) solveAll(jobs []Job, candidates func(*planner, *Job) [][]int) (*Plan, error) {
	p.memos = make([]jobMemo, len(jobs))
	p.stats = Stats{}
	// Sequential planning is order-dependent under capacity contention:
	// the full planner tries every job order on small fleets (rotations
	// on larger ones) and keeps the best joint outcome; baselines keep
	// input order, matching their "first come, first placed" story.
	ords := orders(len(jobs), candidates == nil)
	if p.independent(jobs) {
		ords = ords[:1]
	}
	var best []*eval
	for _, order := range ords {
		evals, err := p.runOrder(jobs, order, candidates)
		if err != nil {
			return nil, err
		}
		if best == nil || jointBetter(evals, best) {
			best = evals
		}
	}
	for i, ev := range best {
		if ev.plan == nil {
			if err := p.materialize(&jobs[i], ev); err != nil {
				return nil, err
			}
		}
	}
	out := assemble(p, jobs, best)
	out.Stats = p.stats
	for i := range p.memos {
		out.Stats.MemoBytes += max(p.memos[i].peak, p.memos[i].bytes())
	}
	return out, nil
}

// binds reports whether what one job is offered or charged can depend
// on where the others sit: some cell carries a power cap, or some
// region has fewer GPUs than the whole fleet asks for. When nothing
// binds, allowed is true and capOverride is 0 whatever is committed, so
// every descent, incumbent re-evaluation and swap sees the same inputs
// in every job order (swaps walk pairs in index order, not job order):
// each order replays the first one evaluation for evaluation, and
// solveAll runs only the first.
func (p *planner) binds(jobs []Job) bool {
	total := 0
	for i := range jobs {
		total += jobs[i].gpus()
	}
	for i := range p.regions {
		if g := p.regions[i].GPUs; g > 0 && g < total {
			return true
		}
	}
	return len(p.capAt) > 0
}

// independent reports whether the solve may use that nothing binds (see
// binds): run one job order, plan the first descents side by side and
// skip the first Gauss-Seidel round. The reference planner never does.
func (p *planner) independent(jobs []Job) bool {
	return !p.resetPerDescent && !p.binds(jobs)
}

// runOrder plans the jobs in the given order against fresh usage, then
// (full planner only) refines with Gauss-Seidel rounds and pairwise
// swaps. Where the jobs are independent the first Gauss-Seidel round is
// skipped: it would re-run every descent from the same starts on the
// same inputs and memo, so it cannot move a job. A round after an
// accepted swap still runs: a swap judged on the pair's joint total can
// leave one job worse, and re-planning it repairs that.
func (p *planner) runOrder(jobs []Job, order []int, candidates func(*planner, *Job) [][]int) ([]*eval, error) {
	p.stats.Orders++
	evals, err := p.firstPass(jobs, order, candidates)
	if err != nil || candidates != nil {
		return evals, err
	}
	skip := p.independent(jobs)
	for round := 0; round < gaussSeidelRounds; round++ {
		gs := false
		if round > 0 || !skip {
			if gs, err = p.gaussSeidel(jobs, order, evals); err != nil {
				return nil, err
			}
		}
		sw, err := p.swapRefine(jobs, evals)
		if err != nil {
			return nil, err
		}
		if !gs && !sw {
			break
		}
	}
	return evals, nil
}

// firstPass plans the jobs in the given order against fresh usage, each
// committed before the next is planned. Where the jobs are independent
// the full planner's descents are made first, side by side
// (descendApart), and committed in order after.
func (p *planner) firstPass(jobs []Job, order []int, candidates func(*planner, *Job) [][]int) ([]*eval, error) {
	p.usage = newUsage(len(p.regions), len(p.cells))
	evals := make([]*eval, len(jobs))
	if candidates == nil && p.independent(jobs) {
		if err := p.descendApart(jobs, order, evals); err != nil {
			return nil, err
		}
	}
	for _, i := range order {
		if evals[i] == nil {
			ev, err := p.solveJob(jobs, i, candidates)
			if err != nil {
				return nil, err
			}
			evals[i] = ev
		}
		if err := p.commit(&jobs[i], evals[i]); err != nil {
			return nil, err
		}
	}
	return evals, nil
}

// descendApart fills evals with every job's descent, run on up to
// GOMAXPROCS goroutines: the calling one with the planner's descender,
// each further one with its own, whose counts are added to the
// planner's when all are done. Only independent jobs may plan apart:
// then allowed is true and capOverride 0 whatever is committed, and each
// job has its own memo, so no descent reads what another writes and each
// is the descent it would be in sequence. When several fail, the error
// is the first failed job's in order.
func (p *planner) descendApart(jobs []Job, order []int, evals []*eval) error {
	errs := make([]error, len(jobs))
	more := make([]descender, min(runtime.GOMAXPROCS(0), len(jobs))-1)
	counts := make([]Stats, len(more))
	var next atomic.Int64
	work := func(d *descender) {
		for i := int(next.Add(1)) - 1; i < len(jobs); i = int(next.Add(1)) - 1 {
			evals[i], errs[i] = d.planJob(p, i, &jobs[i])
		}
	}
	var wg sync.WaitGroup
	for w := range more {
		more[w].init(len(p.constPl), &counts[w])
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(&more[w])
		}()
	}
	work(&p.desc)
	wg.Wait()
	for _, c := range counts {
		p.stats.add(c)
	}
	for _, i := range order {
		if errs[i] != nil {
			return errs[i]
		}
	}
	return nil
}

// solveJob plans job i against the committed usage: the descent, or
// the best of a baseline's candidates.
func (p *planner) solveJob(jobs []Job, i int, candidates func(*planner, *Job) [][]int) (*eval, error) {
	j := &jobs[i]
	if candidates == nil {
		return p.desc.planJob(p, i, j)
	}
	var best *eval
	for _, pl := range candidates(p, j) {
		ev, err := p.evaluateFull(&p.desc.scratch, j, pl)
		if err != nil {
			return nil, err
		}
		if best == nil || betterOutcome(ev.outcome, best.outcome, true) {
			best = ev
		}
	}
	return best, nil
}

// gaussSeidel re-plans every job in order against the others'
// committed placements and reports whether any job improved.
func (p *planner) gaussSeidel(jobs []Job, order []int, evals []*eval) (bool, error) {
	improved := false
	for _, i := range order {
		j := &jobs[i]
		p.usage.apply(j, evals[i], -1)
		// Look the incumbent up against the others' current placements:
		// its stored outcome may be stale (under an unchanged cap view
		// this is a memo hit).
		out, err := p.lookup(i, j, evals[i].placement)
		if err != nil {
			return false, err
		}
		cur := &eval{placement: evals[i].placement, outcome: out}
		ev, err := p.desc.planJob(p, i, j)
		if err != nil {
			return false, err
		}
		if betterOutcome(ev.outcome, out, true) {
			cur = ev
			improved = true
		}
		evals[i] = cur
		if err := p.commit(j, cur); err != nil {
			return false, err
		}
	}
	return improved, nil
}

// swapCell reports whether exchanging two jobs' placements pa and pb
// at cell c changes it, and whether the exchange fits every region's
// GPUs there. Where they differ b takes a's seat and a takes b's; both
// incumbents are committed, so a region's load moves by the difference
// of the two jobs' sizes, and where they agree the cell fits as it did.
func (p *planner) swapCell(ja, jb *Job, pa, pb []int, c int) (differs, fits bool) {
	if pa[c] == pb[c] {
		return false, true
	}
	over := func(r, delta int) bool {
		return r >= 0 && p.regions[r].GPUs > 0 && p.usage.gpus[r][c]+delta > p.regions[r].GPUs
	}
	d := jb.gpus() - ja.gpus()
	return true, !over(pa[c], d) && !over(pb[c], -d)
}

// swapRefine runs pairwise segment-swap descent: for every job pair
// and every contiguous cell range, exchange the two jobs' placements
// over the range and keep the swap when the joint outcome improves.
// This is the move capacity contention demands — two jobs wanting the
// same region's clean hours must trade them, which no single-job
// re-plan can express — and it returns whether anything improved.
//
// A range [i, k] is tried when it changes something and every cell of
// it fits (swapCell, tracked as k grows: an accepted swap leaves its
// range fitting, since exchanging it back would restore the load it
// replaced, which fit). A candidate is then priced by the two jobs'
// Lagrangian bounds (swapPruned), and only then built and looked up
// twice: b's exchanged placement with both jobs' power withdrawn, a's
// with b's exchanged placement drawing in their place. Only an accepted
// swap touches the committed GPUs or builds a plan that no capped cell
// asked for.
func (p *planner) swapRefine(jobs []Job, evals []*eval) (bool, error) {
	K := len(p.cells)
	improved := false
	solves := p.stats.InnerSolves
	if len(p.swapBnds) < len(jobs) {
		p.swapBnds = make([]bound, len(jobs))
	}
	for a := 0; a < len(jobs); a++ {
		for b := a + 1; b < len(jobs); b++ {
			ja, jb := &jobs[a], &jobs[b]
			p.swapWalked = false
			for i := 0; i < K; i++ {
				changed := false
				for k := i; k < K; k++ {
					ea, eb := evals[a], evals[b]
					differs, fits := p.swapCell(ja, jb, ea.placement, eb.placement, k)
					if !fits {
						break
					}
					if changed = changed || differs; !changed {
						continue
					}
					p.stats.SwapsTried++
					p.drawPair(ja, jb, ea, eb, -1)
					if p.swapPruned(a, b, ja, jb, ea, eb, i, k) {
						p.drawPair(ja, jb, ea, eb, +1)
						p.stats.Pruned++
						continue
					}
					p.swapA = append(p.swapA[:0], ea.placement...)
					p.swapB = append(p.swapB[:0], eb.placement...)
					copy(p.swapA[i:k+1], eb.placement[i:k+1])
					copy(p.swapB[i:k+1], ea.placement[i:k+1])
					na, nb := eval{placement: p.swapA}, eval{placement: p.swapB}
					var err error
					accept := false
					if nb.outcome, err = p.lookup(b, jb, nb.placement); err == nil && p.touchesCap(nb.placement) {
						err = p.materialize(jb, &nb)
					}
					if err == nil {
						p.usage.power(jb, &nb, +1)
						if na.outcome, err = p.lookup(a, ja, na.placement); err == nil {
							accept = jointBetter([]*eval{&na, &nb}, []*eval{ea, eb})
							if accept && p.touchesCap(na.placement) {
								err = p.materialize(ja, &na)
							}
						}
						p.usage.power(jb, &nb, -1)
					}
					p.drawPair(ja, jb, ea, eb, +1)
					if err != nil {
						return false, err
					}
					if !accept {
						continue
					}
					// The accepted evals leave the swap buffers for good.
					ka, kb := na, nb
					ka.placement = append([]int(nil), na.placement...)
					kb.placement = append([]int(nil), nb.placement...)
					p.usage.apply(ja, ea, -1)
					p.usage.apply(jb, eb, -1)
					evals[a], evals[b] = &ka, &kb
					p.usage.apply(ja, &ka, +1)
					p.usage.apply(jb, &kb, +1)
					p.swapWalked = false
					p.stats.SwapsAccepted++
					improved = true
				}
			}
		}
	}
	p.stats.SwapSolves += p.stats.InnerSolves - solves
	return improved, nil
}

// drawPair adds (sign +1) or withdraws (-1) the power two incumbents
// draw while swapRefine prices an exchange of their cells. Only a capped
// cell reads power, so with none it leaves the usage alone.
func (p *planner) drawPair(ja, jb *Job, ea, eb *eval, sign int) {
	if len(p.capAt) == 0 {
		return
	}
	p.usage.power(ja, ea, sign)
	p.usage.power(jb, eb, sign)
}

// swapPruned reports whether the Lagrangian bounds on the placements
// exchanging ea's and eb's cells [i, k] prove the swap cannot beat the
// two feasible incumbents. Both jobs' power is withdrawn when it is
// called; b's lookup is made in that view, a's with b's exchanged plan
// drawing, and a tighter cap only raises a bound, so the bound in this
// view holds for both. Each job's bound splices its incumbent's walk
// with the other's, walked again only when the bound re-prices or the
// pair or its incumbents changed.
func (p *planner) swapPruned(a, b int, ja, jb *Job, ea, eb *eval, i, k int) bool {
	if p.resetPerDescent || !ea.feasible || !eb.feasible || ea.price < 0 || eb.price < 0 {
		return false
	}
	ba, bb, w := &p.swapBnds[a], &p.swapBnds[b], &p.swapWalks
	if ba.prepare(p, a, ja, ea.price) || !p.swapWalked {
		ba.walk(p, &w[0], ea.placement)
		ba.walk(p, &w[1], eb.placement)
	}
	if bb.prepare(p, b, jb, eb.price) || !p.swapWalked {
		bb.walk(p, &w[2], eb.placement)
		bb.walk(p, &w[3], ea.placement)
	}
	p.swapWalked = true
	lo := ba.splice(p, &w[0], &w[1], i, k) + bb.splice(p, &w[2], &w[3], i, k)
	return lo >= pruneCutoff(ea.cost+eb.cost)
}

// orders lists the job orders to try: input order for baselines, all
// permutations up to 3 jobs (rotations beyond, so the order count
// stays linear in fleet size) for the planner.
func orders(n int, descend bool) [][]int {
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	if !descend || n == 1 {
		return [][]int{id}
	}
	if n <= 3 {
		var out [][]int
		var permute func(rest, acc []int)
		permute = func(rest, acc []int) {
			if len(rest) == 0 {
				out = append(out, append([]int(nil), acc...))
				return
			}
			for i := range rest {
				next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
				permute(next, append(acc, rest[i]))
			}
		}
		permute(id, nil)
		return out
	}
	out := make([][]int, n)
	for s := 0; s < n; s++ {
		rot := make([]int, n)
		for i := range rot {
			rot[i] = id[(i+s)%n]
		}
		out[s] = rot
	}
	return out
}

// jointBetter compares two joint outcomes: fewer infeasible jobs wins,
// then the lower total objective (migration included).
func jointBetter(a, b []*eval) bool {
	infeas := func(evs []*eval) (n int, cost float64) {
		for _, ev := range evs {
			if !ev.feasible {
				n++
			}
			cost += ev.cost
		}
		return n, cost
	}
	an, ac := infeas(a)
	bn, bc := infeas(b)
	if an != bn {
		return an < bn
	}
	return ac < bc-1e-9*(1+math.Abs(bc))
}

// assemble turns the per-job evaluations into the public Plan.
func assemble(p *planner, jobs []Job, evals []*eval) *Plan {
	out := &Plan{
		Objective: p.opts.Objective,
		HorizonS:  p.horizon,
		Cells:     p.cells,
		Feasible:  true,
	}
	for i := range p.regions {
		out.Regions = append(out.Regions, p.regions[i].Name)
	}
	for i := range jobs {
		ev := evals[i]
		arrivals := map[int]bool{}
		for _, m := range migrations(p.origin(&jobs[i]), ev.placement) {
			arrivals[m] = true
		}
		jp := JobPlan{
			JobID:              jobs[i].ID,
			Temporal:           ev.plan,
			Signal:             ev.sig,
			Migrations:         ev.mig.count,
			MigrationDowntimeS: ev.mig.downtimeS,
			MigrationEnergyJ:   ev.mig.EnergyJ,
			MigrationCarbonG:   ev.mig.CarbonG,
			MigrationCostUSD:   ev.mig.CostUSD,
			Account:            ev.plan.Account,
			Feasible:           ev.feasible,
		}
		jp.Accumulate(ev.mig.Account)
		for k, c := range p.cells {
			jp.Assignments = append(jp.Assignments, Assignment{
				Cell: k, StartS: c.StartS, EndS: c.EndS,
				Region: ev.placement[k], Migrate: arrivals[k],
			})
		}
		if !ev.feasible {
			out.Feasible = false
		}
		out.EnergyJ += jp.EnergyJ
		out.CarbonG += jp.CarbonG
		out.CostUSD += jp.CostUSD
		out.Jobs = append(out.Jobs, jp)
	}
	return out
}
