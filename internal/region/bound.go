package region

import (
	"slices"

	"perseus/internal/grid"
)

// bound is a Lagrangian lower bound on what any placement costs one job,
// prepared for one price λ ≥ 0 under one cap view.
//
// Relax the job's target with λ and every second a placement runs in
// (region r, cell k) is priced on its own: at table point p it earns
// perJ·scale·P(p) − λ/t(p), idle earns 0, so its best is
// rc[r][k] = min(0, min over the points the cell's cap allows), read
// off the slope ladder of the cap's floor (frontier.Ladder.Least). A
// placement's relaxed optimum is then Σ run seconds × rc + migration +
// λ·Target, with the run seconds what compileInto leaves a job: placed
// cells, after the transfer in flight and any arrival's downtime, before
// the deadline. By weak duality that is at most the placement's exact
// cost for any λ ≥ 0, and at the λ the placement's own temporal solve
// ends on (outcome.price) it is equal: every interval's choice minimizes
// cost − λ·iterations, and the iterations sum to Target (see
// grid.Plan.Price).
//
// The planner prices placements through walks (see walk and splice):
// one O(cells) walk per placement it prices from, then O(1) amortized
// per candidate.
type bound struct {
	ji       int
	lambda   float64
	view     []float64   // the cap view rc was priced under (planner.readView)
	rc       [][]float64 // [region][cell] least reduced cost per run second, ≤ 0
	origin   int
	pause    float64 // Job.PausedUntilS: the downtime the walk starts in
	deadline float64
	target   float64
}

// prepare readies b for job ji at price lambda under the cap view now in
// force, re-pricing the cells only when the job, λ or the view changed
// (the rule planner.sync applies to the memo). It reports whether it
// re-priced them: walks made under the old prices are then stale.
func (b *bound) prepare(p *planner, ji int, j *Job, lambda float64) bool {
	if b.rc != nil && b.ji == ji && b.lambda == lambda && p.sameView(b.view) {
		return false
	}
	b.ji, b.lambda = ji, lambda
	b.view = p.readView(b.view[:0])
	b.origin, b.pause, b.deadline, b.target = p.origin(j), j.PausedUntilS, p.deadline(j), j.Target
	all := j.Table.Ladder(0)
	scale := j.scale()
	b.rc = slices.Grow(b.rc[:0], len(p.regions))[:len(p.regions)]
	for r := range p.regions {
		row := b.rc[r][:0]
		for k, rt := range p.rates[r] {
			// A cap allows a suffix of the table (the solver's floor;
			// none below the slowest point's draw); uncapped, all of it.
			l := all
			if capW := p.capOverride(r, k); capW > 0 {
				l = j.Table.Ladder(j.Table.FirstUnderPower(capW / scale))
			}
			perJ := scale * grid.PerJoule(p.opts.Objective, grid.Interval{CarbonGPerKWh: rt.carbon, PriceUSDPerKWh: rt.price})
			row = append(row, l.Least(perJ, lambda))
		}
		b.rc[r] = row
	}
	return true
}

// cursor is the state the bound's walk over a placement carries from
// cell to cell, as compileInto does: the last placed region and the end
// of the downtime being served.
type cursor struct {
	prev int
	idle float64
}

// cell steps cur over cell k placed in region r and returns what the
// cell adds to the bound: an arrival from another region (see arrive),
// or each second left to run before the deadline at the cell's reduced
// cost.
func (b *bound) cell(p *planner, cur *cursor, k, r int) float64 {
	if r == Paused {
		return 0
	}
	if cur.prev != Paused && r != cur.prev {
		return b.arrive(p, cur, k, r)
	}
	cur.prev = r
	return b.run(p, cur, k, r)
}

// arrive steps cur into cell k from another region: the migration
// charge at the cell's rates, and the downtime it starts, whatever the
// cursor held before.
func (b *bound) arrive(p *planner, cur *cursor, k, r int) float64 {
	cur.prev, cur.idle = r, p.cells[k].StartS+p.opts.Migration.DowntimeS
	return p.rates[r][k].arrive + b.run(p, cur, k, r)
}

// run prices the seconds of cell k, in region r, that are past cur's
// downtime and before the deadline.
func (b *bound) run(p *planner, cur *cursor, k, r int) float64 {
	c := &p.cells[k]
	if s := min(c.EndS, b.deadline) - max(c.StartS, cur.idle); s > 0 {
		return s * b.rc[r][k]
	}
	return 0
}

// walk is one placement priced under one bound. Each cell boundary k
// (0..len(cells)) holds the cursor entering cell k, what the cells
// before k add (pre) and what the cells from k on add (suf); each cell
// also holds its start, the region placed there (at) and the first cell
// from it on that the placement places (next; len(cells) when none),
// and, when placed, what the cells from it on add when the cursor
// arrives there from another region (arr), and the boundary where that
// cursor joins the walk again (join; len(cells) when it never does).
type walk struct {
	steps []walkStep
}

type walkStep struct {
	cursor
	pre, suf float64
	start    float64
	at, next int
	arr      float64
	join     int
}

// walk fills w with placement pl priced under b.
func (b *bound) walk(p *planner, w *walk, pl []int) {
	n := len(p.cells)
	w.steps = slices.Grow(w.steps[:0], n+1)[:n+1]
	cur := cursor{prev: b.origin, idle: b.pause}
	pre := 0.0
	for k := range n {
		s := &w.steps[k]
		s.cursor, s.pre, s.start, s.at = cur, pre, p.cells[k].StartS, pl[k]
		s.suf = b.cell(p, &cur, k, pl[k]) // the cell's own share until the suffix pass
		pre += s.suf
	}
	w.steps[n] = walkStep{cursor: cur, pre: pre, start: p.horizon, at: Paused, next: n, join: n}
	suf, next := 0.0, n
	for k := n - 1; k >= 0; k-- {
		s := &w.steps[k]
		if pl[k] != Paused {
			next = k
		}
		suf += s.suf
		s.suf, s.next = suf, next
	}
	for k := range n {
		s := &w.steps[k]
		s.arr, s.join = 0, n
		if pl[k] == Paused {
			continue
		}
		var cur cursor
		s.arr = b.arrive(p, &cur, k, pl[k])
		j := k + 1
		for ; j < n && !w.steps[j].joins(cur); j++ {
			s.arr += b.cell(p, &cur, j, pl[j])
		}
		s.arr += w.steps[j].suf
		s.join = j
	}
}

// joins reports whether a cursor entering s's cell prices every cell
// from there on as the walk does: same last region, and the same
// downtime end or both over by the cell's start (a cell reads the
// downtime only through max(start, idle), and an arrival restarts it).
func (s *walkStep) joins(cur cursor) bool {
	return cur.prev == s.prev && (cur.idle == s.idle || max(cur.idle, s.idle) <= s.start)
}

// splice returns the bound on the placement that follows base outside
// cells [i, k] and seg inside them: base's prefix up to i, seg's cells
// entered with base's cursor there, then base's cells entered with the
// cursor seg's leave. Over each walk's cells it steps one cell at a time
// only until the cursor joins that walk — at once when it already does,
// after an arrival where the walk's arr says, past paused stretches
// whole (they add nothing and move no cursor) — and then reads the rest
// off the walk's suffix sums: O(1) amortized, where bound.value walks
// every cell.
func (b *bound) splice(p *planner, base, seg *walk, i, k int) float64 {
	s := &base.steps[i]
	sum, cur := s.pre+b.lambda*b.target, s.cursor
	w, c, end := seg, i, k+1
	for {
		for c < end {
			s := &w.steps[c]
			var from float64 // what w's cells from c on add, entered with cur
			switch {
			case s.joins(cur):
				from = s.suf
			case s.at == Paused:
				c = s.next
				continue
			case cur.prev != Paused && cur.prev != s.at && s.join <= end:
				from = s.arr
			default:
				sum += b.cell(p, &cur, c, s.at)
				c++
				continue
			}
			e := &w.steps[end]
			sum += from - e.suf
			cur, c = e.cursor, end
		}
		if w == base {
			return sum
		}
		w, c, end = base, end, len(p.cells)
	}
}
