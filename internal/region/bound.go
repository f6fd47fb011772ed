package region

import (
	"math"
	"slices"

	"perseus/internal/grid"
)

// bound is a Lagrangian lower bound on what any placement costs one job,
// prepared for one price λ ≥ 0 under one cap view.
//
// Relax the job's target with λ and every second a placement runs in
// (region r, cell k) is priced on its own: at table point p it earns
// perJ·scale·P(p) − λ/t(p), idle earns 0, so its best is
// rc[r][k] = min(0, min over the points the cell's cap allows). A
// placement's relaxed optimum is then Σ run seconds × rc + migration +
// λ·Target, with the run seconds what compileInto leaves a job: placed
// cells, after any arrival's downtime, before the deadline. By weak
// duality that is at most the placement's exact cost for any λ ≥ 0, and
// at the λ the placement's own temporal solve ends on (outcome.price)
// it is equal: every interval's choice minimizes cost − λ·iterations,
// and the iterations sum to Target (see grid.Plan.Price).
type bound struct {
	ji       int
	lambda   float64
	view     []float64   // the cap view rc was priced under (planner.readView)
	rc       [][]float64 // [region][cell] least reduced cost per run second, ≤ 0
	origin   int
	deadline float64
	target   float64
}

// pointCosts is one job's table read once per solve: each point's
// iterations per second and average power, and the same for the hull
// vertices alone.
type pointCosts struct {
	all, hull []pointCost
}

type pointCost struct{ perS, powerW float64 }

// pointsOf returns job ji's point costs, reading its table on first use.
func (p *planner) pointsOf(ji int, j *Job) *pointCosts {
	for len(p.points) <= ji {
		p.points = append(p.points, pointCosts{})
	}
	pc := &p.points[ji]
	if pc.all == nil {
		lt := j.Table
		for i := range lt.Points {
			pc.all = append(pc.all, pointCost{perS: 1 / lt.PointTime(i), powerW: lt.AvgPower(i)})
		}
		for _, i := range lt.Hull() {
			pc.hull = append(pc.hull, pc.all[i])
		}
	}
	return pc
}

// prepare readies b for job ji at price lambda under the cap view now in
// force, re-pricing the cells only when the job, λ or the view changed
// (the rule planner.sync applies to the memo).
func (b *bound) prepare(p *planner, ji int, j *Job, lambda float64) {
	if b.rc != nil && b.ji == ji && b.lambda == lambda && p.sameView(b.view) {
		return
	}
	b.ji, b.lambda = ji, lambda
	b.view = p.readView(b.view[:0])
	b.origin, b.deadline, b.target = p.origin(j), p.deadline(j), j.Target
	pc := p.pointsOf(ji, j)
	scale := j.scale()
	b.rc = slices.Grow(b.rc[:0], len(p.regions))[:len(p.regions)]
	for r := range p.regions {
		row := b.rc[r][:0]
		for k, rt := range p.rates[r] {
			// Uncapped, the hull vertices suffice: a point off the lower
			// hull of (t, E) lies above the segment between two vertices,
			// so its reduced cost per second is no lower than the least
			// of theirs and idle's 0. Capped, the allowed points are a
			// suffix of the table (the solver's floor), scanned in full.
			pts := pc.hull
			if capW := p.capOverride(r, k); capW > 0 {
				pts = nil
				if f := j.Table.FirstUnderPower(capW / scale); f >= 0 {
					pts = pc.all[f:]
				}
			}
			perJ := scale * grid.PerJoule(p.opts.Objective, grid.Interval{CarbonGPerKWh: rt.carbon, PriceUSDPerKWh: rt.price})
			best := 0.0
			for _, q := range pts {
				best = min(best, perJ*q.powerW-lambda*q.perS)
			}
			row = append(row, best)
		}
		b.rc[r] = row
	}
}

// value is the bound on placement: compileInto's walk — the origin, a
// pause keeping the last region, each arrival charged at its cell's
// rates and idling the downtime from the arrival on, across as many
// cells as it covers, and every cell cut at the deadline — with each
// run second priced at its cell's reduced cost.
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
