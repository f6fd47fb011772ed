package main

import (
	"fmt"
	"time"

	"perseus/internal/grid"
	"perseus/internal/region"
)

// regionResult is the region group's outcome.
type regionResult struct {
	J4MsP50        float64 // cold 4-job solve, median over solves
	J4SeededMsP50  float64 // 4-job re-solve seeded from the previous plan
	J8MsP50        float64 // cold 8-job solve
	CarbonVsFixed  float64 // 8-job plan total / best single-region total
	J4Ms, J4SeedMs []float64
	J8Ms           []float64
	Cells          int
	counts
}

// signalPtr returns a pointer to a copy of sig (planner APIs take
// *grid.Signal; inputs hold values so they hash and copy plainly).
func signalPtr(sig grid.Signal) *grid.Signal { return &sig }

// regionCase turns generated inputs into the planner's arguments: the
// phase-shifted pair sized so that every job fits in one region, the
// first n jobs, and migration friction.
func regionCase(in *regionInput, n int) ([]region.Region, []region.Job, region.Options) {
	regions := []region.Region{
		{Name: "west", GPUs: 8 * n, Signal: signalPtr(in.West)},
		{Name: "east", GPUs: 8 * n, Signal: signalPtr(in.East)},
	}
	horizon := in.West.Horizon()
	jobs := make([]region.Job, n)
	for i, rj := range in.Jobs[:n] {
		jobs[i] = region.Job{ID: rj.ID, Table: rj.Table, GPUs: rj.GPUs, Target: rj.TargetFrac * horizon / rj.Table.TStar()}
	}
	return regions, jobs, region.Options{Migration: in.Migration}
}

// seedsOf turns a plan into warm-start seeds for the next solve, as the
// MPC loop does tick to tick.
func seedsOf(p *region.Plan) map[string][]region.SeedSpan {
	seeds := make(map[string][]region.SeedSpan, len(p.Jobs))
	for _, jp := range p.Jobs {
		spans := make([]region.SeedSpan, 0, len(jp.Assignments))
		for _, a := range jp.Assignments {
			name := ""
			if a.Region >= 0 {
				name = p.Regions[a.Region]
			}
			spans = append(spans, region.SeedSpan{StartS: a.StartS, EndS: a.EndS, Region: name})
		}
		seeds[jp.JobID] = spans
	}
	return seeds
}

// regionCaseArgs is one planning problem with the plan its first solve
// returned, which every later solve must reproduce.
type regionCaseArgs struct {
	name    string
	regions []region.Region
	jobs    []region.Job
	opts    region.Options
	ref     *region.Plan
}

// regionGroup times region.Optimize in-process on three problems: the
// 4-job case cold, the same seeded from its own plan, and the 8-job
// case cold.
type regionGroup struct {
	cold4, seeded4, cold8 regionCaseArgs
	deep                  bool // also re-solve the 8-job case on one worker
	res                   regionResult
}

func newRegionGroup(in *regionInput, deep bool) *regionGroup {
	g := &regionGroup{deep: deep}
	g.cold4.name, g.seeded4.name, g.cold8.name = "region_plan_j4", "region_replan_j4", "region_plan_j8"
	g.cold4.regions, g.cold4.jobs, g.cold4.opts = regionCase(in, 4)
	g.seeded4.regions, g.seeded4.jobs, g.seeded4.opts = g.cold4.regions, g.cold4.jobs, g.cold4.opts
	g.cold8.regions, g.cold8.jobs, g.cold8.opts = regionCase(in, 8)
	return g
}

// solve runs one timed region.Optimize. The first solve of a problem is
// checked from the outside and becomes the reference.
func (g *regionGroup) solve(c *regionCaseArgs, tr *tracer) (float64, error) {
	g.res.Attempted++
	root := tr.op(c.name)
	t0 := time.Now()
	sp := root.child("region", "Optimize")
	p, err := region.Optimize(c.regions, c.jobs, c.opts)
	sp.end()
	ms := msSince(t0)
	root.end()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", c.name, err)
	}
	if c.ref == nil {
		if err := checkRegionPlan(p, c.regions, c.jobs); err != nil {
			g.res.fail("%s: %v", c.name, err)
		}
		c.ref = p
	} else if p.Account != c.ref.Account {
		g.res.fail("%s: totals %+v, first solve %+v", c.name, p.Account, c.ref.Account)
	}
	return ms, nil
}

// oneWorker re-solves c sequentially and compares bit for bit.
func (g *regionGroup) oneWorker(c *regionCaseArgs) error {
	opts := c.opts
	opts.Workers = 1
	g.res.Attempted++
	p, err := region.Optimize(c.regions, c.jobs, opts)
	if err != nil {
		return fmt.Errorf("%s on one worker: %w", c.name, err)
	}
	if err := regionPlansEqual(p, c.ref); err != nil {
		g.res.fail("%s: one worker vs default: %v", c.name, err)
	}
	return nil
}

// warmUp solves each problem once, untimed, and checks the plans.
func (g *regionGroup) warmUp(tr *tracer) error {
	if _, err := g.solve(&g.cold4, tr); err != nil {
		return err
	}
	if err := g.oneWorker(&g.cold4); err != nil {
		return err
	}
	g.seeded4.opts.Seeds = seedsOf(g.cold4.ref)
	if _, err := g.solve(&g.seeded4, tr); err != nil {
		return err
	}
	if g.seeded4.ref.Total() > g.cold4.ref.Total() {
		g.res.fail("seeded re-solve is worse than the plan that seeded it: %v > %v", g.seeded4.ref.Total(), g.cold4.ref.Total())
	}
	if _, err := g.solve(&g.cold8, tr); err != nil {
		return err
	}
	if g.deep {
		return g.oneWorker(&g.cold8)
	}
	return nil
}

// round times n4 cold and n4 seeded 4-job solves and n8 8-job solves.
func (g *regionGroup) round(tr *tracer, n4, n8 int) error {
	for i := 0; i < n4; i++ {
		cold, err := g.solve(&g.cold4, tr)
		if err != nil {
			return err
		}
		seeded, err := g.solve(&g.seeded4, tr)
		if err != nil {
			return err
		}
		g.res.J4Ms, g.res.J4SeedMs = append(g.res.J4Ms, cold), append(g.res.J4SeedMs, seeded)
	}
	for i := 0; i < n8; i++ {
		ms, err := g.solve(&g.cold8, tr)
		if err != nil {
			return err
		}
		g.res.J8Ms = append(g.res.J8Ms, ms)
	}
	return nil
}

func (g *regionGroup) result() (regionResult, error) {
	res := g.res
	best, err := region.BestFixed(g.cold8.regions, g.cold8.jobs, g.cold8.opts)
	if err != nil {
		return res, fmt.Errorf("best fixed: %w", err)
	}
	plan := g.cold8.ref
	res.Attempted++
	if !best.Feasible || plan.Total() > best.Total() {
		res.fail("joint plan %v g vs best single region %v g (feasible %v)", plan.Total(), best.Total(), best.Feasible)
	}
	res.Cells = len(plan.Cells)
	res.J4MsP50, res.J4SeededMsP50, res.J8MsP50 = median(res.J4Ms), median(res.J4SeedMs), median(res.J8Ms)
	res.CarbonVsFixed = plan.Total() / best.Total()
	return res, nil
}
