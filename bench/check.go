package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"

	"perseus/internal/client"
	"perseus/internal/cluster"
	"perseus/internal/dag"
	"perseus/internal/fleet"
	"perseus/internal/frontier"
	"perseus/internal/gpu"
	"perseus/internal/maxflow"
	"perseus/internal/profile"
	"perseus/internal/region"
	"perseus/internal/sched"
)

// counts tallies a group's operations. An operation whose output fails
// its reference check is a failed operation, and any failure makes the
// run exit non-zero.
type counts struct {
	Attempted int
	Failed    int
	Failures  []string // first few, for the report
}

func (c *counts) fail(format string, args ...any) {
	c.Failed++
	if len(c.Failures) < 8 {
		c.Failures = append(c.Failures, fmt.Sprintf(format, args...))
	}
}

func (c *counts) add(o counts) {
	c.Attempted += o.Attempted
	c.Failed += o.Failed
	for _, f := range o.Failures {
		if len(c.Failures) < 8 {
			c.Failures = append(c.Failures, f)
		}
	}
}

// ledgerEps is the relative tolerance of the ledger's conservation
// identities (the server's own tests use the same).
const ledgerEps = 1e-9

// shapeModel rebuilds, from a shape alone, what the server derives on
// upload: the schedule, its unit-duration DAG and the assembled profile.
func shapeModel(sh jobShape) (*sched.Schedule, *dag.Graph, *profile.Profile, *gpu.Model, error) {
	g, err := gpu.ByName(sh.Req.GPU)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	sc, err := sched.ByName(sh.Req.Schedule, sh.Req.Stages, sh.Req.Microbatches, max(sh.Req.Chunks, 1))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	graph, err := dag.Build(sc, func(sched.Op) int64 { return 1 })
	if err != nil {
		return nil, nil, nil, nil, err
	}
	prof, err := profile.Assemble(g, sh.PBlocking, sh.Meas)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return sc, graph, prof, g, nil
}

// scheduleRef is what the first-schedule check learns about a shape.
type scheduleRef struct {
	points    int
	savingPct float64
}

// checkFirstSchedule verifies a job's first served schedule against
// references the server had no part in: the frontier re-characterized
// in-process with the Dinic solver must equal the table the server
// (Edmonds-Karp) serves, point for point; the served schedule must be
// the table's Tmin entry; and cluster.Simulate must realize it no
// slower than all-max frequencies and with less energy.
func checkFirstSchedule(cl *client.ServerClient, id string, sh jobShape, s client.Schedule) (scheduleRef, error) {
	if !s.Ready {
		return scheduleRef{}, fmt.Errorf("schedule not ready")
	}
	served, err := fetchTable(cl, id)
	if err != nil {
		return scheduleRef{}, err
	}
	sc, graph, prof, g, err := shapeModel(sh)
	if err != nil {
		return scheduleRef{}, err
	}
	front, err := frontier.Characterize(graph, prof, frontier.Options{Unit: sh.Req.Unit, Solver: maxflow.Dinic})
	if err != nil {
		return scheduleRef{}, fmt.Errorf("dinic reference: %w", err)
	}
	if err := tablesEqual(served, front.Table()); err != nil {
		return scheduleRef{}, fmt.Errorf("served (Edmonds-Karp) vs Dinic frontier: %w", err)
	}
	tminPoint := served.Lookup(served.Tmin())
	if s.Time != served.Tmin() || s.Tmin != served.Tmin() || s.TStar != served.TStar() {
		return scheduleRef{}, fmt.Errorf("served time %v (tmin %v, t* %v), table says tmin %v, t* %v",
			s.Time, s.Tmin, s.TStar, served.Tmin(), served.TStar())
	}
	plan := make(cluster.Plan, len(s.Freqs))
	for i, f := range s.Freqs {
		plan[i] = gpu.Frequency(f)
	}
	if !slices.Equal([]gpu.Frequency(plan), tminPoint.Freqs) {
		return scheduleRef{}, fmt.Errorf("served frequencies differ from the table's Tmin entry")
	}
	spec := cluster.Spec{Schedule: sc, Profile: prof}
	got, err := cluster.Simulate(spec, plan, nil)
	if err != nil {
		return scheduleRef{}, fmt.Errorf("simulate served plan: %w", err)
	}
	base, err := cluster.Simulate(spec, cluster.PlanAllMax(sc, g), nil)
	if err != nil {
		return scheduleRef{}, fmt.Errorf("simulate all-max: %w", err)
	}
	// The planner works in whole units of tau, so the realized schedule
	// may trail all-max by rounding along the critical path: a percent
	// or so at these unit sizes, never more than two.
	if got.IterTime > base.IterTime*1.02 || math.Abs(got.IterTime-s.Time) > 0.02*s.Time {
		return scheduleRef{}, fmt.Errorf("Tmin schedule runs %v s (planned %v s), all-max %v s", got.IterTime, s.Time, base.IterTime)
	}
	if !(got.Energy < base.Energy) {
		return scheduleRef{}, fmt.Errorf("Tmin schedule uses %v J, all-max %v J", got.Energy, base.Energy)
	}
	return scheduleRef{points: len(served.Points), savingPct: 100 * (1 - got.Energy/base.Energy)}, nil
}

// tablesEqual compares two lookup tables point for point.
func tablesEqual(a, b *frontier.LookupTable) error {
	if a.Unit != b.Unit || a.TminUnits != b.TminUnits || a.TStarUnits != b.TStarUnits || len(a.Points) != len(b.Points) {
		return fmt.Errorf("bounds differ: %d points [%d,%d] vs %d points [%d,%d]",
			len(a.Points), a.TminUnits, a.TStarUnits, len(b.Points), b.TminUnits, b.TStarUnits)
	}
	for i := range a.Points {
		p, q := a.Points[i], b.Points[i]
		if p.TimeUnits != q.TimeUnits || p.Energy != q.Energy || !slices.Equal(p.Freqs, q.Freqs) {
			return fmt.Errorf("point %d differs (t=%d: %v J vs %v J)", i, p.TimeUnits, p.Energy, q.Energy)
		}
	}
	return nil
}

// checkHTTPCaching verifies, with raw requests, what the typed client
// hides: a conditional fetch at the current validator answers 304 with
// an empty body, and two fetches of a cached plan are byte-identical.
func checkHTTPCaching(cl *client.ServerClient, id string, target float64) error {
	get := func(path, inm string) (int, string, []byte, error) {
		req, err := http.NewRequest(http.MethodGet, cl.BaseURL+path, nil)
		if err != nil {
			return 0, "", nil, err
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := cl.HTTP.Do(req)
		if err != nil {
			return 0, "", nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("ETag"), body, err
	}
	for _, path := range []string{
		"/jobs/" + id + "/schedule",
		"/grid/plan/" + id + "?iterations=" + url.QueryEscape(strconv.FormatFloat(target, 'g', -1, 64)),
	} {
		code, tag, body, err := get(path, "")
		if err != nil || code != http.StatusOK || tag == "" {
			return fmt.Errorf("GET %s: status %d, etag %q, err %v", path, code, tag, err)
		}
		code2, _, body2, err := get(path, "")
		if err != nil || code2 != http.StatusOK || !bytes.Equal(body, body2) {
			return fmt.Errorf("GET %s twice: bodies differ (status %d, err %v)", path, code2, err)
		}
		code3, _, body3, err := get(path, tag)
		if err != nil || code3 != http.StatusNotModified || len(body3) != 0 {
			return fmt.Errorf("conditional GET %s: status %d with %d body bytes, err %v", path, code3, len(body3), err)
		}
	}
	return nil
}

// expectedTimes replays fleet.Allocate — the library, not the server —
// over the jobs' tables with the straggler state the writer has built
// up, and returns the iteration time each job's served schedule must
// show: the table's entry for max(T', fleet floor), T' = Tmin·degree
// capped at T* by the lookup.
func expectedTimes(jobs []fleetJob, degree []float64, capW float64) []float64 {
	fj := make([]fleet.Job, len(jobs))
	for i, j := range jobs {
		fj[i] = fleet.Job{ID: j.ID, Table: j.Table}
		if degree[i] > 1 {
			fj[i].TPrime = j.Table.Tmin() * degree[i]
		}
	}
	alloc := fleet.Allocate(fj, capW)
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		t := fj[i].TPrime
		if t <= 0 {
			t = j.Table.Tmin()
		}
		t = math.Max(t, alloc.Jobs[i].Time)
		out[i] = j.Table.PointTime(j.Table.LookupIndex(t))
	}
	return out
}

// checkLedger verifies the conservation identities of every job's
// totals and of the fleet rollup as GET /debug/ledger reports them.
func checkLedger(led client.Ledger, wantJobs int) error {
	if len(led.Jobs) != wantJobs {
		return fmt.Errorf("ledger lists %d jobs, want %d", len(led.Jobs), wantJobs)
	}
	if err := conserved(led.Fleet.LedgerSpan); err != nil {
		return fmt.Errorf("fleet totals: %w", err)
	}
	for _, j := range led.Jobs {
		if j.Totals.Entries == 0 {
			return fmt.Errorf("%s settled nothing", j.JobID)
		}
		if err := conserved(j.Totals.LedgerSpan); err != nil {
			return fmt.Errorf("%s: %w", j.JobID, err)
		}
	}
	return nil
}

func conserved(b client.LedgerSpan) error {
	near := func(got, want float64) bool {
		scale := math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
		return math.Abs(got-want) <= ledgerEps*scale
	}
	switch {
	case !near(b.FloorJ+b.MigrationJ+b.ResidualJ, b.EnergyJ):
		return fmt.Errorf("floor+migration+residual = %v J, realized %v J", b.FloorJ+b.MigrationJ+b.ResidualJ, b.EnergyJ)
	case !near(b.FloorC+b.MigrationC+b.ResidualC, b.CarbonG):
		return fmt.Errorf("carbon components = %v g, realized %v g", b.FloorC+b.MigrationC+b.ResidualC, b.CarbonG)
	case !near(b.TminJ+b.MigrationJ, b.EnergyJ+b.RemovedJ):
		return fmt.Errorf("Tmin baseline identity broken")
	case !near(b.DriftC, b.PredRealC-b.PredC):
		return fmt.Errorf("drift identity broken")
	}
	return nil
}

// checkRegionPlan verifies a joint plan from the outside: feasible,
// every job reaching its target by the horizon, and no (region, cell)
// holding more GPUs than the region has.
func checkRegionPlan(p *region.Plan, regions []region.Region, jobs []region.Job) error {
	if !p.Feasible {
		return fmt.Errorf("plan infeasible")
	}
	if len(p.Jobs) != len(jobs) {
		return fmt.Errorf("plan covers %d jobs, want %d", len(p.Jobs), len(jobs))
	}
	used := make([][]int, len(regions))
	for r := range used {
		used[r] = make([]int, len(p.Cells))
	}
	for k, jp := range p.Jobs {
		if !jp.Feasible || jp.Temporal == nil {
			return fmt.Errorf("%s infeasible", jp.JobID)
		}
		if jp.Temporal.Iterations < jobs[k].Target*(1-1e-9) {
			return fmt.Errorf("%s plans %v of %v iterations", jp.JobID, jp.Temporal.Iterations, jobs[k].Target)
		}
		for _, a := range jp.Assignments {
			if a.Region >= 0 {
				used[a.Region][a.Cell] += jobs[k].GPUs
			}
		}
	}
	for r := range used {
		for c, n := range used[r] {
			if regions[r].GPUs > 0 && n > regions[r].GPUs {
				return fmt.Errorf("region %s cell %d holds %d GPUs of %d", regions[r].Name, c, n, regions[r].GPUs)
			}
		}
	}
	return nil
}

// regionPlansEqual compares two joint plans assignment for assignment
// and total for total, bit for bit.
func regionPlansEqual(a, b *region.Plan) error {
	if a.Account != b.Account || len(a.Jobs) != len(b.Jobs) {
		return fmt.Errorf("totals differ: %+v vs %+v", a.Account, b.Account)
	}
	for k := range a.Jobs {
		if !slices.Equal(a.Jobs[k].Assignments, b.Jobs[k].Assignments) || a.Jobs[k].Account != b.Jobs[k].Account {
			return fmt.Errorf("%s placed differently", a.Jobs[k].JobID)
		}
	}
	return nil
}
