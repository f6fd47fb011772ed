// Package region adds the spatial degree of freedom to internal/grid's
// temporal one: datacenters in different grid regions see carbon and
// price curves that are hours out of phase and 2-5x apart in magnitude,
// so *where* a flexible training job runs matters as much as *when*.
//
// The package models a fleet of Regions — each a datacenter with a GPU
// capacity, its own grid.Signal, and a facility power cap — and plans,
// for a set of jobs with characterized frontiers and deadlines, a joint
// spatio-temporal schedule: per common-grid interval each job is placed
// in one region (running some frontier point), paused, or migrated.
// Migration is modeled as a fixed pause-cost (checkpoint transfer
// downtime plus transfer energy), so the planner only moves a job when
// the phase offset between regional curves pays for the move.
//
// The machinery reuses internal/grid end to end: a placement sequence
// is compiled into a composite grid.Signal (each interval carrying the
// assigned region's rates and cap, pauses and migration downtime
// carrying a force-idle cap), and grid.Optimize on that composite is
// the exact inner temporal subproblem. On top sits a cross-region
// assignment layer — greedy steepest-descent over contiguous segment
// moves, checked against brute force on small instances
// (brute_test.go) with a measured, not proved, bound in the contended
// case — plus the Fixed-placement and NoMigration baselines the
// planner must beat. The inner solve's price λ (grid.Evaluation.Price)
// gives the assignment layer a Lagrangian lower bound on any
// placement's cost (bound.go), so a move or swap that provably cannot
// beat the incumbent is never solved.
package region

import (
	"fmt"
	"math"

	"perseus/internal/frontier"
	"perseus/internal/grid"
	pln "perseus/internal/plan"
)

// forceIdleCapW is a power cap below any frontier point's draw: a
// composite-signal interval carrying it can only idle. Used to encode
// pauses and migration downtime for grid.Optimize.
const forceIdleCapW = 1e-12

// Paused marks an unplaced interval in a placement sequence.
const Paused = -1

// Region is one datacenter in a multi-region fleet.
type Region struct {
	// Name labels the region in plans and tables.
	Name string `json:"name"`

	// GPUs is the region's capacity in GPUs; 0 means unbounded.
	GPUs int `json:"gpus"`

	// Signal is the region's grid trace (carbon, price, and interval
	// caps); repeated cyclically beyond its horizon.
	Signal *grid.Signal `json:"signal"`

	// CapW is the region's facility power cap in watts (0 = none); an
	// interval cap in the Signal tightens it further while in force.
	CapW float64 `json:"cap_w,omitempty"`
}

// Job is one training job to place across regions.
type Job struct {
	// ID names the job.
	ID string `json:"id"`

	// Table is the job's characterized time-energy frontier.
	Table *frontier.LookupTable `json:"-"`

	// GPUs is the capacity the job occupies wherever it is placed;
	// 0 means 1.
	GPUs int `json:"gpus,omitempty"`

	// PowerScale multiplies the table's per-point average power (e.g.
	// data-parallel replicas); <= 0 means 1.
	PowerScale float64 `json:"power_scale,omitempty"`

	// Target is the number of iterations to complete; must be positive.
	Target float64 `json:"target"`

	// DeadlineS is the completion deadline in seconds from trace start;
	// 0 means the planning horizon.
	DeadlineS float64 `json:"deadline_s,omitempty"`

	// Origin names the region the job currently occupies ("" = not yet
	// placed). When set, the first placed cell counts as a migration if
	// it differs from Origin — a rolling-horizon re-planner must pay to
	// move a job that is already running somewhere, or the re-plan would
	// treat every move as free.
	Origin string `json:"origin,omitempty"`

	// PausedUntilS is when a checkpoint transfer already in flight
	// ends, in seconds from trace start: the job cannot run before it
	// wherever it is placed, as after an arrival the plan makes itself.
	// A rolling re-planner sets it when a transfer the previous plan
	// began outlasts the decision interval, so it is at most
	// Options.Migration.DowntimeS. 0 means none.
	PausedUntilS float64 `json:"paused_until_s,omitempty"`
}

func (j *Job) gpus() int {
	if j.GPUs <= 0 {
		return 1
	}
	return j.GPUs
}

func (j *Job) scale() float64 {
	if j.PowerScale <= 0 {
		return 1
	}
	return j.PowerScale
}

// MigrationCost is the fixed pause-cost of moving a job between
// regions: the checkpoint transfer downtime (during which the job
// cannot run) and the transfer energy (charged at the destination
// region's rates at arrival).
type MigrationCost struct {
	DowntimeS float64 `json:"downtime_s"`
	EnergyJ   float64 `json:"energy_j"`
}

// charge is the transfer energy of one arrival priced at the arrival
// cell's rates.
func (m MigrationCost) charge(carbon, price float64) pln.Account {
	return pln.Account{
		EnergyJ: m.EnergyJ,
		CarbonG: m.EnergyJ / grid.JoulesPerKWh * carbon,
		CostUSD: m.EnergyJ / grid.JoulesPerKWh * price,
	}
}

// Cell is one interval of the common planning grid: the union of every
// region's signal boundaries over the planning horizon, so each cell
// sees one constant set of rates per region.
type Cell struct {
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

// Duration returns the cell length in seconds.
func (c Cell) Duration() float64 { return c.EndS - c.StartS }

// commonGrid builds the shared cell grid over [0, horizon): every
// region's cyclic interval boundaries, merged and deduplicated.
func commonGrid(regions []Region, horizon float64) []Cell {
	sigs := make([]*grid.Signal, len(regions))
	for i := range regions {
		sigs[i] = regions[i].Signal
	}
	bounds := append([]float64{0}, grid.MergedBoundaries(sigs, horizon)...)
	bounds = append(bounds, horizon)
	cells := make([]Cell, 0, len(bounds)-1)
	for i := 1; i < len(bounds); i++ {
		cells = append(cells, Cell{StartS: bounds[i-1], EndS: bounds[i]})
	}
	return cells
}

// rates returns region r's (carbon, price, effective cap) in force over
// cell c: the signal's cyclic interval rates, with the interval cap and
// the region's facility cap merged (the tighter positive one wins).
func (r *Region) rates(c Cell) (carbon, price, capW float64) {
	capW = r.CapW
	iv, ok := r.Signal.AtCyclic(c.StartS)
	if !ok {
		return 0, 0, capW
	}
	carbon, price = iv.CarbonGPerKWh, iv.PriceUSDPerKWh
	if iv.CapW > 0 && (capW <= 0 || iv.CapW < capW) {
		capW = iv.CapW
	}
	return carbon, price, capW
}

// migrations lists the cells at whose start the job arrives in a new
// region under the placement: every transition between two distinct
// placed regions, pauses in between notwithstanding (the checkpoint
// still has to move). The initial placement is free unless origin
// names the region the job already occupies (origin >= 0), in which
// case the first placement elsewhere is a migration too.
func migrations(origin int, placement []int) []int {
	var out []int
	prev := origin
	for k, r := range placement {
		if r == Paused {
			continue
		}
		if prev != Paused && r != prev {
			out = append(out, k)
		}
		prev = r
	}
	return out
}

// cellRates caches one region's effective (carbon, price, cap) over one
// cell, so hot candidate evaluation skips the cyclic signal scan that
// Region.rates performs per call; the planner adds what one arrival
// there costs in its objective.
type cellRates struct {
	carbon, price, capW float64
	arrive              float64
}

// rateTable precomputes Region.rates for every (region, cell) pair.
func rateTable(regions []Region, cells []Cell) [][]cellRates {
	tab := make([][]cellRates, len(regions))
	for r := range regions {
		tab[r] = make([]cellRates, len(cells))
		for k, c := range cells {
			carbon, price, capW := regions[r].rates(c)
			tab[r][k] = cellRates{carbon: carbon, price: price, capW: capW}
		}
	}
	return tab
}

// compileScratch holds compileInto's reusable output buffers.
type compileScratch struct {
	sig    grid.Signal
	cellOf []int
}

// compileInto builds the composite grid.Signal a placement sequence
// induces for one job: each cell carries its assigned region's rates
// (from the rate table) and effective cap (capOverride, when non-nil,
// substitutes the capacity-shared cap), pauses carry a force-idle cap,
// and each migration's downtime force-idles the start of the arrival
// span — spilling across cells when the downtime exceeds one, as does
// a transfer in flight until pausedUntil (see Job.PausedUntilS). It also
// returns the migration summary (count, downtime, and the transfer
// energy priced at each arrival cell's rates) and the
// composite-interval → cell mapping capacity accounting needs. The
// signal and the mapping live in cs's buffers until its next use.
func compileInto(cs *compileScratch, cells []Cell, rates [][]cellRates, placement []int, origin int, pausedUntil float64, mig MigrationCost, capOverride func(region, cell int) float64) (*grid.Signal, migSummary, []int) {
	var sum migSummary
	sig := &cs.sig
	sig.Name = "composite"
	sig.Intervals = sig.Intervals[:0]
	cellOf := cs.cellOf[:0]
	idleUntil := pausedUntil // downtime window currently being served
	prev := origin           // last placed region, for arrival detection
	for k, c := range cells {
		r := placement[k]
		var carbon, price, capW float64
		arrived := false
		if r == Paused {
			capW = forceIdleCapW
		} else {
			rc := rates[r][k]
			carbon, price, capW = rc.carbon, rc.price, rc.capW
			if capOverride != nil {
				capW = capOverride(r, k)
			}
			arrived = prev != Paused && r != prev
			prev = r
		}
		if arrived {
			idleUntil = c.StartS + mig.DowntimeS
			sum.count++
			sum.downtimeS += mig.DowntimeS
			sum.Accumulate(mig.charge(carbon, price))
		}
		if idleUntil > c.StartS {
			// The downtime covers a prefix of the cell (possibly all of
			// it); split so the remainder can still run.
			cut := math.Min(idleUntil, c.EndS)
			sig.Intervals = append(sig.Intervals, grid.Interval{
				StartS: c.StartS, EndS: cut,
				CarbonGPerKWh: carbon, PriceUSDPerKWh: price,
				CapW: forceIdleCapW,
			})
			cellOf = append(cellOf, k)
			if cut == c.EndS {
				continue
			}
			c.StartS = cut
		}
		sig.Intervals = append(sig.Intervals, grid.Interval{
			StartS: c.StartS, EndS: c.EndS,
			CarbonGPerKWh: carbon, PriceUSDPerKWh: price,
			CapW: capW,
		})
		cellOf = append(cellOf, k)
	}
	cs.cellOf = cellOf
	return sig, sum, cellOf
}

// migSummary totals a placement's migration costs.
type migSummary struct {
	count     int
	downtimeS float64
	pln.Account
}

// validate checks the shared planning inputs.
func validate(regions []Region, jobs []Job, opts Options) error {
	if len(regions) == 0 {
		return fmt.Errorf("region: planning needs at least one region")
	}
	names := map[string]bool{}
	for i := range regions {
		r := &regions[i]
		if r.Name == "" {
			return fmt.Errorf("region: region %d needs a name", i)
		}
		if names[r.Name] {
			return fmt.Errorf("region: duplicate region %q", r.Name)
		}
		names[r.Name] = true
		if r.Signal == nil {
			return fmt.Errorf("region: region %q needs a signal", r.Name)
		}
		if err := r.Signal.Validate(); err != nil {
			return fmt.Errorf("region: region %q: %w", r.Name, err)
		}
		if math.IsNaN(r.CapW) || math.IsInf(r.CapW, 0) || r.CapW < 0 {
			return fmt.Errorf("region: region %q has invalid cap %v", r.Name, r.CapW)
		}
	}
	if len(jobs) == 0 {
		return fmt.Errorf("region: planning needs at least one job")
	}
	ids := map[string]bool{}
	for i := range jobs {
		j := &jobs[i]
		if j.ID == "" {
			return fmt.Errorf("region: job %d needs an id", i)
		}
		if ids[j.ID] {
			return fmt.Errorf("region: duplicate job %q", j.ID)
		}
		ids[j.ID] = true
		if j.Table == nil || len(j.Table.Points) == 0 {
			return fmt.Errorf("region: job %q needs a characterized frontier table", j.ID)
		}
		if !(j.Target > 0) || math.IsInf(j.Target, 0) {
			return fmt.Errorf("region: job %q target must be positive and finite, got %v", j.ID, j.Target)
		}
		if math.IsNaN(j.DeadlineS) || math.IsInf(j.DeadlineS, 0) || j.DeadlineS < 0 {
			return fmt.Errorf("region: job %q deadline must be finite and non-negative, got %v", j.ID, j.DeadlineS)
		}
		if j.Origin != "" && !names[j.Origin] {
			return fmt.Errorf("region: job %q origin %q is not a registered region", j.ID, j.Origin)
		}
	}
	m := opts.Migration
	if math.IsNaN(m.DowntimeS) || m.DowntimeS < 0 || math.IsNaN(m.EnergyJ) || m.EnergyJ < 0 {
		return fmt.Errorf("region: migration cost must be non-negative, got %+v", m)
	}
	for i := range jobs {
		// What a transfer begun before the window can have left: so any
		// arrival the plan makes ends after it.
		if p := jobs[i].PausedUntilS; !(p >= 0 && p <= m.DowntimeS) {
			return fmt.Errorf("region: job %q pause must be in [0, %v], the migration downtime, got %v", jobs[i].ID, m.DowntimeS, p)
		}
	}
	return nil
}

// PhaseShiftedPair returns the bundled two-region demo fleet: "west" on
// the bundled diurnal trace (midday solar valley) and "east" on the
// same trace rotated by 12 hours (valley at west's midnight) — two
// datacenters whose clean windows are maximally out of phase, the
// canonical case where chasing valleys across regions beats any single
// placement.
func PhaseShiftedPair(gpusEach int) []Region {
	west := grid.Diurnal24h()
	west.Name = "west"
	east := grid.Diurnal24h()
	east.Name = "east"
	n := len(east.Intervals)
	rot := make([]grid.Interval, n)
	for i := range east.Intervals {
		src := east.Intervals[(i+n/2)%n]
		rot[i] = grid.Interval{
			StartS:         east.Intervals[i].StartS,
			EndS:           east.Intervals[i].EndS,
			CarbonGPerKWh:  src.CarbonGPerKWh,
			PriceUSDPerKWh: src.PriceUSDPerKWh,
			CapW:           src.CapW,
		}
	}
	east.Intervals = rot
	return []Region{
		{Name: "west", GPUs: gpusEach, Signal: west},
		{Name: "east", GPUs: gpusEach, Signal: east},
	}
}
