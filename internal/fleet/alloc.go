package fleet

import (
	"fmt"
	"math"
	"sort"

	"perseus/internal/frontier"
)

// JobAlloc is one job's allocated operating point.
type JobAlloc struct {
	// ID names the job.
	ID string `json:"id"`

	// Point indexes the allocated point in the job's lookup table.
	Point int `json:"point"`

	// Time is the allocated planned iteration time in seconds.
	Time float64 `json:"time_s"`

	// Energy is one pipeline's per-iteration adjusted computation
	// energy at the point, in joules.
	Energy float64 `json:"energy_j"`

	// PowerW is the job's total power draw at the point: per-pipeline
	// average power times the pipeline count.
	PowerW float64 `json:"power_w"`

	// FloorTime is the job's operating floor: T_opt = min(T*, T')
	// under a straggler, Tmin otherwise. The allocation never plans
	// faster than the floor.
	FloorTime float64 `json:"floor_s"`

	// Loss is the job's weighted relative slowdown versus its floor:
	// Weight × (Time − FloorTime) / FloorTime. A straggler-bound job
	// sitting at its T_opt floor has zero loss — the straggler, not the
	// fleet, dictates its pace.
	Loss float64 `json:"loss"`
}

// Allocation is the fleet-wide outcome of the power-budget allocator.
type Allocation struct {
	// CapW is the cap the allocation was computed for (0 = uncapped).
	CapW float64 `json:"cap_w"`

	// PowerW is the fleet's total allocated power draw.
	PowerW float64 `json:"power_w"`

	// Loss is the total weighted relative slowdown across jobs.
	Loss float64 `json:"loss"`

	// Price is λ, the watts saved per unit of loss by the allocator's
	// last hull step: the cap's marginal price. It is 0 when no job had
	// to slow down and −1 when the cap is infeasible.
	Price float64 `json:"price"`

	// LossBound is a lower bound on the least loss any choice of table
	// points meeting the cap can reach, so Loss − LossBound certifies
	// how far the allocation can be from optimal: 0 at every hull
	// breakpoint, at most one hull segment's loss in between. It equals
	// Loss when no job had to slow down, and when the cap is infeasible.
	LossBound float64 `json:"loss_bound"`

	// Feasible reports whether the allocation meets the cap: whether
	// every job at its T* point fits under it. When it does not, the
	// allocator returns that minimum-power allocation with Feasible
	// false.
	Feasible bool `json:"feasible"`

	// Jobs holds per-job allocations in input order.
	Jobs []JobAlloc `json:"jobs"`
}

// checkCap rejects NaN, infinite, or negative watts: a malformed cap
// silently clamped to "uncapped" would quietly lift the facility
// envelope. Zero is valid and uncaps.
func checkCap(watts float64) error {
	if math.IsNaN(watts) || math.IsInf(watts, 0) || watts < 0 {
		return fmt.Errorf("fleet: power cap must be a finite non-negative number of watts, got %v", watts)
	}
	return nil
}

// Allocate picks each job's operating point on its own frontier so the
// fleet meets the power cap at minimum total weighted throughput loss
// (capW <= 0 = uncapped: every job runs at its floor).
//
// The algorithm is a greedy walk down each job's lower convex hull of
// (iteration time, average power) from its floor (PowerHullFrom): every
// job starts at its floor, and frontier.Descend takes the hull segment
// saving the most watts per unit of loss (ties to the lower job index:
// a scan's picks, in runs) until the fleet draw is under the cap. The
// job whose step got it there then takes the fastest table point inside
// that segment that still fits (a binary search: power falls along a
// table). Work is O(N log N + steps · log N) plus, per straggler floor
// off the hull, the hull of the points up to the next vertex.
//
// Exactness holds on any table, convex or not, by Lagrangian duality.
// Along a hull, savings per unit of loss fall segment by segment, so
// before the last step, of slope λ, every job sits at a point that
// minimizes its loss + power/λ over all its points at or after its
// floor. With L⁻ and P⁻ the loss and draw there, no combination of
// points drawing at most capW can lose less than
// LossBound = L⁻ + (P⁻ − capW)/λ. When capW falls on a hull breakpoint
// (P⁻ − capW is the last step's whole saving) that bound is the
// allocation's own loss, so the allocation matches exhaustive
// enumeration; between breakpoints Loss − LossBound is at most the
// last segment's loss. alloc_test.go checks both against brute force
// on convex and non-convex tables.
func Allocate(jobs []Job, capW float64) Allocation {
	alloc := Allocation{CapW: capW, Feasible: true}
	if len(jobs) == 0 {
		return alloc
	}
	cur := make([]int, len(jobs))
	floorTimes := make([]float64, len(jobs))
	var floorPower, minPower float64
	for i := range jobs {
		j := &jobs[i]
		cur[i] = j.floorIndex()
		floorTimes[i] = j.Table.PointTime(cur[i])
		scale := float64(j.pipelines())
		floorPower += scale * j.Table.AvgPower(cur[i])
		minPower += scale * j.Table.AvgPower(len(j.Table.Points)-1)
	}
	switch {
	case capW <= 0 || floorPower <= capW:
		// Every job at its floor: nothing to trade.
	case minPower > capW:
		alloc.Feasible, alloc.Price = false, -1
		for i := range cur {
			cur[i] = len(jobs[i].Table.Points) - 1
		}
	default:
		alloc.Price, alloc.LossBound = descend(jobs, cur, floorTimes, floorPower, capW)
	}

	for i := range jobs {
		j := &jobs[i]
		t := j.Table.PointTime(cur[i])
		ja := JobAlloc{
			ID:        j.ID,
			Point:     cur[i],
			Time:      t,
			Energy:    j.Table.Points[cur[i]].Energy,
			PowerW:    float64(j.pipelines()) * j.Table.AvgPower(cur[i]),
			FloorTime: floorTimes[i],
			Loss:      j.weight() * (t - floorTimes[i]) / floorTimes[i],
		}
		alloc.PowerW += ja.PowerW
		alloc.Loss += ja.Loss
		alloc.Jobs = append(alloc.Jobs, ja)
	}
	if !alloc.Feasible {
		alloc.LossBound = alloc.Loss // no allocation meets the cap
	}
	// The bound and the loss sum the same terms in different orders.
	alloc.LossBound = min(alloc.LossBound, alloc.Loss)
	return alloc
}

// descend walks the jobs' power hulls from the floors in cur, whose
// fleet draw is power > capW >= the fleet's minimum draw, moving cur
// to the allocation, and returns the last step's price and the loss
// bound it certifies.
func descend(jobs []Job, cur []int, floorTimes []float64, power, capW float64) (price, bound float64) {
	ws := make([]walker, len(jobs))
	heap := make([]frontier.Key, 0, len(jobs))
	for i := range jobs {
		j := &jobs[i]
		ws[i] = walker{
			hull:   j.Table.PowerHullFrom(cur[i]),
			scale:  float64(j.pipelines()),
			weight: j.weight() / floorTimes[i],
		}
		if key, ok := ws[i].next(j.Table, int32(i)); ok {
			heap = append(heap, key)
		}
	}

	var loss float64
	frontier.Descend(heap, func(key frontier.Key) (frontier.Key, bool, bool) {
		w := &ws[key.Lane]
		price = -key.Slope
		bound = loss + (power-capW)/price
		a, b := w.hull[w.pos], w.hull[w.pos+1]
		if power-w.dp <= capW {
			// The step reaches the cap: its job takes the fastest point
			// of (a, b] that fits, b at the latest.
			lt := jobs[key.Lane].Table
			cur[key.Lane] = a + 1 + sort.Search(b-a-1, func(k int) bool {
				return power-w.scale*(lt.AvgPower(a)-lt.AvgPower(a+1+k)) <= capW
			})
			return frontier.Key{}, false, true
		}
		power -= w.dp
		loss += w.loss
		w.pos++
		cur[key.Lane] = b
		nk, ok := w.next(jobs[key.Lane].Table, key.Lane)
		return nk, ok, false
	})
	// When the walk runs out, every job reached T*: the cap is within
	// rounding of the minimum draw, and T* everywhere is the one
	// allocation under it.
	return price, bound
}

// walker is one job of descend on its power hull at hull[pos]; dp and
// loss are its pending step's, to hull[pos+1].
type walker struct {
	hull          []int
	pos           int
	scale, weight float64 // pipelines; loss per second of slowdown
	dp, loss      float64
}

// next keys job i's pending step on its table lt steepest first: by
// the negated watts saved per unit of loss, ties to the lower index.
func (w *walker) next(lt *frontier.LookupTable, i int32) (frontier.Key, bool) {
	if w.pos+1 >= len(w.hull) {
		return frontier.Key{}, false
	}
	a, b := w.hull[w.pos], w.hull[w.pos+1]
	w.dp = w.scale * (lt.AvgPower(a) - lt.AvgPower(b))
	w.loss = w.weight * (lt.PointTime(b) - lt.PointTime(a))
	return frontier.Key{Slope: -(w.dp / w.loss), Lane: i}, true
}
