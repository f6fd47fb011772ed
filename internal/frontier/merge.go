package frontier

// MergeInput is one characterized job entering a fleet-level merge.
type MergeInput struct {
	// Table is the job's characterized frontier.
	Table *LookupTable

	// PowerScale multiplies the table's per-point average power, e.g.
	// the number of data-parallel pipeline replicas executing the same
	// plan. Zero or negative means 1.
	PowerScale float64

	// LossWeight converts one second of this job's slowdown into units
	// of fleet loss; merged steps are ordered by watts saved per unit of
	// loss. Zero or negative means 1 (loss measured in plain seconds).
	LossWeight float64

	// Start is the point index the job descends from (e.g. the
	// T_opt = min(T*, T') floor under a straggler). Points before Start
	// are excluded from the merge.
	Start int
}

// MergeStep is one step of a merged fleet descent: table Table moved
// from point Point-1 to Point, lowering total fleet power to Power.
type MergeStep struct {
	// Table indexes the MergeInput whose job slowed down.
	Table int

	// Point is the job's new operating-point index.
	Point int

	// Power is the total scaled fleet power after the step, in watts.
	Power float64

	// Loss is the step's weighted slowdown cost (LossWeight × Δtime).
	Loss float64

	// Slope is the step's marginal rate: watts saved per unit of loss.
	Slope float64
}

// Merge merges N characterized frontiers into a single fleet-level
// descent: the ordered sequence of one-point slowdowns, steepest
// watts-saved-per-loss slope first, from every job at its Start point
// down to every job at its T* point. It returns the starting total
// power and the steps.
//
// Each job's average power strictly decreases along its own frontier
// (a table is a Pareto set), so every step saves power. The descent
// walks every table point, not a hull, and the tables Perseus
// characterizes are not convex, so a job's slope sequence need not be
// non-increasing and a step prefix need not be loss-optimal for the
// power it reaches. The fleet allocator walks each job's PowerHull
// instead; only the benchmark suite's layer figures (bench/layers.go)
// and this package's tests still call Merge.
//
// The next step is always the steepest of the jobs' next steps, ties to
// the lowest input index. A job's next step changes only when it is
// taken, so the walk is a Descend over the negated slopes — O((N +
// steps) log N), where rescanning every job per step made a 512-job
// fleet recompute take 0.8 s — and the step sequence, hence every float
// accumulated along it, is the rescan's.
func Merge(inputs []MergeInput) (startPower float64, steps []MergeStep) {
	js := make([]mergeLane, len(inputs))
	nSteps := 0
	for i, in := range inputs {
		s := mergeLane{lt: in.Table, scale: in.PowerScale, weight: in.LossWeight, cur: in.Start}
		if s.scale <= 0 {
			s.scale = 1
		}
		if s.weight <= 0 {
			s.weight = 1
		}
		if s.cur < 0 {
			s.cur = 0
		}
		if n := len(s.lt.Points); n == 0 {
			s.cur = 0 // empty table: draws no power, never advances
		} else {
			if s.cur >= n {
				s.cur = n - 1
			}
			startPower += s.scale * s.lt.AvgPower(s.cur)
			nSteps += n - 1 - s.cur
		}
		js[i] = s
	}

	heap := make([]Key, 0, len(js))
	for i := range js {
		if key, ok := js[i].next(int32(i)); ok {
			heap = append(heap, key)
		}
	}

	power := startPower
	if nSteps > 0 {
		steps = make([]MergeStep, 0, nSteps)
	}
	Descend(heap, func(key Key) (Key, bool, bool) {
		s := &js[key.Lane]
		s.cur++
		power -= s.dp
		steps = append(steps, MergeStep{
			Table: int(key.Lane),
			Point: s.cur,
			Power: power,
			Loss:  s.loss,
			Slope: -key.Slope,
		})
		nk, ok := s.next(key.Lane)
		return nk, ok, false
	})
	return startPower, steps
}

// mergeLane is one job of a Merge at point cur; dp and loss are its
// pending step's, to cur+1.
type mergeLane struct {
	lt            *LookupTable
	scale, weight float64
	cur           int
	dp, loss      float64
}

// next keys lane i's pending step; false once the job sits at T*.
func (s *mergeLane) next(i int32) (Key, bool) {
	if s.cur+1 >= len(s.lt.Points) {
		return Key{}, false
	}
	s.dp = s.scale * (s.lt.AvgPower(s.cur) - s.lt.AvgPower(s.cur+1))
	s.loss = s.weight * (s.lt.PointTime(s.cur+1) - s.lt.PointTime(s.cur))
	return Key{Slope: -(s.dp / s.loss), Lane: i}, true
}
