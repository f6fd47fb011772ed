package grid

import (
	"encoding/binary"
	"fmt"
	"math"
)

// A Plan travels on /grid/plan as a PGP1 body, little-endian throughout:
//
//	header  "PGP1" | objective u8 | feasible u8 |
//	        target_iterations, deadline_s, power_scale, iterations,
//	        energy_j, carbon_g, cost_usd, finish_s, price: f64 each |
//	        run count u32
//	run     count u32 | point i32 (-1 = Idle) | slice count u32 |
//	        that many (point u32, seconds f64) pairs
//
// The objective is 0 (carbon), 1 (cost) or 2 (energy), feasible 0 or 1,
// and the floats are the plan's float64s bit for bit. Inside JSON bodies
// (a rollout's remaining plan, a region plan's temporal one) a Plan keeps
// its JSON form.
const (
	planMagic      = "PGP1"
	planHeaderSize = 4 + 1 + 1 + 9*8 + 4
	runHeadSize    = 4 + 4 + 4 // count, point, slice count
	sliceSize      = 4 + 8     // point, seconds
)

var (
	le = binary.LittleEndian

	// planObjectives are the objectives by their PGP1 code.
	planObjectives = [...]Objective{ObjectiveCarbon, ObjectiveCost, ObjectiveEnergy}
)

func planError(format string, args ...any) error {
	return fmt.Errorf("grid: plan (PGP1): "+format, args...)
}

// checkRun reports why run i — count intervals at point, with n slices —
// is malformed: a count below one, a point below Idle, or slices in a run
// of more than one interval. It also refuses what PGP1 cannot carry.
func checkRun(i, count, point, n int) error {
	switch {
	case count < 1 || uint64(count) > math.MaxUint32:
		return planError("run %d covers %d intervals", i, count)
	case point < Idle || int64(point) > math.MaxInt32:
		return planError("run %d is at point %d", i, point)
	case n > 0 && count != 1:
		return planError("run %d of %d intervals has slices", i, count)
	}
	return nil
}

// checkSlice reports why a slice of run i is malformed: a point below 0
// (or past uint32) or negative seconds.
func checkSlice(i int, sl Slice) error {
	if sl.Point < 0 || uint64(sl.Point) > math.MaxUint32 || sl.Seconds < 0 {
		return planError("run %d has a slice of %v s at point %d", i, sl.Seconds, sl.Point)
	}
	return nil
}

// readSlice reads the slice b starts with.
func readSlice(b []byte) Slice {
	return Slice{Point: int(le.Uint32(b)), Seconds: math.Float64frombits(le.Uint64(b[4:]))}
}

// MarshalBinary returns the plan's PGP1 body. It refuses an objective
// other than carbon, cost or energy and the runs UnmarshalBinary would
// refuse, so every body it writes reads back as the same plan.
func (p *Plan) MarshalBinary() ([]byte, error) {
	code := -1
	for c, obj := range planObjectives {
		if p.Objective == obj {
			code = c
		}
	}
	if code < 0 {
		return nil, planError("objective %q has no code", p.Objective)
	}
	if uint64(len(p.Runs)) > math.MaxUint32 {
		return nil, planError("%d runs do not fit a uint32 count", len(p.Runs))
	}
	size := planHeaderSize + runHeadSize*len(p.Runs)
	for i, r := range p.Runs {
		if err := checkRun(i, r.Count, r.Point, len(r.Slices)); err != nil {
			return nil, err
		}
		for _, sl := range r.Slices {
			if err := checkSlice(i, sl); err != nil {
				return nil, err
			}
		}
		size += sliceSize * len(r.Slices)
	}
	b := make([]byte, 0, size)
	b = append(b, planMagic...)
	b = append(b, byte(code), 0)
	if p.Feasible {
		b[5] = 1
	}
	for _, f := range [...]float64{p.Target, p.DeadlineS, p.PowerScale, p.Iterations,
		p.EnergyJ, p.CarbonG, p.CostUSD, p.FinishS, p.Price} {
		b = le.AppendUint64(b, math.Float64bits(f))
	}
	b = le.AppendUint32(b, uint32(len(p.Runs)))
	for _, r := range p.Runs {
		b = le.AppendUint32(b, uint32(r.Count))
		b = le.AppendUint32(b, uint32(int32(r.Point)))
		b = le.AppendUint32(b, uint32(len(r.Slices)))
		for _, sl := range r.Slices {
			b = le.AppendUint32(b, uint32(sl.Point))
			b = le.AppendUint64(b, math.Float64bits(sl.Seconds))
		}
	}
	return b, nil
}

// UnmarshalBinary reads a PGP1 body into p. A first pass checks the
// framing and the runs without allocating: it refuses a wrong magic, an
// unknown objective or feasible code, a body cut short or followed by
// anything, a count the bytes left cannot hold, and a malformed run or
// slice (see checkRun, checkSlice). Then the runs take one allocation and
// all their slices one more, each run's capped so that appending to it
// cannot reach another's; a run without slices has nil Slices, as the
// solver builds it. Nothing in p points into data. On an error p is left
// as it was.
func (p *Plan) UnmarshalBinary(data []byte) error {
	if len(data) < planHeaderSize {
		return planError("the %d-byte body is shorter than the header", len(data))
	}
	if string(data[:4]) != planMagic {
		return planError("the body starts with %q, not %q", data[:4], planMagic)
	}
	if data[4] >= byte(len(planObjectives)) {
		return planError("objective code %d is not 0 (carbon), 1 (cost) or 2 (energy)", data[4])
	}
	if data[5] > 1 {
		return planError("feasible is %d, not 0 or 1", data[5])
	}
	n := le.Uint32(data[planHeaderSize-4:])
	rest := data[planHeaderSize:]
	if uint64(n)*runHeadSize > uint64(len(rest)) {
		return planError("%d runs need %d bytes at least; %d are left", n, uint64(n)*runHeadSize, len(rest))
	}
	total := 0
	for i := range int(n) {
		if len(rest) < runHeadSize {
			return planError("run %d of %d is cut short", i, n)
		}
		count, point, k := le.Uint32(rest), int32(le.Uint32(rest[4:])), le.Uint32(rest[8:])
		if err := checkRun(i, int(count), int(point), int(k)); err != nil {
			return err
		}
		rest = rest[runHeadSize:]
		if uint64(k)*sliceSize > uint64(len(rest)) {
			return planError("run %d claims %d slices; %d bytes are left", i, k, len(rest))
		}
		for j := range int(k) {
			if err := checkSlice(i, readSlice(rest[sliceSize*j:])); err != nil {
				return err
			}
		}
		rest = rest[sliceSize*int(k):]
		total += int(k)
	}
	if len(rest) != 0 {
		return planError("%d bytes follow the last run", len(rest))
	}

	f := func(i int) float64 { return math.Float64frombits(le.Uint64(data[6+8*i:])) }
	q := Plan{
		Objective:  planObjectives[data[4]],
		Target:     f(0),
		DeadlineS:  f(1),
		PowerScale: f(2),
		Feasible:   data[5] == 1,
		Iterations: f(3),
		FinishS:    f(7),
		Price:      f(8),
		Runs:       make([]Run, n),
	}
	q.EnergyJ, q.CarbonG, q.CostUSD = f(4), f(5), f(6)
	var pool []Slice
	if total > 0 {
		pool = make([]Slice, total)
	}
	rest = data[planHeaderSize:]
	for i := range q.Runs {
		k := int(le.Uint32(rest[8:]))
		q.Runs[i] = Run{Count: int(le.Uint32(rest)), Point: int(int32(le.Uint32(rest[4:])))}
		rest = rest[runHeadSize:]
		if k > 0 {
			run := pool[:k:k]
			pool = pool[k:]
			for j := range run {
				run[j] = readSlice(rest[sliceSize*j:])
			}
			q.Runs[i].Slices = run
			rest = rest[sliceSize*k:]
		}
	}
	*p = q
	return nil
}
