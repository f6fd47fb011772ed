package frontier

import (
	"slices"
	"sync/atomic"
)

// Rung is one step of a slope ladder: into table point Point from the
// rung before it, or from idle for the first.
type Rung struct {
	// Sigma is the step's slope in (1/t, P): P·t for the first rung (the
	// wake from idle), ΔP/Δ(1/t) from the previous rung's point for the
	// others, raised to the previous rung's Sigma where rounding would
	// put it below. A job running for d seconds at r per joule pays
	// r·Sigma per iteration the step adds, whatever d is.
	Sigma float64

	// Point indexes the table; Time, Speed and Power are its
	// PointTime, 1/PointTime and AvgPower.
	Point              int
	Time, Speed, Power float64
}

// Ladder is the slope ladder over the lower convex hull of a set of
// table points, slowest first: the wake rung into the slowest point,
// then one rung per hull vertex up to the fastest. Its Sigmas are
// non-decreasing. The vertices of the (time, energy) hull are those of
// the (1/t, P) hull, since the perspective map keeps lines as lines and
// sides as sides.
type Ladder []Rung

// ladders is a table's ladder cache: floor 0's ladder over the hull it
// climbs, and each off-hull floor's, built on first use.
type ladders struct {
	stamp
	hull []int
	all  Ladder
	off  []atomic.Pointer[Ladder] // by floor
}

// Ladder returns the slope ladder of the points a power cap with floor
// floor allows, the table's points floor..T*, from idle to the fastest.
// A floor below 0 (FirstUnderPower's answer when even T* draws more
// than the cap) allows none, and its ladder is empty. With v the first
// Hull vertex at or after floor, the hull of floor..T* is that of
// floor..v followed by Hull's vertices after v (see PowerHullFrom), so
// the ladder is Ladder(0)'s rungs up to v, then the rungs of
// HullOf(floor, v): Ladder(0) cut at v itself when floor is a vertex.
// Every ladder is built once per table and cached, and reads take no
// lock; callers must not modify it.
func (lt *LookupTable) Ladder(floor int) Ladder {
	if floor < 0 {
		return nil
	}
	c := lt.ladders.Load()
	if c == nil || c.stamp != lt.stamp() {
		c = lt.buildLadders()
	}
	j, _ := slices.BinarySearch(c.hull, floor)
	v := len(c.hull) - j // the rungs up to v
	if c.hull[j] == floor {
		return c.all[:v:v]
	}
	if l := c.off[floor].Load(); l != nil {
		return *l
	}
	idx := lt.HullOf(nil, floor, c.hull[j])
	l := make(Ladder, v, v+len(idx)-1)
	copy(l, c.all)
	for q := len(idx) - 2; q >= 0; q-- {
		l = lt.climb(l, idx[q])
	}
	c.off[floor].Store(&l)
	return l
}

// buildLadders caches floor 0's ladder for the table's current Points.
func (lt *LookupTable) buildLadders() *ladders {
	hull := lt.Hull()
	c := &ladders{stamp: lt.stamp(), hull: hull, all: make(Ladder, 0, len(hull)), off: make([]atomic.Pointer[Ladder], len(lt.Points))}
	for q := len(hull) - 1; q >= 0; q-- {
		c.all = lt.climb(c.all, hull[q])
	}
	lt.ladders.Store(c)
	return c
}

// climb appends to l the rung into point i from l's last point, or from
// idle when l is empty.
func (lt *LookupTable) climb(l Ladder, i int) Ladder {
	t := lt.PointTime(i)
	r := Rung{Point: i, Time: t, Speed: 1 / t, Power: lt.AvgPower(i)}
	r.Sigma = r.Power * t
	if n := len(l); n > 0 {
		prev := &l[n-1]
		r.Sigma = max((r.Power-prev.Power)/(r.Speed-prev.Speed), prev.Sigma)
	}
	return append(l, r)
}

// Least returns min(0, min over the ladder's points of rate·P − λ/t):
// the least reduced cost per second of running at price λ, idle
// included. Moving from rung q−1's point to rung q's changes the cost by
// Δ(1/t)·(rate·Sigma − λ), so the minimum sits at the first point whose
// next rung has rate·Sigma ≥ λ, found by binary search; its two
// neighbours are priced too, since rounding can put that point one off
// between nearly collinear rungs. The result is a real point's cost (or
// idle's 0), so it is never below the true minimum.
func (l Ladder) Least(rate, lambda float64) float64 {
	lo, hi := 1, len(l)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rate*l[mid].Sigma < lambda {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	best := 0.0
	for _, r := range l[max(lo-2, 0):min(lo+1, len(l))] {
		best = min(best, rate*r.Power-lambda*r.Speed)
	}
	return best
}
