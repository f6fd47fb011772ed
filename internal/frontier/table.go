package frontier

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"perseus/internal/gpu"
)

// LookupTable is the serializable form of a characterized frontier: the
// energy-schedule cache the Perseus server keeps per job, "saved in a
// lookup table indexed by T'" (paper §3.2). Unlike Frontier it carries
// fully materialized frequency plans and no profile state, so it can be
// persisted across server restarts and served without recomputation.
type LookupTable struct {
	// Unit is the optimizer's τ in seconds.
	Unit float64

	// TminUnits and TStarUnits bound the frontier in τ units.
	TminUnits  int64
	TStarUnits int64

	// Points are the cached energy schedules by increasing time, each
	// strictly cheaper in energy than every faster one: the Pareto set.
	// Points must not change once the table is planned on (Hull caches
	// an index into them).
	Points []TablePoint

	hull      atomic.Pointer[hullIndex] // Hull's cache; never serialized
	powerHull atomic.Pointer[hullIndex] // PowerHull's cache; never serialized
	ladders   atomic.Pointer[ladders]   // Ladder's cache; never serialized
}

// stamp identifies the Points slice a cache indexes, so a table whose
// Points are replaced or resized is re-indexed.
type stamp struct {
	first *TablePoint
	n     int
}

// stamp returns the stamp of the table's current Points.
func (lt *LookupTable) stamp() stamp {
	s := stamp{n: len(lt.Points)}
	if s.n > 0 {
		s.first = &lt.Points[0]
	}
	return s
}

// hullIndex is a cached hull with the stamp of the Points it indexes.
type hullIndex struct {
	stamp
	idx []int
}

// TablePoint is one cached energy schedule.
type TablePoint struct {
	// TimeUnits is the planned iteration time in τ units.
	TimeUnits int64

	// Energy is the discrete adjusted computation energy in joules.
	Energy float64

	// Freqs is the realized per-computation frequency plan (MHz),
	// indexed by schedule op id; 0 marks constant-time operations.
	Freqs []gpu.Frequency
}

// Time returns the planned iteration time in seconds under the table's τ.
func (lt *LookupTable) time(units int64) float64 { return float64(units) * lt.Unit }

// Table materializes the frontier into a serializable lookup table, one
// row per point. It replays the walk from the T* point down, keeping one
// duration and one frequency vector and re-realizing only the
// computations each step moved; every row's plan is a slice of one
// array. Memory is points × computations; for very fine frontiers
// consider sampling with stride before persisting.
func (f *Frontier) Table() *LookupTable {
	last := len(f.points) - 1
	lt := &LookupTable{
		Unit:       f.Unit,
		TminUnits:  f.tminUnits,
		TStarUnits: f.tstarUnits,
		Points:     make([]TablePoint, len(f.points)),
	}
	n := f.nReal
	freqs := make([]gpu.Frequency, len(f.points)*n)
	durs := f.points[last].Durations()
	cur := f.points[last].Plan()
	step := f.points[last].index
	for row := last; row >= 0; row-- {
		pt := f.points[row]
		for step < pt.index {
			step++
			for _, d := range f.deltas[step] {
				durs[d.comp] += int64(d.delta)
				chosen, _ := realize(&f.info[d.comp], durs[d.comp], f.Unit)
				cur[d.comp] = chosen.Freq
			}
		}
		plan := freqs[row*n : (row+1)*n : (row+1)*n]
		copy(plan, cur)
		lt.Points[row] = TablePoint{TimeUnits: pt.TimeUnits, Energy: pt.Energy, Freqs: plan}
	}
	return lt
}

// paretoSet keeps, in place and in order, the time-ascending points that
// no faster point matches: a point is kept only when its energy is
// strictly below every faster kept point's. The fastest point is always
// kept.
func paretoSet[P any](pts []P, energy func(P) float64) []P {
	keep := pts[:0]
	for _, p := range pts {
		if len(keep) == 0 || energy(p) < energy(keep[len(keep)-1]) {
			keep = append(keep, p)
		}
	}
	return keep
}

// lowerHull appends to dst the positions among lo..hi (time-ascending)
// that are vertices of the lower convex hull of (time, energy):
// Andrew's monotone chain, O(hi-lo). A point on or above the chord of
// its neighbours is not a vertex.
func lowerHull(dst []int, lo, hi int, time func(int) float64, energy func(int) float64) []int {
	base := len(dst)
	for i := lo; i <= hi; i++ {
		for len(dst)-base >= 2 {
			a, b := dst[len(dst)-2], dst[len(dst)-1]
			if (energy(b)-energy(a))*(time(i)-time(a)) < (energy(i)-energy(a))*(time(b)-time(a)) {
				break // b is strictly below the chord a→i
			}
			dst = dst[:len(dst)-1]
		}
		dst = append(dst, i)
	}
	return dst
}

// Hull returns the indices of the points on the table's lower convex
// hull of (time, energy), fastest first. The Tmin and T* points are
// always on it. Time-sharing two hull neighbours reaches every point of
// the segment between them, so a planner that may time-share steps over
// these points only: any other point costs more than the mix of its
// hull neighbours at the same throughput. The index is computed once
// per table, on first use, and cached; callers must not modify it.
func (lt *LookupTable) Hull() []int {
	return lt.cached(&lt.hull, func(n int) []int { return lt.HullOf(nil, 0, n-1) })
}

// PowerHull returns the indices of the points on the table's lower
// convex hull of (time, average power), fastest first: the vertices a
// fleet allocator trading a power cap against linear slowdown loss
// walks (fleet.Allocate), since any other point draws more than the
// chord of its hull neighbours at its time. The Tmin and T* points are
// always on it. It is cached like Hull; callers must not modify it.
func (lt *LookupTable) PowerHull() []int {
	return lt.cached(&lt.powerHull, func(n int) []int { return lt.powerHullOf(nil, 0, n-1) })
}

// PowerHullFrom returns the lower convex hull of (time, average power)
// over points lo..T* alone, fastest first: the hull a job whose
// straggler floor is point lo descends; lo must index a point. With v
// the first PowerHull vertex at or after lo, it is the hull of lo..v
// followed by PowerHull's vertices after v. A vertex of the whole
// table's hull keeps its supporting line in any subset holding it, so
// every vertex from v on stays one (and the suffix hull splits at v),
// while a point after v on or above the chord of its hull neighbours,
// both at or after v, stays on or above it. The cost is O(v − lo), and
// when lo is itself a vertex the result is a suffix of the cached
// index, which callers must not modify.
func (lt *LookupTable) PowerHullFrom(lo int) []int {
	h := lt.PowerHull()
	k, _ := slices.BinarySearch(h, lo)
	if h[k] == lo {
		return h[k:]
	}
	out := lt.powerHullOf(make([]int, 0, h[k]-lo+1+len(h)-k-1), lo, h[k])
	return append(out, h[k+1:]...)
}

func (lt *LookupTable) powerHullOf(dst []int, lo, hi int) []int {
	return lowerHull(dst, lo, hi,
		func(i int) float64 { return float64(lt.Points[i].TimeUnits) },
		lt.AvgPower)
}

// cached returns the hull index p caches, building it with build(n)
// when Points was replaced or resized since it was stored.
func (lt *LookupTable) cached(p *atomic.Pointer[hullIndex], build func(n int) []int) []int {
	s := lt.stamp()
	if h := p.Load(); h != nil && h.stamp == s {
		return h.idx
	}
	h := &hullIndex{stamp: s, idx: build(s.n)}
	p.Store(h)
	return h.idx
}

// HullOf appends to dst the indices of the lower convex hull of points
// lo..hi alone, fastest first: for instance the hull of the points a
// power cap still allows, which may include points Hull skips.
func (lt *LookupTable) HullOf(dst []int, lo, hi int) []int {
	return lowerHull(dst, lo, hi,
		func(i int) float64 { return float64(lt.Points[i].TimeUnits) },
		func(i int) float64 { return lt.Points[i].Energy })
}

// Lookup returns the energy schedule for an anticipated straggler
// iteration time tPrime, with the same T_opt = min(T*, T') semantics as
// Frontier.Lookup (paper Eq. 2): on a table from Frontier.Table, the
// point the frontier's Lookup returns. The lookup is a binary search:
// "instantaneous" per paper §6.5. An empty table (never produced by
// Table or LoadTable, but possible for hand-built values) returns the
// zero TablePoint.
func (lt *LookupTable) Lookup(tPrime float64) TablePoint {
	if len(lt.Points) == 0 {
		return TablePoint{}
	}
	return lt.Points[lt.LookupIndex(tPrime)]
}

// PointTime returns the planned iteration time of point i in seconds.
func (lt *LookupTable) PointTime(i int) float64 { return lt.time(lt.Points[i].TimeUnits) }

// AvgPower returns the average power draw of point i in watts: the
// point's adjusted computation energy divided by its planned iteration
// time. Along a Pareto table time strictly rises while energy strictly
// falls, so average power strictly decreases from the Tmin point to the
// T* point — this is the knob a fleet-level allocator trades across
// jobs to meet a datacenter power envelope.
func (lt *LookupTable) AvgPower(i int) float64 {
	pt := lt.Points[i]
	return pt.Energy / lt.time(pt.TimeUnits)
}

// FirstUnderPower returns the index of the fastest point whose average
// power is at most maxW, or -1 when even the T* point draws more.
// Average power strictly decreases along a Pareto table (see AvgPower),
// so this is the operating floor a per-interval facility cap imposes on
// a job.
func (lt *LookupTable) FirstUnderPower(maxW float64) int {
	n := len(lt.Points)
	i := sort.Search(n, func(i int) bool { return lt.AvgPower(i) <= maxW })
	if i == n {
		return -1
	}
	return i
}

// LookupIndex returns the index of the point Lookup(tPrime) would
// return, for callers that track operating points by position.
func (lt *LookupTable) LookupIndex(tPrime float64) int {
	if len(lt.Points) == 0 {
		return -1
	}
	units := toptUnits(tPrime, lt.Unit, lt.TStarUnits)
	i := sort.Search(len(lt.Points), func(i int) bool { return lt.Points[i].TimeUnits > units })
	return max(i-1, 0)
}

// toptUnits is paper Eq. 2's T_opt = min(T*, tPrime) floored to whole
// units τ = unit seconds, T* being tstarUnits units; the 1e-9 guards a
// quotient rounded just below an integer. A lookup answers with the last
// point at or below it, or the fastest point when none is.
func toptUnits(tPrime, unit float64, tstarUnits int64) int64 {
	return int64(math.Floor(math.Min(tPrime, float64(tstarUnits)*unit)/unit + 1e-9))
}

// Tmin returns the fastest cached iteration time in seconds.
func (lt *LookupTable) Tmin() float64 { return lt.time(lt.TminUnits) }

// TStar returns the minimum-energy iteration time in seconds.
func (lt *LookupTable) TStar() float64 { return lt.time(lt.TStarUnits) }
