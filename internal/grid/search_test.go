package grid

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"perseus/internal/frontier"
)

// bruteForceChains enumerates the optimum of the problem the solver
// solves: each interval idles or runs one vertex of the
// hull its cap leaves it (hullFrom), and at most one interval
// time-shares two states adjacent along that chain, idle and the
// slowest vertex included. It enumerates every combination of whole
// choices, with and without one fractional interval, so it depends on
// no fill order. ok is false when no combination covers the target.
func bruteForceChains(lt *frontier.LookupTable, sig *Signal, opts Options) (best float64, ok bool) {
	d, scale, obj, err := normalize(lt, sig, opts)
	if err != nil {
		return 0, false
	}
	type state struct{ w, c float64 }
	var chains [][]state
	for _, iv := range sig.Truncate(d).Intervals {
		lo := 0
		if iv.CapW > 0 {
			lo = lt.FirstUnderPower(iv.CapW / scale)
		}
		states := []state{{}}
		if lo >= 0 {
			chain := hullFrom(lt, lo)
			for j := len(chain) - 1; j >= 0; j-- {
				p, dur := chain[j], iv.Duration()
				states = append(states, state{dur / lt.PointTime(p), PerJoule(obj, iv) * scale * lt.AvgPower(p) * dur})
			}
		}
		chains = append(chains, states)
	}
	best = math.Inf(1)
	for fk := -1; fk < len(chains); fk++ {
		var walk func(k int, cover, cost float64)
		walk = func(k int, cover, cost float64) {
			switch {
			case k == len(chains) && fk < 0:
				if cover >= opts.Target-1e-9 && cost < best {
					best, ok = cost, true
				}
			case k == len(chains):
				need := opts.Target - cover
				ch := chains[fk]
				for i := 0; i+1 < len(ch); i++ {
					a, b := ch[i], ch[i+1]
					if f := (need - a.w) / (b.w - a.w); f >= -1e-12 && f <= 1+1e-12 {
						if total := cost + a.c + f*(b.c-a.c); total < best {
							best, ok = total, true
						}
					}
				}
			case k == fk:
				walk(k+1, cover, cost)
			default:
				for _, s := range chains[k] {
					walk(k+1, cover+s.w, cost+s.c)
				}
			}
		}
		walk(0, 0, 0)
	}
	return best, ok
}

// checkEdge sweeps targets over an instance. Every solve must equal the scan reference (==), its plan must pass
// the λ certificate, its total must match the brute-force optimum
// within 1e-9, and no plan of whole table points — any allowed point,
// on the hull or not — may cost less.
func checkEdge(t *testing.T, lt *frontier.LookupTable, sig *Signal, opts Options) {
	t.Helper()
	o := opts
	o.Target = math.MaxFloat64
	whole, err := solve(lt, sig, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, tf := range []float64{0.03, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 0.99, 1} {
		o.Target = tf * whole.maxCover
		checkAgainstScan(t, &solution{}, lt, sig, o)
		p, err := Optimize(lt, sig, o)
		if err != nil {
			t.Fatal(err)
		}
		checkPrice(t, lt, sig, o, p)
		want, ok := bruteForceChains(lt, sig, o)
		if !ok || !p.Feasible {
			t.Fatalf("target %v: feasible %v, brute force %v", o.Target, p.Feasible, ok)
		}
		if got := p.Total(); math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("target %v: plan %.12g, brute-force optimum %.12g", o.Target, got, want)
		}
		if points, ok := bruteForce(lt, sig, o); ok && points < p.Total()-1e-9*(1+points) {
			t.Fatalf("target %v: whole points cost %.12g, below the plan's %.12g", o.Target, points, p.Total())
		}
	}
}

// flatSignal is n ten-minute intervals with the rates given in turn.
func flatSignal(n int, carbon, price []float64) *Signal {
	sig := &Signal{}
	for k := 0; k < n; k++ {
		sig.Intervals = append(sig.Intervals, Interval{
			StartS: float64(k) * 600, EndS: float64(k+1) * 600,
			CarbonGPerKWh: carbon[k%len(carbon)], PriceUSDPerKWh: price[k%len(price)],
		})
	}
	return sig
}

// TestSearchEdgeCases holds the price search to the scan reference,
// brute force and the λ certificate on the shapes where a price search
// can go wrong.
func TestSearchEdgeCases(t *testing.T) {
	convex := convexTable(0.01, 80, 84, 3000, 120)

	t.Run("energy-ties", func(t *testing.T) {
		// Every interval has one rate, so every rung's slope is shared by
		// all four: the order is interval, then step. Taken steps descend
		// with the index and differ by one at most, the fractional step
		// included as half a step.
		sig := flatSignal(4, []float64{300, 100}, []float64{0.1})
		opts := Options{Objective: ObjectiveEnergy}
		checkEdge(t, convex, sig, opts)
		for tf := 0.01; tf < 1; tf += 0.01 {
			opts.Target = tf * sig.Horizon() / convex.Tmin()
			sol, err := solve(convex, sig, opts)
			if err != nil {
				t.Fatal(err)
			}
			var progress []float64
			for k := range sol.ivs {
				steps := 0.0
				if cur := pointOf(sol, k); cur >= 0 {
					steps = float64(len(convex.Points) - cur)
				}
				if sol.frac.k == k {
					steps += 0.5
				}
				progress = append(progress, steps)
			}
			for k := 1; k < len(progress); k++ {
				if progress[k] > progress[k-1] || progress[0]-progress[len(progress)-1] > 1 {
					t.Fatalf("target %v: steps per interval %v, want non-increasing within one step", opts.Target, progress)
				}
			}
		}
	})

	t.Run("long-ties", func(t *testing.T) {
		// Sixty intervals share every slope: one tie run longer than any
		// bracket, which the walk must cut on exact sums like the scan.
		sig := flatSignal(60, []float64{300, 100, 200}, []float64{0.1})
		for tf := 0.005; tf < 1; tf += 0.0125 {
			opts := Options{Objective: ObjectiveEnergy, Target: tf * sig.Horizon() / convex.Tmin()}
			checkAgainstScan(t, &solution{}, convex, sig, opts)
			p, err := Optimize(convex, sig, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkPrice(t, convex, sig, opts, p)
		}
	})

	t.Run("zero-rates", func(t *testing.T) {
		// Two intervals are free, so λ* = 0 for any target they cover,
		// and the plan costs nothing.
		sig := flatSignal(4, []float64{0, 250, 0, 400}, []float64{0.2, 0, 0.1, 0})
		for _, obj := range []Objective{ObjectiveCarbon, ObjectiveCost} {
			checkEdge(t, convex, sig, Options{Objective: obj})
			free := 2 * 600 / convex.Tmin()
			p, err := Optimize(convex, sig, Options{Objective: obj, Target: 0.9 * free})
			if err != nil {
				t.Fatal(err)
			}
			if p.Price != 0 || p.Total() != 0 {
				t.Fatalf("%s: a target the free intervals cover has price %v and cost %v, want 0 and 0", obj, p.Price, p.Total())
			}
		}
	})

	t.Run("deadline-cut", func(t *testing.T) {
		sig := flatSignal(4, []float64{300, 200, 350, 100}, []float64{0.1})
		checkEdge(t, convex, sig, Options{DeadlineS: sig.Horizon() - 250, PowerScale: 2})
	})

	t.Run("one-point", func(t *testing.T) {
		sig := flatSignal(4, []float64{300, 200, 350, 100}, []float64{0.1})
		checkEdge(t, convexTable(0.01, 80, 80, 3000, 120), sig, Options{})
	})

	t.Run("caps-off-hull", func(t *testing.T) {
		// Caps whose floor is off the table's hull: the interval climbs the
		// hull, then its own prefix. Two intervals share one floor.
		found := 0
		for seed := int64(1); seed <= 30 && found < 4; seed++ {
			lt := bumpyTable(rand.New(rand.NewSource(seed)), 50, 6)
			hull := lt.Hull()
			f := -1
			for i := 1; i < len(lt.Points) && f < 0; i++ {
				if !slices.Contains(hull, i) && i < hull[len(hull)-1] {
					f = i
				}
			}
			if f < 0 {
				continue
			}
			found++
			sig := flatSignal(4, []float64{300, 150, 420, 220}, []float64{0.1})
			capW := (lt.AvgPower(f) + lt.AvgPower(f-1)) / 2 // allows f, not f-1
			sig.Intervals[1].CapW, sig.Intervals[3].CapW = capW, capW
			sig.Intervals[2].CapW = lt.AvgPower(len(lt.Points)-1) / 2 // forced idle
			t.Run(fmt.Sprint(seed), func(t *testing.T) {
				checkEdge(t, lt, sig, Options{})
				checkEdge(t, lt, sig, Options{Objective: ObjectiveCost})
			})
		}
		if found < 4 {
			t.Fatalf("only %d tables with an off-hull floor", found)
		}
	})

	t.Run("near-collinear", func(t *testing.T) {
		// Three hull vertices a hair off one line: the two upper rungs'
		// σ are equal but for rounding, and computed as they are they
		// descend (as on a characterized table, whose ladder can read
		// 4374.658014610958 then 4374.658014610925). The table's ladder
		// raises the second to the first (frontier's TestLadderRaisesRung).
		lt := nearCollinearTable(t)
		sig := flatSignal(4, []float64{300, 300, 200, 300}, []float64{0.1})
		checkEdge(t, lt, sig, Options{})
		checkEdge(t, lt, sig, Options{Objective: ObjectiveEnergy})
	})
}

// nearCollinearTable finds a three-point table, every point on its
// hull, whose raw ladder σ descend by rounding from the second rung to
// the third.
func nearCollinearTable(t *testing.T) *frontier.LookupTable {
	t.Helper()
	const unit = 0.01
	for t0 := int64(60); t0 < 90; t0++ {
		t1, t2 := t0+7, t0+19
		e0, e2 := 5000.0, 4100.0
		chord := e0 + (e2-e0)*float64(t1-t0)/float64(t2-t0)
		for ulps := 1; ulps <= 64; ulps++ {
			e1 := chord
			for range ulps {
				e1 = math.Nextafter(e1, 0)
			}
			lt := &frontier.LookupTable{Unit: unit, TminUnits: t0, TStarUnits: t2, Points: []frontier.TablePoint{
				{TimeUnits: t0, Energy: e0}, {TimeUnits: t1, Energy: e1}, {TimeUnits: t2, Energy: e2},
			}}
			if len(lt.Hull()) != 3 {
				continue
			}
			tm := func(i int) float64 { return lt.PointTime(i) }
			pw := func(i int) float64 { return lt.AvgPower(i) }
			if (pw(0)-pw(1))/(1/tm(0)-1/tm(1)) < (pw(1)-pw(2))/(1/tm(1)-1/tm(2)) {
				return lt
			}
		}
	}
	t.Fatal("no near-collinear table whose σ descends")
	return nil
}
