package frontier

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// convexTable hand-builds a table whose energy curve is E(t) = a + b/t
// on a unit grid from tmin to tstar units: every point is on its hull.
func convexTable(unit float64, tminU, tstarU int64, a, b float64) *LookupTable {
	lt := &LookupTable{Unit: unit, TminUnits: tminU, TStarUnits: tstarU}
	for u := tminU; u <= tstarU; u++ {
		t := float64(u) * unit
		lt.Points = append(lt.Points, TablePoint{TimeUnits: u, Energy: a + b/t})
	}
	return lt
}

// bumpyTable builds a 40-point table with uneven energy steps, so some
// of its points, and so some cap floors, are off its hull.
func bumpyTable(rng *rand.Rand) *LookupTable {
	lt := &LookupTable{Unit: 0.01, TminUnits: 50}
	e := 6000 + 2000*rng.Float64()
	for u := int64(50); len(lt.Points) < 40; u += 1 + rng.Int63n(3) {
		lt.Points = append(lt.Points, TablePoint{TimeUnits: u, Energy: e})
		e -= 5 + 60*rng.Float64()
		lt.TStarUnits = u
	}
	return lt
}

// nearCollinearTable finds a three-point table, every point on its
// hull, whose σ computed from the points descend by rounding from the
// second rung to the third, and returns it with the three raw σ.
func nearCollinearTable(t *testing.T) (*LookupTable, [3]float64) {
	t.Helper()
	for t0 := int64(60); t0 < 90; t0++ {
		t1, t2 := t0+7, t0+19
		e0, e2 := 5000.0, 4100.0
		chord := e0 + (e2-e0)*float64(t1-t0)/float64(t2-t0)
		for ulps := 1; ulps <= 64; ulps++ {
			e1 := chord
			for range ulps {
				e1 = math.Nextafter(e1, 0)
			}
			lt := &LookupTable{Unit: 0.01, TminUnits: t0, TStarUnits: t2, Points: []TablePoint{
				{TimeUnits: t0, Energy: e0}, {TimeUnits: t1, Energy: e1}, {TimeUnits: t2, Energy: e2},
			}}
			if len(lt.Hull()) != 3 {
				continue
			}
			tm, pw := lt.PointTime, lt.AvgPower
			raw := [3]float64{
				pw(2) * tm(2),
				(pw(1) - pw(2)) / (1/tm(1) - 1/tm(2)),
				(pw(0) - pw(1)) / (1/tm(0) - 1/tm(1)),
			}
			if raw[2] < raw[1] {
				return lt, raw
			}
		}
	}
	t.Fatal("no near-collinear table whose σ descends")
	return nil, [3]float64{}
}

// ladderTables are the tables the ladder tests run on: convex ones,
// non-convex ones whose floors fall off the hull, and a near-collinear
// one whose raw σ descend, with those σ.
func ladderTables(t *testing.T, rng *rand.Rand) ([]*LookupTable, [3]float64) {
	tables := []*LookupTable{
		convexTable(0.01, 80, 110, 3000, 120),
		convexTable(0.005, 40, 200, 900, 300),
	}
	for range 4 {
		tables = append(tables, bumpyTable(rng))
	}
	collinear, raw := nearCollinearTable(t)
	return append(tables, collinear), raw
}

// TestLadderMatchesScan holds every cap floor's ladder to a scan of the
// points the floor allows, on several tables (see ladderTables). Each
// ladder wakes into T*, ends at the floor, never descends, and is
// Ladder(0)'s prefix when the floor is a hull vertex; floor -1's is
// empty and prices idle. At prices at, beside and between every σ of
// the ladder, at the near-collinear table's raw σ and at random, Least
// equals min(0, rate·P − λ/t over the allowed points) to 1e-12 of the
// terms' size. It may never be below the scan (it prices a real point)
// and never above it by more than that rounding: a region bound above
// the true minimum would prune a winning move.
func TestLadderMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tables, raw := ladderTables(t, rng)
	var checked, exact, offHull int
	var worst float64
	for ti, lt := range tables {
		n := len(lt.Points)
		for f := range n {
			l := lt.Ladder(f)
			if l[0].Point != n-1 || l[len(l)-1].Point != f {
				t.Fatalf("table %d floor %d: ladder runs %d..%d, want %d..%d", ti, f, l[0].Point, l[len(l)-1].Point, n-1, f)
			}
			if slices.Contains(lt.Hull(), f) {
				if all := lt.Ladder(0); !slices.Equal(l, all[:len(l)]) {
					t.Fatalf("table %d floor %d: hull floor's ladder is not Ladder(0)'s prefix", ti, f)
				}
			} else {
				offHull++
			}
			for q := 1; q < len(l); q++ {
				if l[q].Sigma < l[q-1].Sigma {
					t.Fatalf("table %d floor %d: ladder σ descends at rung %d: %v", ti, f, q, l)
				}
			}
			for _, rate := range []float64{0, 1e-4, 3e-4 * (1 + rng.Float64()), 1} {
				lambdas := []float64{0, 1e9 * rng.Float64()}
				sigmas := append([]float64{raw[0], raw[1], raw[2], (raw[1] + raw[2]) / 2}, 0)
				for q, r := range l {
					sigmas = append(sigmas, r.Sigma)
					if q > 0 {
						sigmas = append(sigmas, (l[q-1].Sigma+r.Sigma)/2)
					}
				}
				for _, s := range sigmas {
					at := rate * s
					lambdas = append(lambdas, at, math.Nextafter(at, 0), math.Nextafter(at, math.Inf(1)), at*(1+1e-9), at*(1-1e-9))
				}
				for _, lambda := range lambdas {
					got := l.Least(rate, lambda)
					want, size := 0.0, 0.0
					for i := f; i < n; i++ {
						c, w := rate*lt.AvgPower(i), lambda*(1/lt.PointTime(i))
						want = min(want, c-w)
						size = max(size, c, w)
					}
					if got < want {
						t.Fatalf("table %d floor %d rate %v λ %v: ladder %v below the scan's %v", ti, f, rate, lambda, got, want)
					}
					if got-want > 1e-12*size {
						t.Fatalf("table %d floor %d rate %v λ %v: ladder %v above the scan's %v", ti, f, rate, lambda, got, want)
					}
					worst = max(worst, (got-want)/max(size, math.SmallestNonzeroFloat64))
					if got == want {
						exact++
					}
					checked++
				}
			}
		}
	}
	if offHull == 0 {
		t.Fatal("every floor is a hull vertex: the off-hull ladders went untested")
	}
	if l := tables[0].Ladder(-1); len(l) != 0 || l.Least(1, 1) != 0 {
		t.Fatalf("floor -1 (a cap that allows no point): ladder %v prices %v, want empty and idle's 0", l, l.Least(1, 1))
	}
	t.Logf("checked %d prices (%d bit-equal to the scan); worst gap %.1e of the terms' size", checked, exact, worst)
}

// TestLadderRaisesRung checks the clamp on a near-collinear table (as on
// a characterized table, whose ladder can read 4374.658014610958 then
// 4374.658014610925): the third rung's σ, computed below the second's,
// is raised to it, and the wake rung's is P·t at T*.
func TestLadderRaisesRung(t *testing.T) {
	lt, raw := nearCollinearTable(t)
	l := lt.Ladder(0)
	if len(l) != 3 {
		t.Fatalf("ladder %v, want 3 rungs", l)
	}
	for q := 1; q < len(l); q++ {
		if l[q].Sigma < l[q-1].Sigma {
			t.Fatalf("ladder %v descends at rung %d", l, q)
		}
	}
	if l[0].Sigma != raw[0] || l[1].Sigma != raw[1] {
		t.Fatalf("rungs 0 and 1 σ %v %v, want %v %v", l[0].Sigma, l[1].Sigma, raw[0], raw[1])
	}
	if l[2].Sigma != raw[1] {
		t.Fatalf("rung 2 σ %v, want raised to rung 1's %v (raw %v)", l[2].Sigma, raw[1], raw[2])
	}
}

// TestLadderConcurrentReads has goroutines read every floor's ladder of
// shared tables at once, each in its own order and with the first
// builds racing (run it under -race): every read equals the ladder an
// unshared copy of the table builds. Cached reads allocate nothing, and
// a table whose Points are replaced gets ladders of its new points.
func TestLadderConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tables, _ := ladderTables(t, rng)
	want := make([][]Ladder, len(tables))
	for ti, lt := range tables {
		own := &LookupTable{Unit: lt.Unit, TminUnits: lt.TminUnits, TStarUnits: lt.TStarUnits, Points: slices.Clone(lt.Points)}
		for f := range own.Points {
			want[ti] = append(want[ti], slices.Clone(own.Ladder(f)))
		}
	}
	var reads [][2]int // (table, floor)
	for ti, lt := range tables {
		for f := range lt.Points {
			reads = append(reads, [2]int{ti, f})
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := range 8 {
		order := rand.New(rand.NewSource(int64(g))).Perm(len(reads))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				for _, x := range order {
					ti, f := reads[x][0], reads[x][1]
					if got := tables[ti].Ladder(f); !slices.Equal(got, want[ti][f]) {
						errs <- fmt.Errorf("table %d floor %d: ladder %v, want %v", ti, f, got, want[ti][f])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	lt := tables[2]
	for f := range lt.Points {
		if n := testing.AllocsPerRun(5, func() { lt.Ladder(f) }); n != 0 {
			t.Fatalf("cached ladder of floor %d allocates %v times", f, n)
		}
	}
	lt.Points = lt.Points[:len(lt.Points)/2]
	fresh := &LookupTable{Unit: lt.Unit, Points: slices.Clone(lt.Points)}
	for f := range lt.Points {
		if got := lt.Ladder(f); !slices.Equal(got, fresh.Ladder(f)) {
			t.Fatalf("truncated table floor %d: ladder %v, want %v", f, got, fresh.Ladder(f))
		}
	}
}
