package grid

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"perseus/internal/frontier"
)

// sharedWindowSignal builds a 96-interval signal whose caps force some
// intervals idle (below every table's slowest draw at any scale used
// here), floor others somewhere between the tables' draws, and leave the
// rest uncapped.
func sharedWindowSignal(rng *rand.Rand, tables []*frontier.LookupTable) *Signal {
	sig := Generate(GenOptions{Intervals: 96, IntervalS: 900, Jitter: 0.3, Seed: rng.Int63()})
	minW, maxW := math.Inf(1), 0.0
	for _, lt := range tables {
		minW, maxW = min(minW, lt.AvgPower(len(lt.Points)-1)), max(maxW, lt.AvgPower(0))
	}
	for k := range sig.Intervals {
		switch rng.Intn(6) {
		case 0:
			sig.Intervals[k].CapW = 0.5 * minW
		case 1:
			sig.Intervals[k].CapW = minW + (maxW-minW)*rng.Float64()
		}
	}
	return sig
}

// TestSharedWindowMatchesOptimize solves many jobs — tables convex and
// not, targets short of and past what fits, power scales, deadlines
// cutting intervals — on one prepared window per objective,
// from two goroutines whose Solvers carry each other's prices as hints,
// and holds every plan DeepEqual to the per-call Optimize of the same
// instance. The window must come out as it went in. Under -race the
// concurrent solves also check that nothing writes the window.
func TestSharedWindowMatchesOptimize(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	type job struct {
		lt   *frontier.LookupTable
		opts Options
	}
	var tables []*frontier.LookupTable
	for i := 0; i < 12; i++ {
		tmin := int64(40 + rng.Intn(60))
		if i%3 == 2 {
			tables = append(tables, bumpyTable(rng, tmin, 5+rng.Intn(6)))
			continue
		}
		tables = append(tables, convexTable(0.01, tmin, tmin+int64(3+rng.Intn(20)), 1000+4000*rng.Float64(), 50+400*rng.Float64()))
	}
	sig := sharedWindowSignal(rng, tables)
	for _, obj := range []Objective{ObjectiveCarbon, ObjectiveCost, ObjectiveEnergy} {
		t.Run(string(obj), func(t *testing.T) {
			w, err := Prepare(sig, obj)
			if err != nil {
				t.Fatal(err)
			}
			before := Window{sig: w.sig, obj: w.obj, rate: slices.Clone(w.rate), order: slices.Clone(w.order)}
			sigBefore := &Signal{Name: sig.Name, Intervals: slices.Clone(sig.Intervals)}
			var jobs []job
			for i := 0; i < 160; i++ {
				opts := Options{
					Objective:  obj,
					PowerScale: []float64{0, 1, 2, 3.5}[rng.Intn(4)],
				}
				if rng.Intn(2) == 0 {
					opts.DeadlineS = sig.Horizon() * (0.2 + 0.8*rng.Float64())
				}
				lt := tables[rng.Intn(len(tables))]
				opts.Target = (0.05 + 1.1*rng.Float64()) * sig.Horizon() / lt.TStar()
				jobs = append(jobs, job{lt, opts})
			}
			plans := make([]*Plan, len(jobs))
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var s Solver
					for i := g; i < len(jobs); i += 2 {
						p, err := s.OptimizeWindow(jobs[i].lt, w, jobs[i].opts)
						if err != nil {
							t.Error(err)
							return
						}
						plans[i] = p
					}
				}()
			}
			wg.Wait()
			feasible := 0
			for i, jb := range jobs {
				want, err := Optimize(jb.lt, sig, jb.opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(plans[i], want) {
					t.Fatalf("job %d %+v: shared window\n%+v\nper call\n%+v", i, jb.opts, plans[i], want)
				}
				if want.Feasible {
					feasible++
				}
			}
			if feasible == 0 || feasible == len(jobs) {
				t.Fatalf("%d of %d plans feasible: the corpus must hold both kinds", feasible, len(jobs))
			}
			if !reflect.DeepEqual(*w, before) || !reflect.DeepEqual(sig, sigBefore) {
				t.Fatal("solving on the window changed it")
			}
		})
	}
}

// TestWindowObjectiveMustMatch: a window answers only the objective it
// was prepared for ("" reads as carbon), and Prepare refuses what
// Optimize refuses.
func TestWindowObjectiveMustMatch(t *testing.T) {
	lt := convexTable(0.01, 60, 70, 3000, 200)
	sig := Diurnal24h()
	w, err := Prepare(sig, "")
	if err != nil {
		t.Fatal(err)
	}
	var s Solver
	for _, obj := range []Objective{"", ObjectiveCarbon} {
		if _, err := s.OptimizeWindow(lt, w, Options{Target: 100, Objective: obj}); err != nil {
			t.Fatalf("objective %q on a carbon window: %v", obj, err)
		}
	}
	if _, err := s.OptimizeWindow(lt, w, Options{Target: 100, Objective: ObjectiveCost}); err == nil {
		t.Fatal("a cost plan on a carbon window was not refused")
	}
	for i, bad := range []struct {
		sig *Signal
		obj Objective
	}{{nil, ""}, {&Signal{}, ""}, {sig, "vibes"}} {
		if _, err := Prepare(bad.sig, bad.obj); err == nil {
			t.Errorf("case %d: Prepare accepted it", i)
		}
	}
	if _, err := s.OptimizeWindow(lt, nil, Options{Target: 100}); err == nil {
		t.Fatal("a nil window was not refused")
	}
}
