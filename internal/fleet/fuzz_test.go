package fleet

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// fuzzFleet derives one to three jobs on non-convex tables from a seed:
// random pipelines (0 reads as 1), weights, and straggler floors, some
// beyond T*.
func fuzzFleet(seed int64) []Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]Job, 1+rng.Intn(3))
	for i := range jobs {
		lt := bumpyTable(rng, int64(20+rng.Intn(100)), 1+rng.Intn(10))
		jobs[i] = Job{
			ID:        string(rune('a' + i)),
			Table:     lt,
			Pipelines: rng.Intn(4),
			Weight:    0.25 + 2*rng.Float64(),
		}
		if rng.Intn(3) == 0 {
			jobs[i].TPrime = lt.Tmin() * (1 + 0.5*rng.Float64())
		}
	}
	return jobs
}

// FuzzAllocate checks Allocate's contract on seed-derived non-convex
// fleets at a cap of capFrac (folded into [0, 1.3)) times their
// uncapped draw, 0 meaning uncapped:
//
//  1. Feasible holds exactly when every job's T* draw fits under the
//     cap, and an infeasible allocation puts every job at T* at price −1;
//  2. a feasible allocation draws at most the cap (up to summation
//     rounding);
//  3. no job plans faster than its floor;
//  4. LossBound ≤ brute-force optimum ≤ Loss, and Loss − LossBound is
//     at most one hull segment's loss;
//  5. two calls return DeepEqual allocations.
func FuzzAllocate(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, 0.0)
		f.Add(seed, 0.1*float64(seed))
		f.Add(seed, 0.97)
	}
	f.Fuzz(func(t *testing.T, seed int64, capFrac float64) {
		if math.IsNaN(capFrac) || math.IsInf(capFrac, 0) {
			t.Skip()
		}
		jobs := fuzzFleet(seed)
		capW := math.Abs(math.Mod(capFrac, 1.3)) * Allocate(jobs, 0).PowerW
		got := Allocate(jobs, capW)
		if again := Allocate(jobs, capW); !reflect.DeepEqual(got, again) {
			t.Fatalf("two calls differ:\n%+v\n%+v", got, again)
		}

		var minPower float64
		for i := range jobs {
			minPower += powerOf(&jobs[i], len(jobs[i].Table.Points)-1)
		}
		if want := capW <= 0 || minPower <= capW; got.Feasible != want {
			t.Fatalf("cap %v, minimum draw %v: feasible %v, want %v", capW, minPower, got.Feasible, want)
		}
		for i, ja := range got.Jobs {
			j := &jobs[i]
			if ja.Point < j.floorIndex() || ja.Time < ja.FloorTime {
				t.Fatalf("job %s at point %d (%vs), faster than its floor %d (%vs)",
					ja.ID, ja.Point, ja.Time, j.floorIndex(), ja.FloorTime)
			}
			if !got.Feasible && ja.Point != len(j.Table.Points)-1 {
				t.Fatalf("infeasible cap: job %s at point %d, not T*", ja.ID, ja.Point)
			}
		}
		if !got.Feasible {
			if got.Price != -1 {
				t.Fatalf("infeasible cap: price %v, want -1", got.Price)
			}
			return
		}
		if capW <= 0 {
			if got.Loss != 0 || got.LossBound != 0 || got.Price != 0 {
				t.Fatalf("uncapped: loss %v, bound %v, price %v, want all 0", got.Loss, got.LossBound, got.Price)
			}
			return
		}
		tol := func(v float64) float64 { return 1e-9 * (1 + math.Abs(v)) }
		if got.PowerW > capW+tol(capW) {
			t.Fatalf("cap %v: allocation draws %v", capW, got.PowerW)
		}
		opt, ok := bruteForce(jobs, capW)
		if !ok {
			t.Fatalf("cap %v: brute force finds no feasible allocation", capW)
		}
		_, maxSegLoss := hullWalk(jobs)
		if got.LossBound > opt+tol(opt) || opt > got.Loss+tol(opt) {
			t.Fatalf("cap %v: want bound %v ≤ optimum %v ≤ loss %v", capW, got.LossBound, opt, got.Loss)
		}
		if gap := got.Loss - got.LossBound; gap < 0 || gap > maxSegLoss+tol(maxSegLoss) {
			t.Fatalf("cap %v: certified gap %v outside [0, %v]", capW, gap, maxSegLoss)
		}
	})
}
