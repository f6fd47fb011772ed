package frontier

import (
	"math/rand"
	"testing"
	"testing/quick"

	"perseus/internal/dag"
	"perseus/internal/gpu"
	"perseus/internal/profile"
	"perseus/internal/sched"
)

// randomWorkload builds a random small pipeline and its profile.
func randomWorkload(seed int64) (*dag.Graph, *profile.Profile, Options, error) {
	rng := rand.New(rand.NewSource(seed))
	g := gpu.A100PCIe
	if rng.Intn(2) == 0 {
		g = gpu.A40
	}
	stages := 2 + rng.Intn(2)
	micro := 2 + rng.Intn(4)
	refs := make([]float64, stages)
	for i := range refs {
		refs[i] = 0.05 + rng.Float64()*0.15
	}
	prof, err := profile.FromStageTimes(g, refs, 1.5+rng.Float64())
	if err != nil {
		return nil, nil, Options{}, err
	}
	s, err := sched.OneFOneB(stages, micro)
	if err != nil {
		return nil, nil, Options{}, err
	}
	opts := Options{Unit: 4e-3}
	graph, err := dag.Build(s, func(op sched.Op) int64 { return 1 })
	return graph, prof, opts, err
}

// TestPropertyFrontierInvariants checks, for random workloads, the three
// structural invariants of the optimizer's walk: consecutive time units
// from Tmin to T*, non-increasing relaxed energy with time, and plan
// feasibility at every sampled point; and the Pareto invariants of the
// frontier Characterize keeps from it (see paretoErr).
func TestPropertyFrontierInvariants(t *testing.T) {
	f := func(seed int64) bool {
		graph, prof, opts, err := randomWorkload(seed)
		if err != nil {
			return false
		}
		fr, err := Characterize(graph, prof, opts)
		if err != nil || paretoErr(fr) != nil {
			return false
		}
		if fr, err = walk(graph, prof, opts); err != nil {
			return false
		}
		pts := fr.Points()
		if pts[0].TimeUnits != fr.tminUnits || pts[len(pts)-1].TimeUnits != fr.tstarUnits {
			return false
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].TimeUnits != pts[i-1].TimeUnits+1 {
				return false
			}
			if pts[i].EnergyRelaxed > pts[i-1].EnergyRelaxed+1e-9 {
				return false
			}
		}
		// Sampled plans must realize their planned makespan: set realized
		// durations and check the realized longest path does not exceed
		// the planned time (plus the half-unit rounding of minU).
		for _, idx := range []int{0, len(pts) / 2, len(pts) - 1} {
			pt := pts[idx]
			durs := pt.Durations()
			for i := range graph.Ops {
				graph.Dur[i] = durs[i]
			}
			if graph.Makespan() != pt.TimeUnits {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLookupTotal checks Lookup over random query times: results
// are clamped to [Tmin, T*], never exceed min(T*, T'), and are monotone.
func TestPropertyLookupTotal(t *testing.T) {
	graph, prof, opts, err := randomWorkload(7)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := Characterize(graph, prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint16) bool {
		tPrime := fr.Tmin() * (0.5 + float64(raw)/20000) // 0.5x .. ~3.8x
		pt := fr.Lookup(tPrime)
		if pt.Time < fr.Tmin()-1e-9 || pt.Time > fr.TStar()+1e-9 {
			return false
		}
		if tPrime >= fr.Tmin() && pt.Time > tPrime+1e-9 && pt.TimeUnits != fr.tminUnits {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
