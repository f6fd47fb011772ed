package profile

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"perseus/internal/fit"
	"perseus/internal/gpu"
	"perseus/internal/sched"
)

// referenceAssemble is Assemble as one sequential pass over maps of
// cells: the oracle the parallel Assemble is held to. Its prune sorts by
// time alone over map-ordered points, so it is deterministic only where
// no two frequencies of a type share a mean time, and with several
// failing types it reports whichever the map yields first; the
// differential tests stay inside that.
func referenceAssemble(g *gpu.Model, pBlocking float64, ms []Measurement) (*Profile, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("profile: no measurements")
	}
	type cell struct {
		t, e float64
		n    int
	}
	agg := map[TypeKey]map[gpu.Frequency]*cell{}
	for _, m := range ms {
		key := TypeKey{m.Virtual, m.Kind}
		if agg[key] == nil {
			agg[key] = map[gpu.Frequency]*cell{}
		}
		c := agg[key][m.Freq]
		if c == nil {
			c = &cell{}
			agg[key][m.Freq] = c
		}
		c.t += m.Time
		c.e += m.Energy
		c.n++
	}
	p := &Profile{GPU: g, PBlocking: pBlocking, Types: map[TypeKey]*TypeProfile{}}
	for key, freqs := range agg {
		var pts []gpu.Point
		raws := map[gpu.Frequency]float64{}
		for f, c := range freqs {
			t := c.t / float64(c.n)
			e := c.e / float64(c.n)
			pts = append(pts, gpu.Point{Freq: f, Time: t, Energy: e - pBlocking*t})
			raws[f] = e
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].Time < pts[j].Time })
		// Pareto-prune on adjusted energy.
		pruned := pts[:0]
		minE := math.Inf(1)
		for _, pt := range pts {
			if pt.Energy < minE {
				pruned = append(pruned, pt)
				minE = pt.Energy
			}
		}
		if len(pruned) < 3 {
			return nil, fmt.Errorf("profile: type %v has only %d Pareto points; profile more frequencies", key, len(pruned))
		}
		tp := &TypeProfile{Key: key, Points: append([]gpu.Point(nil), pruned...)}
		var ts, es []float64
		for _, pt := range tp.Points {
			tp.Raw = append(tp.Raw, raws[pt.Freq])
			ts = append(ts, pt.Time)
			es = append(es, pt.Energy)
		}
		curve, err := fit.FitExp(ts, es)
		if err != nil {
			return nil, fmt.Errorf("profile: fitting %v: %w", key, err)
		}
		tp.Curve = curve
		p.Types[key] = tp
	}
	return p, nil
}

// sweepMeasurements is what the in-vivo profiler reports for a pipeline
// of len(refs) virtual stages on g: every frequency of the ladder, each
// type measured reps times with multiplicative jitter of the given size
// (0 for the analytic values), in the profiler's order — frequency outer,
// then repetitions, then types.
func sweepMeasurements(g *gpu.Model, refs []float64, reps int, jitter float64, rng *rand.Rand) []Measurement {
	var ms []Measurement
	noise := func() float64 {
		if jitter == 0 {
			return 1
		}
		return 1 + jitter*rng.NormFloat64()
	}
	for _, f := range g.Frequencies() {
		for rep := 0; rep < reps; rep++ {
			for v, ref := range refs {
				ms = append(ms,
					Measurement{Virtual: v, Kind: sched.Forward, Freq: f,
						Time: g.Time(ref, f, g.MemBoundFwd) * noise(), Energy: g.Energy(ref, f, g.MemBoundFwd) * noise()},
					Measurement{Virtual: v, Kind: sched.Backward, Freq: f,
						Time: g.Time(2*ref, f, g.MemBoundBwd) * noise(), Energy: g.Energy(2*ref, f, g.MemBoundBwd) * noise()})
			}
		}
	}
	return ms
}

// TestAssembleMatchesReference holds Assemble to the sequential reference
// with reflect.DeepEqual — every point, raw energy and fitted curve bit
// for bit — on analytic A100 and A40 sweeps and on duplicate-heavy,
// shuffled, jittered ones, at several GOMAXPROCS. CI runs it under -race.
func TestAssembleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type input struct {
		name string
		g    *gpu.Model
		ms   []Measurement
	}
	var inputs []input
	for _, g := range []*gpu.Model{gpu.A100PCIe, gpu.A40} {
		refs := []float64{0.031, 0.042, 0.038, 0.05, 0.027, 0.033, 0.045, 0.04}
		inputs = append(inputs, input{g.Name + "/analytic", g, sweepMeasurements(g, refs, 1, 0, rng)})
		for trial := 0; trial < 6; trial++ {
			ms := sweepMeasurements(g, refs[:1+rng.Intn(len(refs))], 1+rng.Intn(5), 0.01, rng)
			// Re-measure a random share of the sweep, then shuffle it:
			// frequencies repeat a varying number of times, and types and
			// repeats interleave in any order.
			for i, n := 0, len(ms); i < n; i++ {
				if rng.Intn(3) == 0 {
					m := ms[i]
					m.Time *= 1 + 0.01*rng.NormFloat64()
					m.Energy *= 1 + 0.01*rng.NormFloat64()
					ms = append(ms, m)
				}
			}
			rng.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
			inputs = append(inputs, input{g.Name + "/duplicates", g, ms})
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, in := range inputs {
		want, err := referenceAssemble(in.g, 70, in.ms)
		if err != nil {
			t.Fatalf("%s: reference: %v", in.name, err)
		}
		for _, procs := range []int{1, 2, 5} {
			runtime.GOMAXPROCS(procs)
			got, err := Assemble(in.g, 70, in.ms)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", in.name, procs, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s at GOMAXPROCS %d: profile differs from the reference", in.name, procs)
			}
		}
	}
}

// TestAssembleRepeatedBlocks holds Assemble to the reference on sweeps
// sent as trainers send them, each frequency one block of jittered
// repeats, counting down from FMax and, reversed, up.
func TestAssembleRepeatedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	down := sweepMeasurements(gpu.A100PCIe, []float64{0.031, 0.042, 0.038}, 5, 0.01, rng)
	up := slices.Clone(down)
	slices.Reverse(up)
	for name, ms := range map[string][]Measurement{"down": down, "up": up} {
		want, err := referenceAssemble(gpu.A100PCIe, 70, ms)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		got, err := Assemble(gpu.A100PCIe, 70, ms)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: profile differs from the reference", name)
		}
	}
}

// TestAssembleEqualTimesDeterministic is a sweep in which two
// frequencies share a mean time. The front must keep the cheaper of the
// two on every call: ordered by time alone, the pair came out of a map in
// either order, and when the dearer came first both survived the prune
// and the fit rejected the tie.
func TestAssembleEqualTimesDeterministic(t *testing.T) {
	ms := []Measurement{
		{Kind: sched.Forward, Freq: 1410, Time: 1.0, Energy: 300},
		{Kind: sched.Forward, Freq: 1395, Time: 1.0, Energy: 290},
		{Kind: sched.Forward, Freq: 1200, Time: 1.1, Energy: 280},
		{Kind: sched.Forward, Freq: 1000, Time: 1.25, Energy: 270},
		{Kind: sched.Forward, Freq: 800, Time: 1.5, Energy: 265},
	}
	first, err := Assemble(gpu.A100PCIe, 75, ms)
	if err != nil {
		t.Fatal(err)
	}
	var freqs []gpu.Frequency
	for _, pt := range first.Types[TypeKey{0, sched.Forward}].Points {
		freqs = append(freqs, pt.Freq)
	}
	if want := []gpu.Frequency{1395, 1200, 1000, 800}; !reflect.DeepEqual(freqs, want) {
		t.Fatalf("front frequencies %v, want %v", freqs, want)
	}
	for i := 0; i < 200; i++ {
		p, err := Assemble(gpu.A100PCIe, 75, ms)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !reflect.DeepEqual(p, first) {
			t.Fatalf("call %d: profile differs from the first call's", i)
		}
	}
}

// TestAssembleReportsFirstFailingType gives three types too few points to
// fit; the error must name the first of them in the measurements, every
// time.
func TestAssembleReportsFirstFailingType(t *testing.T) {
	ms := sweepMeasurements(gpu.A40, []float64{0.04, 0.05}, 1, 0, nil)
	for _, v := range []int{7, 3, 5} {
		ms = append(ms, Measurement{Virtual: v, Kind: sched.Backward, Freq: 1410, Time: 1, Energy: 300})
	}
	for i := 0; i < 50; i++ {
		_, err := Assemble(gpu.A40, 60, ms)
		if err == nil || !strings.Contains(err.Error(), "{7 B}") {
			t.Fatalf("call %d: error %v, want the one for virtual stage 7's backward", i, err)
		}
	}
}
