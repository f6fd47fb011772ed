// Package profile builds per-computation time/energy profiles: for every
// (virtual stage, forward/backward) computation type, the Pareto-optimal
// set of (frequency, time, energy) choices, and the exponential fit of
// adjusted energy used by the optimizer's continuous relaxation.
//
// Two construction paths mirror the paper:
//
//   - FromWorkload derives profiles analytically from a model's layer
//     costs and the GPU model — the emulation path of paper §6.3, which
//     "profiles the time and energy consumption of each layer" and runs
//     the optimizer offline.
//   - Assemble groups raw online measurements reported by the Perseus
//     client's in-vivo profiler (paper §5) and prunes/fits them; this is
//     the path exercised by the client/server integration.
//
// Energies in profiles are adjusted energies e − P_blocking·t (paper
// Eq. 4): a computation that finishes early leaves its GPU blocking on
// communication at P_blocking, so that power is sunk regardless and must
// be discounted when choosing speeds.
package profile

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"perseus/internal/fit"
	"perseus/internal/gpu"
	"perseus/internal/model"
	"perseus/internal/partition"
	"perseus/internal/sched"
)

// TypeKey identifies a computation type: every microbatch's forward (or
// backward) on one virtual stage shares a profile, because operator
// parallelism splits work equally across microbatches (paper §4.4).
type TypeKey struct {
	Virtual int
	Kind    sched.Kind
}

// TypeProfile is the profile of one computation type.
type TypeProfile struct {
	Key TypeKey

	// Points are Pareto-optimal choices sorted by increasing time:
	// Points[0] is the fastest (maximum frequency); the last point is
	// the adjusted-energy minimum. Point.Energy is adjusted energy.
	Points []gpu.Point

	// Raw holds the unadjusted energy (joules) parallel to Points.
	Raw []float64

	// Curve is the exponential fit of adjusted energy versus time in
	// seconds over the Pareto range (paper Appendix D). Unset when
	// Constant.
	Curve fit.Exp

	// Constant marks a single-speed operation (paper §4.4): Points has
	// exactly one entry and the optimizer must never change its
	// duration.
	Constant bool
}

// MinTime returns the fastest achievable time.
func (tp *TypeProfile) MinTime() float64 { return tp.Points[0].Time }

// MaxTime returns the slowest time Perseus will plan: the adjusted-energy
// minimum. Slowing past it wastes energy (paper §3.1).
func (tp *TypeProfile) MaxTime() float64 { return tp.Points[len(tp.Points)-1].Time }

// ForDuration returns the Pareto point realizing a planned duration: the
// slowest choice whose time does not exceed sec (paper §4.3 — a planned
// computation may finish early but must never run late). If sec is below
// the fastest time, the fastest point is returned.
func (tp *TypeProfile) ForDuration(sec float64) (gpu.Point, float64) {
	// Points are time-ascending; find the last with Time <= sec.
	idx := sort.Search(len(tp.Points), func(i int) bool { return tp.Points[i].Time > sec }) - 1
	if idx < 0 {
		idx = 0
	}
	return tp.Points[idx], tp.Raw[idx]
}

// AtOrAbove returns the slowest Pareto point whose frequency is at least f
// — the choice a frequency- or power-capped GPU settles at. Below the
// slowest Pareto frequency, the slowest point is returned (running slower
// would waste both time and energy, so the profile excludes it).
func (tp *TypeProfile) AtOrAbove(f gpu.Frequency) (gpu.Point, float64) {
	// Points are time-ascending, hence frequency-descending.
	for i := len(tp.Points) - 1; i >= 0; i-- {
		if tp.Points[i].Freq >= f {
			return tp.Points[i], tp.Raw[i]
		}
	}
	return tp.Points[0], tp.Raw[0]
}

// Profile is the complete profile of one pipeline's computation types on
// one GPU model.
type Profile struct {
	GPU *gpu.Model

	// PBlocking is the measured communication-blocking power in watts.
	PBlocking float64

	// Types maps each computation type to its profile.
	Types map[TypeKey]*TypeProfile
}

// For returns the profile for an op's type.
func (p *Profile) For(op sched.Op) (*TypeProfile, error) {
	key := TypeKey{Virtual: op.Virtual, Kind: op.Kind}
	if op.Kind == sched.Recompute {
		// Recomputation replays the forward of the same virtual stage.
		key.Kind = sched.Forward
	}
	tp, ok := p.Types[key]
	if !ok {
		return nil, fmt.Errorf("profile: no profile for %v", key)
	}
	return tp, nil
}

// MeasurePBlocking measures P_blocking the way paper §5 does: one device
// blocks on P2P communication while a peer sleeps, and the blocking
// device's power is read. One measurement per GPU model suffices.
func MeasurePBlocking(g *gpu.Model) float64 {
	const window = 1.0 // seconds
	blocker := gpu.NewDevice(g, "pblock-probe")
	blocker.Block(window)
	return blocker.EnergyCounter() / window
}

// Workload describes one pipeline whose computation types are profiled.
type Workload struct {
	Model *model.Model
	GPU   *gpu.Model

	// Stages is the number of physical pipeline stages (N).
	Stages int

	// Chunks is the number of model chunks per stage for interleaved
	// schedules; 1 otherwise. Layers are partitioned over
	// Stages·Chunks virtual stages.
	Chunks int

	// Partition holds virtual-stage boundaries over the model's layers
	// (Stages·Chunks+1 entries, paper Table 7 format).
	Partition []int

	// MicrobatchSize is the per-microbatch sample count; computation
	// cost scales linearly with it.
	MicrobatchSize int

	// TensorParallel is the tensor-parallel degree: each virtual stage's
	// work is split equally across this many GPUs, dividing per-GPU cost
	// (paper §4.4: operator parallelism splits operations in equal
	// sizes, so one GPU per stage is profiled and the schedule
	// replicated).
	TensorParallel int
}

func (w Workload) virtualStages() int {
	c := w.Chunks
	if c == 0 {
		c = 1
	}
	return w.Stages * c
}

// StageRefTimes returns each virtual stage's forward reference time in
// seconds at maximum frequency.
func (w Workload) StageRefTimes() ([]float64, error) {
	v := w.virtualStages()
	if len(w.Partition) != v+1 {
		return nil, fmt.Errorf("profile: partition has %d boundaries, want %d", len(w.Partition), v+1)
	}
	costs, err := w.Model.StageCosts(w.Partition)
	if err != nil {
		return nil, err
	}
	tp := w.TensorParallel
	if tp == 0 {
		tp = 1
	}
	mb := w.MicrobatchSize
	if mb <= 0 {
		return nil, fmt.Errorf("profile: non-positive microbatch size %d", mb)
	}
	refs := make([]float64, v)
	for i, c := range costs {
		refs[i] = c * float64(mb) / float64(tp) / w.GPU.EffFLOPS
	}
	return refs, nil
}

// FromWorkload builds the full profile analytically: for each virtual
// stage, forward and backward computations are swept over every supported
// frequency, strictly-suboptimal frequencies pruned, and the exponential
// relaxation fitted.
func FromWorkload(w Workload) (*Profile, error) {
	refs, err := w.StageRefTimes()
	if err != nil {
		return nil, err
	}
	return FromStageTimes(w.GPU, refs, w.Model.BwdFactor)
}

// FromStageTimes builds a profile from per-virtual-stage forward reference
// times (seconds at maximum frequency) and a backward/forward cost ratio.
// It is the entry point for emulation workloads whose stage times come
// from layer-level profiles rather than the model zoo (paper §6.3).
func FromStageTimes(g *gpu.Model, refFwd []float64, bwdFactor float64) (*Profile, error) {
	if len(refFwd) == 0 {
		return nil, fmt.Errorf("profile: no stages")
	}
	if bwdFactor <= 0 {
		return nil, fmt.Errorf("profile: non-positive backward factor %v", bwdFactor)
	}
	pb := MeasurePBlocking(g)
	p := &Profile{GPU: g, PBlocking: pb, Types: map[TypeKey]*TypeProfile{}}
	for v, ref := range refFwd {
		if ref <= 0 {
			return nil, fmt.Errorf("profile: stage %d has non-positive reference time %v", v, ref)
		}
		fwd, err := buildType(TypeKey{v, sched.Forward}, g, ref, g.MemBoundFwd, pb)
		if err != nil {
			return nil, err
		}
		bwd, err := buildType(TypeKey{v, sched.Backward}, g, ref*bwdFactor, g.MemBoundBwd, pb)
		if err != nil {
			return nil, err
		}
		p.Types[fwd.Key] = fwd
		p.Types[bwd.Key] = bwd
	}
	return p, nil
}

func buildType(key TypeKey, g *gpu.Model, ref, memBound, pb float64) (*TypeProfile, error) {
	pts := g.ParetoPoints(ref, memBound, pb)
	tp := &TypeProfile{Key: key, Points: pts, Raw: make([]float64, len(pts))}
	for i, pt := range pts {
		tp.Raw[i] = pt.Energy + pb*pt.Time
	}
	var ts, es []float64
	for _, pt := range pts {
		ts = append(ts, pt.Time)
		es = append(es, pt.Energy)
	}
	curve, err := fit.FitExp(ts, es)
	if err != nil {
		return nil, fmt.Errorf("profile: fitting %v: %w", key, err)
	}
	tp.Curve = curve
	return tp, nil
}

// AddConstant registers a constant-time operation such as data loading
// (paper §4.4): a single (time, energy) choice the optimizer treats as a
// node with one frequency option.
func (p *Profile) AddConstant(virtual int, sec, joules float64) {
	key := TypeKey{Virtual: virtual, Kind: sched.Constant}
	adj := joules - p.PBlocking*sec
	p.Types[key] = &TypeProfile{
		Key:      key,
		Points:   []gpu.Point{{Freq: 0, Time: sec, Energy: adj}},
		Raw:      []float64{joules},
		Constant: true,
	}
}

// Measurement is one raw observation from the client's online profiler:
// a computation of the given type ran at freq for sec seconds consuming
// joules (unadjusted).
type Measurement struct {
	Virtual int
	Kind    sched.Kind
	Freq    gpu.Frequency
	Time    float64
	Energy  float64
}

// SyntheticSweep synthesizes the sweep a client-side profiler would
// report for GPT-3 1.3B split over stages by partition.MinImbalance at
// microbatch size mbSize on g: every virtual stage's forward and
// backward at every frequency, and the measured P_blocking.
func SyntheticSweep(g *gpu.Model, stages, mbSize int) ([]Measurement, float64, error) {
	m, err := model.GPT3("1.3b")
	if err != nil {
		return nil, 0, err
	}
	part, err := partition.MinImbalance(m.LayerCosts(), stages)
	if err != nil {
		return nil, 0, err
	}
	w := Workload{
		Model: m, GPU: g, Stages: stages, Chunks: 1,
		Partition: part.Boundaries, MicrobatchSize: mbSize, TensorParallel: 1,
	}
	refs, err := w.StageRefTimes()
	if err != nil {
		return nil, 0, err
	}
	var ms []Measurement
	for v, ref := range refs {
		for _, f := range g.Frequencies() {
			ms = append(ms,
				Measurement{Virtual: v, Kind: sched.Forward, Freq: f,
					Time: g.Time(ref, f, g.MemBoundFwd), Energy: g.Energy(ref, f, g.MemBoundFwd)},
				Measurement{Virtual: v, Kind: sched.Backward, Freq: f,
					Time: g.Time(2*ref, f, g.MemBoundBwd), Energy: g.Energy(2*ref, f, g.MemBoundBwd)})
		}
	}
	return ms, MeasurePBlocking(g), nil
}

// Assemble builds a profile from raw online measurements (paper §5):
// repeated observations per (type, frequency) are averaged, the sweep is
// pruned to its Pareto-optimal front on adjusted energy, and the
// exponential relaxation is fitted. pBlocking is the separately measured
// blocking power.
//
// The types are fitted in parallel, on up to GOMAXPROCS goroutines; the
// result does not depend on how many. When several types cannot be
// fitted, the error is that of the first of them to appear in ms.
func Assemble(g *gpu.Model, pBlocking float64, ms []Measurement) (*Profile, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("profile: no measurements")
	}
	sweeps := byType(ms)
	tps := make([]*TypeProfile, len(sweeps))
	errs := make([]error, len(sweeps))
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < len(sweeps); i = int(next.Add(1)) - 1 {
			tps[i], errs[i] = fitSweep(sweeps[i], pBlocking)
		}
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(sweeps)) - 1; w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	p := &Profile{GPU: g, PBlocking: pBlocking, Types: make(map[TypeKey]*TypeProfile, len(tps))}
	for i, tp := range tps {
		if errs[i] != nil {
			return nil, errs[i]
		}
		p.Types[tp.Key] = tp
	}
	return p, nil
}

// byType splits ms by computation type, in the order the types first
// appear, each type's measurements in the order they were taken. The
// sweeps are slices of one array. ms arrives as runs of one type (a PPF1
// body is one run per type), so the type index is looked up once per
// run, and each run is copied whole.
func byType(ms []Measurement) [][]Measurement {
	type run struct{ sweep, start, end int }
	var runs []run
	index := map[TypeKey]int{}
	var last TypeKey
	for i, m := range ms {
		key := TypeKey{m.Virtual, m.Kind}
		if i > 0 && key == last {
			runs[len(runs)-1].end++
			continue
		}
		last = key
		j, ok := index[key]
		if !ok {
			j = len(index)
			index[key] = j
		}
		runs = append(runs, run{j, i, i + 1})
	}
	counts := make([]int, len(index))
	for _, r := range runs {
		counts[r.sweep] += r.end - r.start
	}
	all := make([]Measurement, len(ms))
	sweeps := make([][]Measurement, len(counts))
	off := 0
	for j, n := range counts {
		sweeps[j] = all[off : off : off+n]
		off += n
	}
	for _, r := range runs {
		sweeps[r.sweep] = append(sweeps[r.sweep], ms[r.start:r.end]...)
	}
	return sweeps
}

// fitSweep builds one type's profile from its measurements.
func fitSweep(ms []Measurement, pBlocking float64) (*TypeProfile, error) {
	key := TypeKey{ms[0].Virtual, ms[0].Kind}
	// One cell per frequency, the mean of its repeats added in the order
	// they were taken. The sweep is cut into runs of one frequency, and
	// the runs are sorted by (frequency, start), so a frequency's runs
	// meet in that order. The cut is O(n). A sweep that sends each
	// frequency as one block, of one measurement or of a trainer's
	// repeats, and counts down from FMax (or up) has strictly monotone
	// run keys, which pdqsort reverses or checks in O(runs).
	type run struct{ start, end int }
	n := 1
	for i := 1; i < len(ms); i++ {
		if ms[i].Freq != ms[i-1].Freq {
			n++
		}
	}
	runs := make([]run, 0, n)
	for i := range ms {
		if i == 0 || ms[i].Freq != ms[i-1].Freq {
			runs = append(runs, run{i, i})
		}
		runs[len(runs)-1].end++
	}
	slices.SortFunc(runs, func(a, b run) int {
		return cmp.Or(cmp.Compare(ms[a.start].Freq, ms[b.start].Freq), cmp.Compare(a.start, b.start))
	})
	type cell struct {
		gpu.Point
		raw float64
	}
	cells := make([]cell, 0, len(runs))
	for i := 0; i < len(runs); {
		f := ms[runs[i].start].Freq
		var t, e float64
		k := 0
		for ; i < len(runs) && ms[runs[i].start].Freq == f; i++ {
			for _, m := range ms[runs[i].start:runs[i].end] {
				t += m.Time
				e += m.Energy
			}
			k += runs[i].end - runs[i].start
		}
		t, e = t/float64(k), e/float64(k)
		cells = append(cells, cell{gpu.Point{Freq: f, Time: t, Energy: e - pBlocking*t}, e})
	}
	// Pareto-prune on adjusted energy. Of two frequencies with the same
	// mean time the cheaper one is kept, and of two with the same time and
	// energy the faster clock, so the front does not depend on the order
	// the frequencies were measured in.
	slices.SortFunc(cells, func(a, b cell) int {
		return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.Energy, b.Energy), cmp.Compare(b.Freq, a.Freq))
	})
	tp := &TypeProfile{Key: key}
	minE := math.Inf(1)
	for _, c := range cells {
		if c.Energy < minE {
			tp.Points = append(tp.Points, c.Point)
			tp.Raw = append(tp.Raw, c.raw)
			minE = c.Energy
		}
	}
	if len(tp.Points) < 3 {
		return nil, fmt.Errorf("profile: type %v has only %d Pareto points; profile more frequencies", key, len(tp.Points))
	}
	ts := make([]float64, len(tp.Points))
	es := make([]float64, len(tp.Points))
	for i, pt := range tp.Points {
		ts[i], es[i] = pt.Time, pt.Energy
	}
	curve, err := fit.FitExp(ts, es)
	if err != nil {
		return nil, fmt.Errorf("profile: fitting %v: %w", key, err)
	}
	tp.Curve = curve
	return tp, nil
}
