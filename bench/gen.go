package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"perseus/internal/client"
	"perseus/internal/frontier"
	"perseus/internal/gpu"
	"perseus/internal/grid"
	"perseus/internal/model"
	"perseus/internal/partition"
	"perseus/internal/profile"
	"perseus/internal/region"
	"perseus/internal/sched"
)

// sizes are the problem sizes of one run. A workload runs its own layer
// group at full size and the other three at base size (planFor), so the
// generator never sees a workload name.
type sizes struct {
	CharFull        bool // six 300-450 point shapes instead of three small ones
	ServeJobs       int  // characterized jobs behind the serving path
	ReadCycle       int  // reader requests per block
	WriteCycle      int  // writer iterations per block
	ColdEvery       int  // every n-th writer iteration adds a cold plan request
	CtlJobs         int  // jobs under controller management
	CtlIntervals    int  // signal intervals of the control episode
	CtlTicks        int  // ticks per episode, one interval each; at most half of CtlIntervals
	RegionIntervals int  // intervals of each region's day
}

// jobShape is one training job as a trainer would present it: the
// registration request and the profile its first iterations measured.
type jobShape struct {
	Name      string
	Req       client.JobRequest
	PBlocking float64
	Meas      []profile.Measurement
}

// shapeSpec is a row of the shape catalogue below.
type shapeSpec struct {
	model, schedule        string
	stages, chunks, mbSize int
	microbatches           int
	unit                   float64
}

// fullShapes are the characterize workload's jobs: model x stages {4,8}
// x schedule x microbatches {16,24,32}, with tau set so each frontier
// has 300-450 points (60-400 ms of characterization each on 2 cores).
var fullShapes = []shapeSpec{
	{"gpt3-1.3b", "1f1b", 4, 1, 4, 16, 7.5e-3},
	{"gpt3-1.3b", "gpipe", 4, 1, 4, 24, 11e-3},
	{"bert-1.3b", "1f1b", 8, 1, 8, 32, 4e-3},
	{"gpt3-2.7b", "interleaved-1f1b", 4, 2, 4, 16, 14e-3},
	{"t5-3b", "early-recompute-1f1b", 4, 1, 4, 16, 5.5e-3},
	{"bloom-3b", "1f1b", 8, 1, 4, 16, 9.5e-3},
}

// baseShapes are what the other workloads characterize in their timed
// phase: the same code path at a tenth of the cost.
var baseShapes = []shapeSpec{
	{"gpt3-1.3b", "1f1b", 4, 1, 4, 8, 10e-3},
	{"gpt3-1.3b", "gpipe", 4, 1, 4, 8, 10e-3},
	{"bert-1.3b", "1f1b", 8, 1, 8, 16, 8e-3},
}

// tinyShapes populate the serving and control servers during set-up:
// 70-90 point frontiers that characterize in a few milliseconds, so
// set-up can be repeated and timed.
var tinyShapes = []shapeSpec{
	{"gpt3-1.3b", "1f1b", 2, 1, 4, 4, 20e-3},
	{"gpt3-1.3b", "gpipe", 2, 1, 4, 4, 20e-3},
	{"gpt3-1.3b", "1f1b", 2, 1, 4, 6, 25e-3},
	{"bert-0.3b", "gpipe", 2, 1, 8, 6, 4e-3},
}

// readKind is one kind of reader request.
type readKind int

const (
	readSchedCond readKind = iota // GET schedule, If-None-Match current version
	readSchedFull                 // GET schedule, unconditional
	readPlanCond                  // GET /grid/plan, If-None-Match current tag
	readPlanFull                  // GET /grid/plan, cached body
)

// readOp is one reader request: its kind and the job it addresses.
type readOp struct {
	Kind readKind
	Job  int
}

// writeOp is one writer iteration: a straggler notice of Degree for Job
// followed by an unconditional schedule fetch; Cold adds one plan
// request with a target the cache has never seen.
type writeOp struct {
	Job    int
	Degree float64
	Cold   bool
}

// stragglerDegrees is the cycle the writer walks: slow-downs interleaved
// with recoveries, so T_opt moves on every notice.
var stragglerDegrees = []float64{1.10, 1, 1.30, 1.05, 1, 1.20}

type serveInput struct {
	Jobs     []jobShape
	Signal   grid.Signal
	CapFrac  float64 // fleet cap as a share of the uncapped draw
	PlanFrac float64 // cached plan target: this share of the horizon at T*
	Reads    []readOp
	Writes   []writeOp
}

type ctlInput struct {
	Jobs       []jobShape
	Signal     grid.Signal
	Ticks      int
	RevSeed    int64     // innovation stream of the revisions forecast
	Sigma      float64   // 0.2: every tick's forecast differs, so every tick re-plans cold
	TargetFrac []float64 // per job: target iterations as a share of the horizon at Tmin
}

// regionJob is region.Job in a form that serializes with its table.
type regionJob struct {
	ID         string
	Table      *frontier.LookupTable
	GPUs       int
	TargetFrac float64 // target iterations: this share of the horizon at T*
}

type regionInput struct {
	West, East grid.Signal
	Jobs       []regionJob // the 4-job case is the first four
	Migration  region.MigrationCost
}

// inputs is everything the program under test receives.
type inputs struct {
	Char   []jobShape
	Serve  serveInput
	Ctl    ctlInput
	Region regionInput
}

// hash fingerprints the inputs: same seed and sizes, same hash.
func (in *inputs) hash() (string, error) {
	buf, err := json.Marshal(in)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8]), nil
}

// generate derives every input from the seed. The seed moves what a
// real fleet varies run to run — per-stage speeds (±2 %), grid-signal
// jitter, the forecast-revision stream, job and request order — and
// leaves the amount of work alone, so runs with different seeds time
// the same population.
func generate(seed int64, sz sizes) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}

	specs := baseShapes
	if sz.CharFull {
		specs = fullShapes
	}
	for _, i := range rng.Perm(len(specs)) {
		sh, err := makeShape(rng, specs[i])
		if err != nil {
			return nil, err
		}
		in.Char = append(in.Char, sh)
	}

	tiny := func(n int) ([]jobShape, error) {
		out := make([]jobShape, n)
		for i := range out {
			sh, err := makeShape(rng, tinyShapes[i%len(tinyShapes)])
			if err != nil {
				return nil, err
			}
			out[i] = sh
		}
		return out, nil
	}

	var err error
	if in.Serve.Jobs, err = tiny(sz.ServeJobs); err != nil {
		return nil, err
	}
	in.Serve.Signal = *grid.Generate(grid.GenOptions{
		Name: "serve", Intervals: 288, IntervalS: 300, Jitter: 0.1, Seed: rng.Int63(),
	})
	in.Serve.CapFrac = 0.85
	in.Serve.PlanFrac = 0.5
	in.Serve.Reads = makeReads(rng, sz.ReadCycle, sz.ServeJobs)
	in.Serve.Writes = makeWrites(rng, sz.WriteCycle, sz.ServeJobs, sz.ColdEvery)

	if in.Ctl.Jobs, err = tiny(sz.CtlJobs); err != nil {
		return nil, err
	}
	in.Ctl.Signal = *grid.Generate(grid.GenOptions{
		Name: "control", Intervals: sz.CtlIntervals, IntervalS: 900, Jitter: 0.1, Seed: rng.Int63(),
	})
	in.Ctl.Ticks = sz.CtlTicks
	in.Ctl.RevSeed = rng.Int63()
	in.Ctl.Sigma = 0.2
	in.Ctl.TargetFrac = make([]float64, sz.CtlJobs)
	// The deadline is the signal's horizon and the ticks cover at most
	// its first half, so a target above half the horizon at Tmin cannot
	// be done while ticks remain: every tick re-plans every job.
	for i := range in.Ctl.TargetFrac {
		in.Ctl.TargetFrac[i] = 0.55 + 0.15*rng.Float64()
	}

	// The joint planner is a local search whose path — and so its cost,
	// by a factor of four — turns on small differences between traces.
	// The seed therefore moves only the overall carbon and price level
	// of the two regions (±5 %), which rescales every candidate's total
	// alike and leaves the search path, hence the work, unchanged.
	level := 1 + 0.05*(2*rng.Float64()-1)
	trace := func(name string, phase float64) grid.Signal {
		return *grid.Generate(grid.GenOptions{
			Name: name, Intervals: sz.RegionIntervals, IntervalS: 86400 / float64(sz.RegionIntervals), Phase: phase,
			CarbonBase: 400 * level, CarbonSwing: 180 * level, PriceBase: 0.11 * level, PriceSwing: 0.07 * level,
		})
	}
	in.Region.West, in.Region.East = trace("west", 0), trace("east", math.Pi)
	in.Region.Migration = region.MigrationCost{DowntimeS: 600, EnergyJ: 5e6}
	for i := 0; i < 8; i++ {
		in.Region.Jobs = append(in.Region.Jobs, regionJob{
			ID: fmt.Sprintf("rjob-%d", i), Table: convexTable(i), GPUs: 8, TargetFrac: 0.4,
		})
	}
	return in, nil
}

// makeShape builds a job's registration and profile the way a trainer's
// in-vivo profiler would report it: per virtual stage, forward and
// backward time and energy at every supported frequency. Each stage's
// speed is off the model's nominal by a seeded ±2 %.
func makeShape(rng *rand.Rand, sp shapeSpec) (jobShape, error) {
	g := gpu.A100PCIe
	m, err := model.ByName(sp.model)
	if err != nil {
		return jobShape{}, err
	}
	part, err := partition.MinImbalance(m.LayerCosts(), sp.stages*sp.chunks)
	if err != nil {
		return jobShape{}, err
	}
	w := profile.Workload{
		Model: m, GPU: g, Stages: sp.stages, Chunks: sp.chunks,
		Partition: part.Boundaries, MicrobatchSize: sp.mbSize, TensorParallel: 1,
	}
	refs, err := w.StageRefTimes()
	if err != nil {
		return jobShape{}, err
	}
	sh := jobShape{
		Name: fmt.Sprintf("%s/%s/s%dx%d/m%d", sp.model, sp.schedule, sp.stages, sp.chunks, sp.microbatches),
		Req: client.JobRequest{
			Schedule: sp.schedule, Stages: sp.stages, Microbatches: sp.microbatches,
			Chunks: sp.chunks, GPU: g.Name, Unit: sp.unit,
		},
		PBlocking: profile.MeasurePBlocking(g),
	}
	for v, ref := range refs {
		ref *= 1 + 0.02*(2*rng.Float64()-1)
		for _, f := range g.Frequencies() {
			sh.Meas = append(sh.Meas,
				profile.Measurement{Virtual: v, Kind: sched.Forward, Freq: f,
					Time: g.Time(ref, f, g.MemBoundFwd), Energy: g.Energy(ref, f, g.MemBoundFwd)},
				profile.Measurement{Virtual: v, Kind: sched.Backward, Freq: f,
					Time: g.Time(2*ref, f, g.MemBoundBwd), Energy: g.Energy(2*ref, f, g.MemBoundBwd)})
		}
	}
	return sh, nil
}

// makeReads builds the reader's op cycle: 50 % conditional schedule
// fetches, 20 % unconditional, 25 % conditional plan fetches and 5 %
// full cached plan bodies, over seeded jobs in seeded order.
func makeReads(rng *rand.Rand, n, jobs int) []readOp {
	ops := make([]readOp, n)
	for i := range ops {
		var k readKind
		switch p := i * 100 / n; {
		case p < 50:
			k = readSchedCond
		case p < 70:
			k = readSchedFull
		case p < 95:
			k = readPlanCond
		default:
			k = readPlanFull
		}
		ops[i] = readOp{Kind: k, Job: rng.Intn(jobs)}
	}
	rng.Shuffle(n, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// makeWrites builds the writer's cycle: jobs in seeded order, degrees
// walking stragglerDegrees, every coldEvery-th iteration also a cold plan.
func makeWrites(rng *rand.Rand, n, jobs, coldEvery int) []writeOp {
	perm := rng.Perm(jobs)
	ops := make([]writeOp, n)
	for i := range ops {
		ops[i] = writeOp{
			Job:    perm[i%jobs],
			Degree: stragglerDegrees[i%len(stragglerDegrees)],
			Cold:   i%coldEvery == coldEvery-1,
		}
	}
	return ops
}

// convexTable builds a synthetic convex frontier E = a + b/t (the family
// the allocator's optimality tests and the repo's region benchmarks
// use), so the region planner is timed without paying for
// characterization.
func convexTable(i int) *frontier.LookupTable {
	tmin := int64(60 + 17*(i%8))
	a, b := 2000+300*float64(i%5), 100+25*float64(i%7)
	lt := &frontier.LookupTable{Unit: 0.01, TminUnits: tmin, TStarUnits: tmin + 40}
	for u := tmin; u <= tmin+40; u++ {
		lt.Points = append(lt.Points, frontier.TablePoint{TimeUnits: u, Energy: a + b/(float64(u)*lt.Unit)})
	}
	return lt
}
