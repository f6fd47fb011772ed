// Command bench is the repository's benchmark: it drives the real chain
// — internal/client over a loopback socket, internal/server, frontier
// and maxflow, grid, forecast, region — and prints the end-to-end
// metrics BENCHMARK.json declares (or, with -trace 1, the per-layer
// ones). See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// nominalSeconds is the run length the round counts below are sized
// for on the reference 2-vCPU box; -seconds scales them linearly. Loops
// are bounded by these counts, never by the clock, so two runs with the
// same flags do the same operations.
const nominalSeconds = 22

// config is one invocation.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	OutDir   string // where a traced run writes <workload>.trace.json
}

// rounds says how a run's timed phase is laid out. The four groups take
// turns: every round runs each group's share, so every metric samples
// the whole length of the run and not one slice of it — on a shared
// host whose speed drifts by the second, that is what makes two runs
// comparable. Round zero is an extra, untimed one: it warms up and is
// checked against the references.
type rounds struct {
	N           int // measured rounds
	CharPasses  int // per round: passes over the characterize shapes
	ServeBlocks int // per round: reader/writer blocks
	CtlEpisodes int // per round: control episodes
	Region4     int // per round: cold and seeded 4-job solves, each
	Region8     int // per round: cold 8-job solves
	Setups      int // times set-up is run and timed
}

// baseSizes are what a workload runs for the groups that are not its
// own: the same code at a tenth of the cost.
var baseSizes = sizes{
	ServeJobs: 8, ReadCycle: 200, WriteCycle: 60, ColdEvery: 10,
	CtlJobs: 16, CtlIntervals: 48, CtlTicks: 24,
	RegionIntervals: 10,
}

// planFor returns the sizes and the nominal layout of a workload: its
// own group at full size, the rest at base size; the number of rounds
// set so that the timed phase takes about nominalSeconds here; the
// base-size groups repeated within a round where that is needed to
// give every metric some twenty samples a run.
func planFor(workload string) (sizes, rounds, error) {
	sz := baseSizes
	rd := rounds{CharPasses: 1, ServeBlocks: 1, CtlEpisodes: 1, Region4: 1, Region8: 1, Setups: 5}
	switch workload {
	case "characterize":
		sz.CharFull = true
		rd.N, rd.ServeBlocks, rd.CtlEpisodes, rd.Region4 = 14, 2, 2, 2
	case "serve_mixed":
		// A block is sized so reader and writer finish together (sharing
		// two cores: 0.26 ms a read on average, 1.1 ms a straggler
		// round); 8 cold plans a block keeps the run's total, 4 x 21 x
		// 8, under maxColdPlans.
		sz.ServeJobs, sz.ReadCycle, sz.WriteCycle, sz.ColdEvery = 32, 1000, 240, 30
		rd.N, rd.ServeBlocks = 20, 4
	case "control_loop":
		sz.CtlJobs, sz.CtlIntervals, sz.CtlTicks = 64, 96, 48
		rd.N, rd.CharPasses, rd.ServeBlocks, rd.Region4, rd.Region8 = 10, 2, 2, 2, 2
	case "region_plan":
		sz.RegionIntervals = 16
		rd.N, rd.Region4 = 22, 3
	default:
		return sz, rd, fmt.Errorf("unknown workload %q", workload)
	}
	return sz, rd, nil
}

// scaled multiplies the number of rounds and set-ups by f, keeping at
// least one of each.
func (r rounds) scaled(f float64) rounds {
	r.N = max(1, int(math.Round(float64(r.N)*f)))
	r.Setups = max(1, min(r.Setups, int(math.Round(float64(r.Setups)*f))))
	return r
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// envInfo records where the numbers were measured.
type envInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func readEnv() envInfo {
	info := envInfo{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				info.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				info.Commit = s.Value
			}
		}
	}
	return info
}

// groups holds the four groups' outcomes of one replay.
type groups struct {
	Char   charResult
	Serve  serveResult
	Ctl    ctlResult
	Region regionResult
	Speed  hostSpeed // calibrator passes taken between the groups
}

func (g *groups) counts() counts {
	var c counts
	c.add(g.Char.counts)
	c.add(g.Serve.counts)
	c.add(g.Ctl.counts)
	c.add(g.Region.counts)
	return c
}

// replay runs the timed phase: the warm-up round, then rd.N rounds in
// which the four groups take turns in a fixed order.
func replay(e *env, in *inputs, rd rounds, deep bool, tr *tracer) (groups, error) {
	var g groups
	speed := &g.Speed
	char := newCharGroup(e.char, in.Char)
	serve, err := newServeGroup(e, &in.Serve)
	if err != nil {
		return g, err
	}
	ctl, err := newCtlGroup(e, &in.Ctl)
	if err != nil {
		return g, err
	}
	reg := newRegionGroup(&in.Region, deep)
	// times is how often a group runs in a round: once in the warm-up.
	times := func(round, n int) int {
		if round == 0 {
			return 1
		}
		return n
	}
	for round := 0; round <= rd.N; round++ {
		warm := round == 0
		speed.sample()
		for i := 0; i < times(round, rd.CharPasses); i++ {
			if err := char.pass(tr, warm); err != nil {
				return g, err
			}
		}
		speed.sample()
		for i := 0; i < times(round, rd.ServeBlocks); i++ {
			if err := serve.block(tr, warm); err != nil {
				return g, err
			}
		}
		speed.sample()
		for i := 0; i < times(round, rd.CtlEpisodes); i++ {
			if err := ctl.episode(tr, warm, false); err != nil {
				return g, err
			}
		}
		speed.sample()
		if warm {
			err = reg.warmUp(tr)
		} else {
			err = reg.round(tr, rd.Region4, rd.Region8)
		}
		if err != nil {
			return g, err
		}
	}
	g.Char, g.Serve, g.Ctl = char.result(), serve.result(), ctl.result()
	if g.Region, err = reg.result(); err != nil {
		return g, err
	}
	return g, nil
}

// endToEndValues maps a replay onto the declared end-to-end names, with
// every timing expressed at reference host speed (calib.go): a duration
// times the factor, a rate divided by it. Set-up has calibrator passes
// of its own, taken between its repetitions. The three ratios are
// functions of the inputs and are left alone.
func endToEndValues(g *groups, setupS, setupFactor float64) map[string]float64 {
	f := g.Speed.factor()
	return map[string]float64{
		"setup_s":                      setupS * setupFactor,
		"first_schedule_ms_gm":         g.Char.FirstScheduleMsGM * f,
		"frontier_points_per_s":        g.Char.PointsPerS / f,
		"intrinsic_saving_pct":         g.Char.SavingPct,
		"read_req_per_s":               g.Serve.ReadPerS / f,
		"read_ms_p50":                  g.Serve.ReadMsP50 * f,
		"straggler_to_schedule_ms_p50": g.Serve.StragMsP50 * f,
		"plan_cold_ms_p50":             g.Serve.ColdMsP50 * f,
		"tick_to_wake_ms_mean":         g.Ctl.TickToWakeMsMean * f,
		"mpc_carbon_vs_oracle":         g.Ctl.CarbonVsOracle,
		"region_plan_j4_ms_p50":        g.Region.J4MsP50 * f,
		"region_replan_j4_ms_p50":      g.Region.J4SeededMsP50 * f,
		"region_plan_j8_ms_p50":        g.Region.J8MsP50 * f,
		"region_carbon_vs_bestfixed":   g.Region.CarbonVsFixed,
	}
}

// run executes one invocation and writes the human-readable record to
// w; the caller prints the returned report as the last line.
func run(cfg config, w io.Writer) (report, error) {
	started := time.Now()
	sz, nominal, err := planFor(cfg.Workload)
	if err != nil {
		return report{}, err
	}
	if !(cfg.Seconds > 0) {
		return report{}, fmt.Errorf("-seconds must be positive, got %v", cfg.Seconds)
	}
	scale := cfg.Seconds / nominalSeconds
	if cfg.Trace {
		// A traced run replays twice (untraced, traced) at a quarter of
		// the rounds each, then times every layer on its own.
		scale /= 4
	}
	rd := nominal.scaled(scale)
	info := readEnv()
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace)
	fmt.Fprintf(w, "env: %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n", info.CPU, info.NumCPU, info.GOMAXPROCS, info.Go, info.Commit)

	// Set-up, several times over: generate the inputs from the seed,
	// boot the servers, characterize the serving and control fleets,
	// install signals and caps, warm the plan cache. The median is
	// setup_s; the last environment is the one the timed phases use.
	var (
		in         *inputs
		e          *env
		setupsS    []float64
		setupSpeed hostSpeed
	)
	for i := 0; i < rd.Setups; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		if in, err = generate(cfg.Seed, sz); err != nil {
			return report{}, fmt.Errorf("generate: %w", err)
		}
		if e, err = setup(in); err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		setupsS = append(setupsS, time.Since(t0).Seconds())
		setupSpeed.sample()
		setupSpeed.sample()
	}
	defer e.close()
	hash, err := in.hash()
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(w, "inputs %s; set-up x%d median %.3f s; first timed operation %.3f s after start\n",
		hash, len(setupsS), median(setupsS), time.Since(started).Seconds())
	fmt.Fprintf(w, "layout: %+v\n", rd)
	runtime.GC()

	timed := time.Now()
	g, err := replay(e, in, rd, cfg.Trace, nil)
	if err != nil {
		return report{}, err
	}
	c := g.counts()
	fmt.Fprintf(w, "timed phase %.2f s\n", time.Since(timed).Seconds())
	fmt.Fprintf(w, "host speed: calibrator pass %.3f ms (median of %d; %.3f ms during set-up), nominal %g ms: end-to-end timings below are as measured, the reported ones are scaled by %.4f (set-up by %.4f)\n",
		median(g.Speed.passMs), len(g.Speed.passMs), median(setupSpeed.passMs), calibNominalMs, g.Speed.factor(), setupSpeed.factor())
	describe(w, &g)
	rep := report{Metrics: map[string]metricValue{}}
	if !cfg.Trace {
		values := endToEndValues(&g, median(setupsS), setupSpeed.factor())
		for _, m := range endToEnd {
			rep.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
		}
	} else {
		tr := newTracer()
		tg, err := replay(e, in, rd, false, tr)
		if err != nil {
			return report{}, fmt.Errorf("traced replay: %w", err)
		}
		c.add(tg.counts())
		spans := tr.finished()
		byLayer, coverage := layerSelf(spans)
		selfMs := map[string]float64{}
		for layer, ns := range byLayer {
			selfMs[layer] = float64(ns) / 1e6
		}
		path := filepath.Join(cfg.OutDir, cfg.Workload+".trace.json")
		if err := writeTrace(path, traceFile{
			Workload: cfg.Workload, InputHash: hash, Env: info,
			CoveragePct: 100 * coverage, SelfMs: selfMs, Spans: spans,
		}); err != nil {
			return report{}, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(w, "trace: %d spans -> %s; self time by layer (ms): %v; layers cover %.1f%% of operation time\n",
			len(spans), path, selfMs, 100*coverage)

		values, lc, err := layerValues(in, e, &g, w)
		if err != nil {
			return report{}, fmt.Errorf("layer timings: %w", err)
		}
		c.add(lc)
		values["trace_overhead_pct"] = traceOverheadPct(cfg.Workload, &g, &tg)
		values["trace_layer_coverage_pct"] = 100 * coverage
		for _, m := range perLayer {
			v, ok := values[m.Name]
			if !ok {
				return report{}, fmt.Errorf("per-layer metric %s not measured", m.Name)
			}
			rep.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
	}
	rep.Attempted, rep.Failed, rep.Correct = c.Attempted, c.Failed, c.Failed == 0
	for _, f := range c.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "operations attempted %d, failed %d; total %.2f s\n", c.Attempted, c.Failed, time.Since(started).Seconds())
	return rep, nil
}

// traceOverheadPct compares the workload's own headline timing between
// the traced and the untraced replay of the same run.
func traceOverheadPct(workload string, plain, traced *groups) float64 {
	var a, b float64
	switch workload {
	case "characterize":
		a, b = plain.Char.FirstScheduleMsGM, traced.Char.FirstScheduleMsGM
	case "serve_mixed":
		a, b = plain.Serve.ReadMsP50, traced.Serve.ReadMsP50
	case "control_loop":
		a, b = plain.Ctl.TickToWakeMsMean, traced.Ctl.TickToWakeMsMean
	case "region_plan":
		a, b = plain.Region.J4MsP50, traced.Region.J4MsP50
	}
	if a <= 0 {
		return 0
	}
	return 100 * (b/a - 1)
}

// describe prints what the medians hide: sample counts, and each
// latency's highest percentile that still has ten samples beyond it.
func describe(w io.Writer, g *groups) {
	line := func(name string, xs []float64) {
		fmt.Fprintf(w, "  %-34s n=%-6d p50=%.4f", name, len(xs), median(xs))
		if p, v, ok := tail(xs); ok {
			fmt.Fprintf(w, " p%g=%.4f", p, v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "characterize: %d passes, %d frontier points\n", len(g.Char.PerShapeMs[0]), g.Char.Points)
	for i, ms := range g.Char.PerShapeMs {
		line(fmt.Sprintf("first_schedule_ms[shape %d]", i), ms)
	}
	fmt.Fprintf(w, "serve: %d blocks, %d reads (%d answered 304), %d stragglers, %d cold plans\n",
		len(g.Serve.ReadMs), g.Serve.Reads, g.Serve.NotModified, g.Serve.Stragglers, g.Serve.ColdPlans)
	line("read_ms", flatten(g.Serve.ReadMs))
	line("straggler_to_schedule_ms", flatten(g.Serve.StragMs))
	line("plan_cold_ms", flatten(g.Serve.ColdMs))
	fmt.Fprintf(w, "control: %d episodes, %d ticks, %d re-plans\n", len(g.Ctl.EpisodeMeanMs), g.Ctl.Ticks, g.Ctl.Replans)
	line("tick_to_wake_ms", flatten(g.Ctl.TickMs))
	line("manage_job_ms", g.Ctl.ManageMs)
	fmt.Fprintf(w, "region: %d cells\n", g.Region.Cells)
	line("region_plan_j4_ms", g.Region.J4Ms)
	line("region_replan_j4_ms", g.Region.J4SeedMs)
	line("region_plan_j8_ms", g.Region.J8Ms)
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "characterize | serve_mixed | control_loop | region_plan")
	flag.Int64Var(&cfg.Seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.Seconds, "seconds", nominalSeconds, "run length the repetition counts are scaled to")
	flag.IntVar(&trace, "trace", 0, "1: print per-layer metrics from a traced run instead of the end-to-end ones")
	flag.StringVar(&cfg.OutDir, "out", "out", "directory for trace files (run.sh passes bench/out)")
	flag.Parse()
	cfg.Trace = trace != 0

	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(2)
	}
}
