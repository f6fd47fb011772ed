package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"time"

	"perseus/internal/dag"
	"perseus/internal/fleet"
	"perseus/internal/forecast"
	"perseus/internal/frontier"
	"perseus/internal/grid"
	"perseus/internal/maxflow"
	"perseus/internal/obs"
	"perseus/internal/plan"
	"perseus/internal/profile"
	"perseus/internal/region"
	"perseus/internal/sched"
	"perseus/internal/server"
)

// perLayer are the single-layer figures a traced run prints: each one
// times calls into one layer's public functions from this package, on
// the run's own inputs. They carry no bound; README.md says which
// end-to-end metric each is expected to move, on which workload.
var perLayer = []metricDef{
	{Name: "profile.assemble_ms", Unit: "ms", Better: "lower"},
	{Name: "dag.build_ms", Unit: "ms", Better: "lower"},
	{Name: "dag.makespan_us", Unit: "us", Better: "lower"},
	{Name: "maxflow.mincut_ek_ms", Unit: "ms", Better: "lower"},
	{Name: "maxflow.mincut_dinic_ms", Unit: "ms", Better: "lower"},
	{Name: "maxflow.mincut_allocs", Unit: "count", Better: "lower"},
	{Name: "frontier.characterize_ms", Unit: "ms", Better: "lower"},
	{Name: "frontier.points", Unit: "count", Better: "higher"},
	{Name: "frontier.us_per_point", Unit: "us", Better: "lower"},
	{Name: "frontier.characterize_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "frontier.table_ms", Unit: "ms", Better: "lower"},
	{Name: "frontier.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "frontier.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "frontier.point_plan_us", Unit: "us", Better: "lower"},
	{Name: "grid.optimize_96_ms", Unit: "ms", Better: "lower"},
	{Name: "grid.optimize_288_ms", Unit: "ms", Better: "lower"},
	{Name: "grid.optimize_alloc_kb", Unit: "kB", Better: "lower"},
	{Name: "grid.evaluate_ms", Unit: "ms", Better: "lower"},
	{Name: "grid.accrue_ns", Unit: "ns", Better: "lower"},
	{Name: "forecast.issue_ms", Unit: "ms", Better: "lower"},
	{Name: "forecast.replan_episode_ms", Unit: "ms", Better: "lower"},
	{Name: "forecast.replan_regions_episode_ms", Unit: "ms", Better: "lower"},
	{Name: "region.optimize_j4_w1_ms", Unit: "ms", Better: "lower"},
	{Name: "region.parallel_speedup_j4", Unit: "ratio", Better: "higher"},
	{Name: "region.optimize_j4_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "region.optimize_j8_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "region.bestfixed_j4_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.allocate_32_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.span_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.histogram_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.ledger_settle_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.prometheus_write_ms", Unit: "ms", Better: "lower"},
	{Name: "server.schedule_us", Unit: "us", Better: "lower"},
	{Name: "server.grid_plan_cached_ns", Unit: "ns", Better: "lower"},
	{Name: "server.grid_plan_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "server.set_straggler_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_schedule_304_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_schedule_200_us", Unit: "us", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.upload_to_characterized_ms", Unit: "ms", Better: "lower"},
	{Name: "server.manage_job_ms", Unit: "ms", Better: "lower"},
	{Name: "server.tick_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "server.tick_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "server.replans_per_tick", Unit: "count", Better: "lower"},
	{Name: "client.fetch_schedule_304_us", Unit: "us", Better: "lower"},
	{Name: "client.fetch_schedule_200_us", Unit: "us", Better: "lower"},
	{Name: "client.fetch_plan_304_us", Unit: "us", Better: "lower"},
	{Name: "client.fetch_plan_200_ms", Unit: "ms", Better: "lower"},
	{Name: "client.bytes_per_schedule", Unit: "count", Better: "lower"},
	{Name: "client.bytes_per_plan", Unit: "count", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace_layer_coverage_pct", Unit: "%", Better: "higher"},
}

// sink keeps results alive so the compiler cannot drop a timed call.
var sink any

// each times n calls of fn after one untimed call and returns the
// median duration in nanoseconds.
func each(n int, fn func()) float64 {
	fn()
	ns := make([]float64, n)
	for i := range ns {
		t0 := time.Now()
		fn()
		ns[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(ns)
}

// batched times calls too short to time singly: the median over 20
// batches of the mean nanoseconds per call.
func batched(perBatch int, fn func(i int)) float64 {
	fn(0)
	ns := make([]float64, 20)
	for b := range ns {
		t0 := time.Now()
		for i := 0; i < perBatch; i++ {
			fn(i)
		}
		ns[b] = float64(time.Since(t0).Nanoseconds()) / float64(perBatch)
	}
	return median(ns)
}

// allocated runs fn once and returns the bytes and objects it
// allocated. Nothing else in the process is working when the layer
// suite runs, so the process-wide counters are fn's.
func allocated(fn func()) (bytes, objects float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc - a.TotalAlloc), float64(b.Mallocs - a.Mallocs)
}

// criticalNetwork builds the flow network the optimizer's min-cut step
// solves, from the outside: the graph's critical nodes (durations two
// units a forward, four a backward, so that whole pipelines' worth of
// paths are tight), each split in two with a seeded capacity on the
// joining edge, tight dependencies uncuttable.
func criticalNetwork(g *dag.Graph, rng *rand.Rand) (n int, edges []maxflow.BoundedEdge, s, t int) {
	for v, op := range g.Ops {
		g.Dur[v] = 2
		if op.Kind == sched.Backward {
			g.Dur[v] = 4
		}
	}
	est := g.EarliestStarts()
	lst := g.LatestStarts(est[g.Sink])
	id := make([]int, len(g.Dur))
	for v := range id {
		id[v] = -1
		if est[v] == lst[v] || v == g.Source || v == g.Sink {
			id[v] = n
			n += 2
		}
	}
	inf := math.Inf(1)
	for v := range id {
		if id[v] < 0 {
			continue
		}
		upper := inf
		if v < len(g.Ops) {
			upper = 1 + rng.Float64()
		}
		edges = append(edges, maxflow.BoundedEdge{From: id[v], To: id[v] + 1, Upper: upper})
		for _, w := range g.Succ[v] {
			if id[w] >= 0 && est[w] == est[v]+g.Dur[v] {
				edges = append(edges, maxflow.BoundedEdge{From: id[v] + 1, To: id[w], Upper: inf})
			}
		}
	}
	return n, edges, id[g.Source], id[g.Sink] + 1
}

// layerValues times every layer on its own, on the run's inputs and the
// environment the replays left behind. The order follows the chain.
func layerValues(in *inputs, e *env, g *groups, w io.Writer) (map[string]float64, counts, error) {
	v := map[string]float64{}
	var c counts
	ms := func(ns float64) float64 { return ns / 1e6 }
	us := func(ns float64) float64 { return ns / 1e3 }
	rng := rand.New(rand.NewSource(in.Ctl.RevSeed))

	// profile, dag, maxflow, frontier: the run's first characterize shape.
	sh := in.Char[0]
	sc, graph, prof, gm, err := shapeModel(sh)
	if err != nil {
		return nil, c, err
	}
	v["profile.assemble_ms"] = ms(each(20, func() { sink, _ = profile.Assemble(gm, sh.PBlocking, sh.Meas) }))
	v["dag.build_ms"] = ms(each(20, func() { sink, _ = dag.Build(sc, func(sched.Op) int64 { return 1 }) }))
	v["dag.makespan_us"] = us(batched(100, func(int) { sink = graph.Makespan() }))

	n, edges, src, dst := criticalNetwork(graph.Clone(), rng)
	var cutEK, cutDinic *maxflow.CutResult
	v["maxflow.mincut_ek_ms"] = ms(each(30, func() { cutEK, err = maxflow.MinCutWithBoundsUsing(maxflow.EdmondsKarp, n, edges, src, dst) }))
	if err != nil {
		return nil, c, fmt.Errorf("min cut (Edmonds-Karp): %w", err)
	}
	v["maxflow.mincut_dinic_ms"] = ms(each(30, func() { cutDinic, err = maxflow.MinCutWithBoundsUsing(maxflow.Dinic, n, edges, src, dst) }))
	if err != nil {
		return nil, c, fmt.Errorf("min cut (Dinic): %w", err)
	}
	c.Attempted++
	if cutEK.Value != cutDinic.Value {
		c.fail("min cut of the %d-node critical network: Edmonds-Karp %v, Dinic %v", n, cutEK.Value, cutDinic.Value)
	}
	_, v["maxflow.mincut_allocs"] = allocated(func() { sink, _ = maxflow.MinCutWithBoundsUsing(maxflow.EdmondsKarp, n, edges, src, dst) })

	var front *frontier.Frontier
	opts := frontier.Options{Unit: sh.Req.Unit}
	v["frontier.characterize_ms"] = ms(each(5, func() { front, err = frontier.Characterize(graph, prof, opts) }))
	if err != nil {
		return nil, c, fmt.Errorf("characterize: %w", err)
	}
	points := float64(len(front.Points()))
	v["frontier.points"] = points
	v["frontier.us_per_point"] = v["frontier.characterize_ms"] * 1e3 / points
	bytes, _ := allocated(func() { sink, _ = frontier.Characterize(graph, prof, opts) })
	v["frontier.characterize_alloc_mb"] = bytes / (1 << 20)
	v["frontier.table_ms"] = ms(each(5, func() { sink = front.Table() }))
	span := front.TStar() - front.Tmin()
	v["frontier.lookup_ns"] = batched(1000, func(i int) { sink = front.Lookup(front.Tmin() + span*float64(i%50)/50) })
	v["frontier.point_plan_us"] = us(each(100, func() { sink = front.Lookup(front.Tmin() + span/3).Plan() }))

	// 32 tables: the serving fleet's, repeated if the run has fewer.
	fj := make([]fleet.Job, 32)
	merge := make([]frontier.MergeInput, 32)
	for i := range fj {
		lt := e.serveJobs[i%len(e.serveJobs)].Table
		fj[i] = fleet.Job{ID: fmt.Sprint("f", i), Table: lt}
		merge[i] = frontier.MergeInput{Table: lt, PowerScale: 1, LossWeight: 1}
	}
	v["frontier.merge_ms"] = ms(each(30, func() { sink, _ = frontier.Merge(merge) }))
	capW := 0.85 * fleet.Allocate(fj, 0).PowerW
	v["fleet.allocate_32_ms"] = ms(each(50, func() { sink = fleet.Allocate(fj, capW) }))

	// grid, forecast: one serving table over a 96- and a 288-interval day.
	lt := e.serveJobs[0].Table
	sig96 := grid.Generate(grid.GenOptions{Intervals: 96, IntervalS: 900, Jitter: 0.1, Seed: rng.Int63()})
	sig288 := &in.Serve.Signal
	gopt := func(sig *grid.Signal) grid.Options { return grid.Options{Target: 0.5 * sig.Horizon() / lt.TStar()} }
	v["grid.optimize_96_ms"] = ms(each(50, func() { sink, _ = grid.Optimize(lt, sig96, gopt(sig96)) }))
	v["grid.optimize_288_ms"] = ms(each(50, func() { sink, _ = grid.Optimize(lt, sig288, gopt(sig288)) }))
	bytes, _ = allocated(func() { sink, _ = grid.Optimize(lt, sig288, gopt(sig288)) })
	v["grid.optimize_alloc_kb"] = bytes / 1024
	var solver grid.Solver
	v["grid.evaluate_ms"] = ms(each(50, func() { sink, _ = solver.Evaluate(lt, sig288, gopt(sig288)) }))
	v["grid.accrue_ns"] = batched(1000, func(i int) {
		e, _, _ := grid.Accrue(sig288, float64(i), float64(i)+4000, 300)
		sink = e
	})
	prov := &forecast.Revisions{Truth: sig96, Seed: in.Ctl.RevSeed, Sigma: in.Ctl.Sigma}
	v["forecast.issue_ms"] = ms(each(50, func() { sink, _ = prov.At(900 * 7) }))
	mpc := forecast.Options{Target: 0.6 * sig96.Horizon() / lt.Tmin(), DeadlineS: sig96.Horizon()}
	v["forecast.replan_episode_ms"] = ms(each(5, func() { sink, err = forecast.Replan(lt, prov, sig96, mpc) }))
	if err != nil {
		return nil, c, fmt.Errorf("forecast.Replan: %w", err)
	}

	// region: the run's own 4- and 8-job cases.
	regions4, jobs4, opts4 := regionCase(&in.Region, 4)
	regions8, jobs8, opts8 := regionCase(&in.Region, 8)
	fregs := make([]forecast.ForecastRegion, len(regions4))
	for i, r := range regions4 {
		fregs[i] = forecast.ForecastRegion{Region: r, Provider: &forecast.Revisions{Truth: r.Signal, Seed: in.Ctl.RevSeed + int64(i), Sigma: in.Ctl.Sigma}}
	}
	v["forecast.replan_regions_episode_ms"] = ms(each(2, func() {
		sink, err = forecast.ReplanRegions(fregs, jobs4[:2], forecast.RegionOptions{Migration: in.Region.Migration})
	}))
	if err != nil {
		return nil, c, fmt.Errorf("forecast.ReplanRegions: %w", err)
	}
	w1 := opts4
	w1.Workers = 1
	v["region.optimize_j4_w1_ms"] = ms(each(5, func() { sink, _ = region.Optimize(regions4, jobs4, w1) }))
	wN := ms(each(5, func() { sink, _ = region.Optimize(regions4, jobs4, opts4) }))
	v["region.parallel_speedup_j4"] = v["region.optimize_j4_w1_ms"] / wN
	bytes, _ = allocated(func() { sink, _ = region.Optimize(regions4, jobs4, opts4) })
	v["region.optimize_j4_alloc_mb"] = bytes / (1 << 20)
	bytes, _ = allocated(func() { sink, _ = region.Optimize(regions8, jobs8, opts8) })
	v["region.optimize_j8_alloc_mb"] = bytes / (1 << 20)
	v["region.bestfixed_j4_ms"] = ms(each(5, func() { sink, _ = region.BestFixed(regions4, jobs4, opts4) }))

	// obs: the primitives every request and every tick pays for.
	tracer := obs.NewTracer(0)
	v["obs.span_ns"] = batched(1000, func(int) {
		_, sp := tracer.StartSpan(context.Background(), "bench")
		sp.End()
	})
	reg := obs.NewRegistry()
	hist := reg.Histogram("bench_seconds", "layer suite", []float64{1e-4, 1e-3, 1e-2, 0.1, 1})
	v["obs.histogram_observe_ns"] = batched(1000, func(i int) { hist.Observe(float64(i%100) * 1e-4) })
	led := obs.NewLedger(0)
	entry := obs.LedgerEntry{StartUnixS: 1.7e9, EndUnixS: 1.7e9 + 600, Kind: obs.LedgerKindSpan,
		BloatSpan: plan.DecomposeSpan(plan.SpanInputs{
			Realized:   plan.Account{EnergyJ: 3.6e6, CarbonG: 500, CostUSD: 0.2},
			Iterations: 120, FloorJ: 3.0e6, TminJ: 3.3e6, MeanGPerJ: 200 / 3.6e6, PredC: 480, PredRealC: 495,
		})}
	v["obs.ledger_settle_ns"] = batched(1000, func(i int) { led.Settle("job", entry) })
	v["obs.prometheus_write_ms"] = ms(each(20, func() { _ = e.serve.srv.Metrics().WritePrometheus(io.Discard) }))

	// server: the serving server's public methods and its handler, no socket.
	srv := e.serve.srv
	id, target := e.serveJobs[0].ID, e.planTargets[0]
	v["server.schedule_us"] = us(batched(200, func(int) { sink, _ = srv.Schedule(id) }))
	v["server.grid_plan_cached_ns"] = batched(1000, func(int) { sink, _ = srv.GridPlan(id, target, 0, "") })
	v["server.grid_plan_cold_ms"] = ms(each(30, func() {
		e.coldPlans++
		sink, err = srv.GridPlan(id, target*(1-float64(e.coldPlans)*coldTargetStep), 0, "")
	}))
	if err != nil {
		return nil, c, fmt.Errorf("cold plan: %w", err)
	}
	k := 0
	v["server.set_straggler_ms"] = ms(each(60, func() {
		k++
		err = srv.SetStraggler(e.serveJobs[k%len(e.serveJobs)].ID, server.StragglerNotice{ID: "gpu-0", Degree: stragglerDegrees[k%len(stragglerDegrees)]})
	}))
	if err != nil {
		return nil, c, fmt.Errorf("straggler: %w", err)
	}
	cur, err := srv.Schedule(id)
	if err != nil {
		return nil, c, err
	}
	handler := srv.Handler()
	serveOnce := func(inm string, want int) func() {
		return func() {
			req := httptest.NewRequest(http.MethodGet, "/jobs/"+id+"/schedule", nil)
			if inm != "" {
				req.Header.Set("If-None-Match", inm)
			}
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if rec.Code != want {
				err = fmt.Errorf("handler answered %d, want %d", rec.Code, want)
			}
		}
	}
	v["server.handler_schedule_304_us"] = us(each(300, serveOnce(fmt.Sprintf("%q", fmt.Sprint("v", cur.Version)), http.StatusNotModified)))
	v["server.handler_schedule_200_us"] = us(each(300, serveOnce("", http.StatusOK)))
	if err != nil {
		return nil, c, err
	}
	stats := srv.CacheStats()
	v["server.cache_hit_ratio"] = float64(stats.Hits) / float64(stats.Hits+stats.Misses)

	charSrv := e.char.srv
	v["server.upload_to_characterized_ms"] = ms(each(5, func() {
		var jid string
		if jid, err = charSrv.Register(server.JobRequest{
			Schedule: sh.Req.Schedule, Stages: sh.Req.Stages, Microbatches: sh.Req.Microbatches,
			Chunks: sh.Req.Chunks, GPU: sh.Req.GPU, Unit: sh.Req.Unit,
		}); err != nil {
			return
		}
		up := server.ProfileUpload{PBlocking: sh.PBlocking}
		for _, m := range sh.Meas {
			kind := "forward"
			if m.Kind == sched.Backward {
				kind = "backward"
			}
			up.Measurements = append(up.Measurements, server.MeasurementJSON{Virtual: m.Virtual, Kind: kind, Freq: int(m.Freq), Time: m.Time, Energy: m.Energy})
		}
		if err = charSrv.UploadProfile(jid, up); err != nil {
			return
		}
		if err = charSrv.WaitCharacterized(jid); err != nil {
			return
		}
		err = charSrv.RemoveJob(jid)
	}))
	if err != nil {
		return nil, c, fmt.Errorf("upload to characterized: %w", err)
	}

	// The control group's own timings, plus one episode with the heap
	// counters read around every tick.
	v["server.manage_job_ms"] = median(g.Ctl.ManageMs)
	v["server.tick_ms_mean"] = mean(g.Ctl.TickSrvMs)
	v["server.replans_per_tick"] = float64(g.Ctl.Replans) / float64(g.Ctl.Ticks)
	heapGroup, err := newCtlGroup(e, &in.Ctl)
	if err != nil {
		return nil, c, err
	}
	if err := heapGroup.episode(nil, false, true); err != nil {
		return nil, c, fmt.Errorf("heap episode: %w", err)
	}
	heap := heapGroup.result()
	c.add(heap.counts)
	v["server.tick_alloc_mb"] = heap.TickAllocMB

	// client: the same requests over the socket; the difference to the
	// handler figures above is socket + net/http + JSON.
	cl := e.serve.conn()
	v["client.fetch_schedule_304_us"] = us(each(300, func() { _, _, err = cl.FetchScheduleIfChanged(id, cur.Version, 0) }))
	v["client.fetch_schedule_200_us"] = us(each(300, func() { sink, err = cl.FetchSchedule(id) }))
	_, tag, _, err := cl.FetchGridPlanIfChanged(id, target, 0, "", "", 0)
	if err != nil {
		return nil, c, err
	}
	v["client.fetch_plan_304_us"] = us(each(300, func() { _, _, _, err = cl.FetchGridPlanIfChanged(id, target, 0, "", tag, 0) }))
	v["client.fetch_plan_200_ms"] = ms(each(50, func() { sink, err = cl.FetchGridPlan(id, target, 0, "") }))
	if err != nil {
		return nil, c, err
	}
	for name, path := range map[string]string{
		"client.bytes_per_schedule": "/jobs/" + id + "/schedule",
		"client.bytes_per_plan":     "/grid/plan/" + id + "?iterations=" + url.QueryEscape(strconv.FormatFloat(target, 'g', -1, 64)),
	} {
		resp, err := cl.HTTP.Get(cl.BaseURL + path)
		if err != nil {
			return nil, c, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil, c, fmt.Errorf("GET %s: %s, %v", path, resp.Status, err)
		}
		v[name] = float64(len(body))
	}
	fmt.Fprintf(w, "layer suite: %d figures on shape %s (%d points), %d-node critical network\n", len(v), sh.Name, len(front.Points()), n)
	return v, c, nil
}
