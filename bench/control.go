package main

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"perseus/internal/client"
	"perseus/internal/forecast"
	"perseus/internal/server"
)

// pollWait is the long-poll a trainer parks with; wakeTimeout bounds how
// long the benchmark waits for a poller to report a tick's new version.
const (
	pollWait    = 30 * time.Second
	wakeTimeout = 20 * time.Second
)

// ctlResult is the control group's outcome.
type ctlResult struct {
	TickToWakeMsMean float64 // mean over an episode's ticks, median over episodes
	CarbonVsOracle   float64
	EpisodeMeanMs    []float64
	TickMs           [][]float64 // per measured episode, per tick
	ManageMs         []float64   // per ManageJob call, measured episodes
	TickSrvMs        []float64   // TickController alone, measured ticks
	TickAllocMB      float64     // mean heap allocated per measured tick (allocs only)
	Ticks            int
	Replans          int // planner invocations the measured ticks caused
	counts
}

// poller is a trainer parked on GET /jobs/{id}/schedule?wait=.
type poller struct {
	id    string
	wakes chan int // versions seen, one per wake
	stop  atomic.Bool
	done  chan error
}

func startPoller(cl *client.ServerClient, id string, have int, ticks int) *poller {
	// Sized to the episode's wakes (one per tick, one to stop) so the
	// poller never blocks on the benchmark.
	p := &poller{id: id, wakes: make(chan int, ticks+2), done: make(chan error, 1)}
	go func() {
		for !p.stop.Load() {
			s, changed, err := cl.FetchScheduleIfChanged(id, have, pollWait)
			if err != nil {
				p.done <- err
				return
			}
			if changed {
				have = s.Version
				p.wakes <- have
			}
		}
		p.done <- nil
	}()
	return p
}

// halt ends the poller: with stop set, one more version bump (a
// recovery notice, which changes nothing else) releases its long-poll.
func (p *poller) halt(cl *client.ServerClient) error {
	p.stop.Store(true)
	if err := cl.SetStraggler(p.id, "gpu-0", 0, 1); err != nil {
		return err
	}
	return <-p.done
}

// ctlGroup runs control episodes, one per call: install the signal and
// the revising forecast, put every job under controller management,
// then advance the fake clock one interval at a time and tick the
// controller in-process, timing each tick until both parked pollers
// hold the tick's schedule version.
type ctlGroup struct {
	e        *env
	in       *ctlInput
	cl       *client.ServerClient
	pollCl   [2]*client.ServerClient
	interval time.Duration
	deadline float64
	targets  []float64
	oracle   float64 // the fleet's carbon had every job planned once on the truth
	ratios   []float64
	allocB   uint64
	res      ctlResult
}

func newCtlGroup(e *env, in *ctlInput) (*ctlGroup, error) {
	sig := &in.Signal
	if 2*in.Ticks > len(sig.Intervals) {
		return nil, fmt.Errorf("%d ticks over a %d-interval signal: jobs could finish before the last tick", in.Ticks, len(sig.Intervals))
	}
	g := &ctlGroup{
		e: e, in: in, cl: e.ctl.conn(), pollCl: [2]*client.ServerClient{e.ctl.conn(), e.ctl.conn()},
		interval: time.Duration(sig.Intervals[0].EndS-sig.Intervals[0].StartS) * time.Second,
		deadline: sig.Horizon(),
	}
	for k, j := range e.ctlJobs {
		target := math.Floor(in.TargetFrac[k] * g.deadline / j.Table.Tmin())
		out, err := forecast.Oracle(j.Table, sig, forecast.Options{Target: target, DeadlineS: g.deadline})
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", j.ID, err)
		}
		g.targets = append(g.targets, target)
		g.oracle += out.CarbonG
	}
	return g, nil
}

// episode runs one episode. allocs additionally reads the heap counters
// around every tick, which stops the world twice a tick: the layer
// suite sets it on an episode of its own, never on one whose timings
// are reported.
func (g *ctlGroup) episode(tr *tracer, warm, allocs bool) error {
	e, in, cl, res := g.e, g.in, g.cl, &g.res
	srv := e.ctl.srv
	if _, err := cl.UploadGridSignal(in.Signal, ""); err != nil {
		return fmt.Errorf("install signal: %w", err)
	}
	if _, err := cl.InstallRevisionsForecast(in.RevSeed, in.Sigma, 0, 0, 0); err != nil {
		return fmt.Errorf("install forecast: %w", err)
	}
	for k, j := range e.ctlJobs {
		root := tr.op("manage_job")
		t0 := time.Now()
		sp := root.child("client", "ManageJob")
		first, err := cl.ManageJob(j.ID, g.targets[k], g.deadline, "", 0)
		sp.end()
		ms := msSince(t0)
		root.end()
		if err != nil {
			return fmt.Errorf("manage %s: %w", j.ID, err)
		}
		res.Attempted++
		if !first.Feasible {
			res.fail("%s: first plan infeasible", j.ID)
		}
		if !warm {
			res.ManageMs = append(res.ManageMs, ms)
		}
	}
	prev := srv.ControllerStatus()
	watched := [2]string{e.ctlJobs[0].ID, e.ctlJobs[len(e.ctlJobs)-1].ID}
	var pollers [2]*poller
	for i, id := range watched {
		pollers[i] = startPoller(g.pollCl[i], id, versionOf(prev, id), in.Ticks)
	}

	var mem runtime.MemStats
	tickMs := make([]float64, 0, in.Ticks)
	for tick := 1; tick <= in.Ticks; tick++ {
		if err := waitParked(srv, len(pollers)); err != nil {
			return err
		}
		for _, p := range pollers {
			if len(p.wakes) != 0 {
				res.fail("%s: woken more than once by tick %d", p.id, tick-1)
				<-p.wakes
			}
		}
		e.clock.Advance(g.interval)
		res.Attempted++
		var heap uint64
		if allocs {
			runtime.ReadMemStats(&mem)
			heap = mem.TotalAlloc
		}
		root := tr.op("tick_to_wake")
		t0 := time.Now()
		sp := root.child("server", "TickController")
		st := srv.TickController()
		sp.end()
		srvMs := msSince(t0)
		if allocs {
			runtime.ReadMemStats(&mem)
			heap = mem.TotalAlloc - heap
		}
		sp = root.child("client", "FetchScheduleIfChanged(wake)")
		for _, p := range pollers {
			select {
			case v := <-p.wakes:
				if want := versionOf(prev, p.id) + 1; v != want {
					res.fail("%s: tick %d woke the poller at v%d, want v%d", p.id, tick, v, want)
				}
			case err := <-p.done:
				return fmt.Errorf("poller %s: %v", p.id, err)
			case <-time.After(wakeTimeout):
				return fmt.Errorf("poller %s not woken by tick %d", p.id, tick)
			}
		}
		sp.end()
		ms := msSince(t0)
		root.end()

		if st.LastTickError != "" {
			res.fail("tick %d: %s", tick, st.LastTickError)
		}
		plans := 0
		for k, js := range st.Jobs {
			if js.Version != prev.Jobs[k].Version+1 {
				res.fail("%s: tick %d moved the version %d -> %d", js.JobID, tick, prev.Jobs[k].Version, js.Version)
			}
			plans += js.Plans - prev.Jobs[k].Plans
		}
		prev = st
		if !warm {
			tickMs = append(tickMs, ms)
			res.TickSrvMs = append(res.TickSrvMs, srvMs)
			g.allocB += heap
			res.Replans += plans
			res.Ticks++
		}
	}

	// Close the episode: jump to the deadline, where one more tick
	// settles the rest of the last plan as executed. Nothing is left
	// to plan, so no version moves and no poller wakes.
	if err := waitParked(srv, len(pollers)); err != nil {
		return err
	}
	e.clock.Advance(time.Duration(len(in.Signal.Intervals)-in.Ticks) * g.interval)
	res.Attempted++
	st := srv.TickController()
	if st.LastTickError != "" {
		res.fail("closing tick: %s", st.LastTickError)
	}
	for k, js := range st.Jobs {
		if js.Version != prev.Jobs[k].Version || js.RemainingIterations != 0 {
			res.fail("%s: closing tick left v%d -> v%d, %v iterations to go", js.JobID, prev.Jobs[k].Version, js.Version, js.RemainingIterations)
		}
	}
	for _, p := range pollers {
		if len(p.wakes) != 0 {
			res.fail("%s: woken after the last re-plan", p.id)
		}
		if err := p.halt(cl); err != nil {
			return fmt.Errorf("stop poller %s: %w", p.id, err)
		}
	}
	var carbon float64
	for k, j := range e.ctlJobs {
		roll, err := cl.FetchRollout(j.ID)
		if err != nil {
			return fmt.Errorf("rollout %s: %w", j.ID, err)
		}
		if roll.DoneIterations < g.targets[k]*(1-1e-6) {
			res.fail("%s: %v of %v iterations done at the deadline", j.ID, roll.DoneIterations, g.targets[k])
		}
		carbon += roll.CarbonG
	}
	led, err := cl.FetchLedger("", 1)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	res.Attempted++
	if err := checkLedger(led, len(e.ctlJobs)); err != nil {
		res.fail("ledger after an episode: %v", err)
	}
	g.ratios = append(g.ratios, carbon/g.oracle)
	if !warm {
		res.TickMs = append(res.TickMs, tickMs)
		res.EpisodeMeanMs = append(res.EpisodeMeanMs, mean(tickMs))
	}
	return nil
}

func (g *ctlGroup) result() ctlResult {
	res := g.res
	res.TickToWakeMsMean = median(res.EpisodeMeanMs)
	if res.Ticks > 0 {
		res.TickAllocMB = float64(g.allocB) / float64(res.Ticks) / (1 << 20)
	}
	res.CarbonVsOracle = g.ratios[0]
	for i, r := range g.ratios {
		if r != g.ratios[0] {
			res.fail("episode %d realized %v x oracle carbon, the first %v", i, r, g.ratios[0])
		}
	}
	return res
}

func versionOf(st server.ControllerStatus, id string) int {
	for _, js := range st.Jobs {
		if js.JobID == id {
			return js.Version
		}
	}
	return -1
}

// waitParked returns once n long-polls are parked on the server, read
// from the server's own waiter gauge: a tick must find the pollers
// waiting, or it times a plain request instead of a wake.
func waitParked(srv *server.Server, n int) error {
	limit := time.Now().Add(wakeTimeout)
	for {
		if v, ok := srv.Metrics().GaugeValue("perseus_longpoll_waiters"); ok && int(v) == n {
			return nil
		}
		if time.Now().After(limit) {
			return fmt.Errorf("pollers not parked after %v", wakeTimeout)
		}
		time.Sleep(50 * time.Microsecond)
	}
}
