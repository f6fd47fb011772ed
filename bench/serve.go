package main

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"perseus/internal/client"
	"perseus/internal/grid"
)

// coldTargetStep separates the never-seen targets of the writer's cold
// plan requests: far enough apart to be distinct cache keys, close
// enough that every one is the same planning problem.
const coldTargetStep = 1e-6

// maxColdPlans keeps a run's cold plans under the server's 1,024-entry
// plan cache, so no request is timed while the cache evicts.
const maxColdPlans = 800

// serveResult is the serve group's outcome. Every figure is the median
// over blocks of a per-block value.
type serveResult struct {
	ReadPerS    float64 // per block: reads / reader's wall time
	ReadMsP50   float64 // per block: median round-trip of the reader's requests
	StragMsP50  float64 // per block: median straggler notice -> schedule at the new T_opt
	ColdMsP50   float64 // per block: median cache-missing plan round-trip
	ReadMs      [][]float64
	StragMs     [][]float64
	ColdMs      [][]float64
	ReadRate    []float64
	Reads       int
	Stragglers  int
	ColdPlans   int
	NotModified int // reader requests answered 304
	counts
}

// served is what the writer saw after one straggler notice.
type served struct {
	job    int
	degree float64
	time   float64
}

// serveGroup drives the serving path over two connections at once, one
// block per call: a reader replaying its op cycle and a writer replaying
// its own, both closed-loop, both sized by count, started together.
type serveGroup struct {
	e              *env
	in             *serveInput
	reader, writer *client.ServerClient
	haveR, haveW   []int // schedule versions last seen by reader and writer
	tags           []string
	plans          []*grid.Plan
	history        []served
	res            serveResult
}

func newServeGroup(e *env, in *serveInput) (*serveGroup, error) {
	g := &serveGroup{e: e, in: in, reader: e.serve.conn(), writer: e.serve.conn()}
	// Start from the state set-up left: no stragglers (an earlier replay
	// on this environment ends mid-cycle), validators behaving.
	prime := e.serve.conn()
	for k, j := range e.serveJobs {
		if err := prime.SetStraggler(j.ID, "gpu-0", 0, 1); err != nil {
			return nil, fmt.Errorf("reset %s: %w", j.ID, err)
		}
		g.res.Attempted++
		if err := checkHTTPCaching(prime, j.ID, e.planTargets[k]); err != nil {
			g.res.fail("%v", err)
		}
		s, err := prime.FetchSchedule(j.ID)
		if err != nil {
			return nil, fmt.Errorf("prime %s: %w", j.ID, err)
		}
		p, tag, _, err := g.reader.FetchGridPlanIfChanged(j.ID, e.planTargets[k], 0, "", "", 0)
		if err != nil {
			return nil, fmt.Errorf("prime plan %s: %w", j.ID, err)
		}
		g.haveR, g.haveW = append(g.haveR, s.Version), append(g.haveW, s.Version)
		g.tags, g.plans = append(g.tags, tag), append(g.plans, &p)
	}
	return g, nil
}

// block runs one reader block and one writer block side by side.
func (g *serveGroup) block(tr *tracer, warm bool) error {
	if g.e.coldPlans+countCold(g.in.Writes) > maxColdPlans {
		return fmt.Errorf("more than %d cold plans would overflow the plan cache", maxColdPlans)
	}
	var (
		wg           sync.WaitGroup
		rd, wr       counts
		rdErr, wrErr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		rd, rdErr = g.readBlock(tr, warm)
	}()
	go func() {
		defer wg.Done()
		wr, wrErr = g.writeBlock(tr, warm)
	}()
	wg.Wait()
	g.res.add(rd)
	g.res.add(wr)
	if rdErr != nil {
		return fmt.Errorf("reader: %w", rdErr)
	}
	if wrErr != nil {
		return fmt.Errorf("writer: %w", wrErr)
	}
	return nil
}

func countCold(ws []writeOp) int {
	n := 0
	for _, w := range ws {
		if w.Cold {
			n++
		}
	}
	return n
}

// readBlock is connection A: it touches only the reader's fields.
func (g *serveGroup) readBlock(tr *tracer, warm bool) (c counts, err error) {
	cl, e := g.reader, g.e
	lat := make([]float64, 0, len(g.in.Reads))
	notModified := 0
	start := time.Now()
	for _, op := range g.in.Reads {
		id := e.serveJobs[op.Job].ID
		root := tr.op("read")
		t0 := time.Now()
		switch op.Kind {
		case readSchedCond:
			sp := root.child("client", "FetchScheduleIfChanged")
			s, changed, ferr := cl.FetchScheduleIfChanged(id, g.haveR[op.Job], 0)
			sp.end()
			if err = ferr; err == nil {
				if !changed {
					notModified++
				} else if s.Version <= g.haveR[op.Job] || !s.Ready {
					c.fail("%s: conditional fetch at v%d returned v%d", id, g.haveR[op.Job], s.Version)
				} else {
					g.haveR[op.Job] = s.Version
				}
			}
		case readSchedFull:
			sp := root.child("client", "FetchSchedule")
			s, ferr := cl.FetchSchedule(id)
			sp.end()
			if err = ferr; err == nil {
				if s.Version < g.haveR[op.Job] || !s.Ready {
					c.fail("%s: schedule went back from v%d to v%d", id, g.haveR[op.Job], s.Version)
				}
				g.haveR[op.Job] = s.Version
			}
		case readPlanCond:
			sp := root.child("client", "FetchGridPlanIfChanged")
			_, tag, changed, ferr := cl.FetchGridPlanIfChanged(id, e.planTargets[op.Job], 0, "", g.tags[op.Job], 0)
			sp.end()
			if err = ferr; err == nil {
				if changed || tag != g.tags[op.Job] {
					c.fail("%s: plan validator moved without a signal change", id)
				} else {
					notModified++
				}
			}
		case readPlanFull:
			sp := root.child("client", "FetchGridPlan")
			p, ferr := cl.FetchGridPlan(id, e.planTargets[op.Job], 0, "")
			sp.end()
			if err = ferr; err == nil && !reflect.DeepEqual(&p, g.plans[op.Job]) {
				c.fail("%s: cached plan changed between fetches", id)
			}
		}
		ms := msSince(t0)
		root.end()
		if err != nil {
			return c, err
		}
		c.Attempted++
		lat = append(lat, ms)
	}
	if !warm {
		g.res.ReadMs = append(g.res.ReadMs, lat)
		g.res.ReadRate = append(g.res.ReadRate, float64(len(lat))/time.Since(start).Seconds())
		g.res.Reads += len(lat)
		g.res.NotModified += notModified
	}
	return c, nil
}

// writeBlock is connection B: it touches only the writer's fields.
func (g *serveGroup) writeBlock(tr *tracer, warm bool) (c counts, err error) {
	cl, e := g.writer, g.e
	var strag, colds []float64
	for _, op := range g.in.Writes {
		id := e.serveJobs[op.Job].ID
		root := tr.op("straggler_to_schedule")
		t0 := time.Now()
		sp := root.child("client", "SetStraggler")
		err = cl.SetStraggler(id, "gpu-0", 0, op.Degree)
		sp.end()
		if err != nil {
			return c, err
		}
		sp = root.child("client", "FetchSchedule")
		s, ferr := cl.FetchSchedule(id)
		sp.end()
		ms := msSince(t0)
		root.end()
		if ferr != nil {
			return c, ferr
		}
		c.Attempted++
		if s.Version <= g.haveW[op.Job] {
			c.fail("%s: version %d after a straggler notice, was %d", id, s.Version, g.haveW[op.Job])
		}
		g.haveW[op.Job] = s.Version
		g.history = append(g.history, served{job: op.Job, degree: op.Degree, time: s.Time})
		strag = append(strag, ms)

		if op.Cold {
			e.coldPlans++
			target := e.planTargets[op.Job] * (1 - float64(e.coldPlans)*coldTargetStep)
			root := tr.op("plan_cold")
			t0 := time.Now()
			sp := root.child("client", "FetchGridPlan")
			p, perr := cl.FetchGridPlan(id, target, 0, "")
			sp.end()
			ms := msSince(t0)
			root.end()
			if perr != nil {
				return c, perr
			}
			c.Attempted++
			if !p.Feasible || p.Target != target {
				c.fail("%s: cold plan for %v iterations infeasible or mislabelled", id, target)
			}
			colds = append(colds, ms)
		}
	}
	if !warm {
		g.res.StragMs = append(g.res.StragMs, strag)
		g.res.ColdMs = append(g.res.ColdMs, colds)
		g.res.Stragglers += len(strag)
		g.res.ColdPlans += len(colds)
	}
	return c, nil
}

func (g *serveGroup) result() serveResult {
	res := g.res
	res.ReadPerS = median(res.ReadRate)
	res.ReadMsP50 = blockMedian(res.ReadMs)
	res.StragMsP50 = blockMedian(res.StragMs)
	res.ColdMsP50 = blockMedian(res.ColdMs)

	// The writer is the only source of stragglers and sends one at a
	// time, so the fleet state after each notice is known: replay it
	// through the allocator and compare what the server served. An
	// allocation over 32 jobs costs a millisecond, so a long history is
	// checked at an even stride of some 256 notices.
	degree := make([]float64, len(g.e.serveJobs))
	for i := range degree {
		degree[i] = 1
	}
	stride := max(1, len(g.history)/256)
	for n, h := range g.history {
		degree[h.job] = h.degree
		if n%stride != 0 {
			continue
		}
		res.Attempted++
		if want := expectedTimes(g.e.serveJobs, degree, g.e.capW)[h.job]; h.time != want {
			res.fail("straggler %d (%s x%.2f): served time_s %v, reference %v", n, g.e.serveJobs[h.job].ID, h.degree, h.time, want)
		}
	}
	return res
}
