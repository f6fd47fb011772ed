package main

import (
	"fmt"
	"slices"
	"time"

	"perseus/internal/client"
	"perseus/internal/dag"
	"perseus/internal/frontier"
	"perseus/internal/gpu"
	"perseus/internal/profile"
	"perseus/internal/sched"
)

// scheduleWait bounds one long-poll for a job's first schedule; the
// loop re-issues until the schedule is ready, so this is not a limit on
// characterization time.
const scheduleWait = 10 * time.Second

// charResult is the characterize group's outcome.
type charResult struct {
	FirstScheduleMsGM float64 // per shape median over passes, geometric mean over shapes
	PointsPerS        float64 // sum of frontier points / sum of per-shape median times
	SavingPct         float64 // mean Tmin-schedule energy saving vs all-max, simulated
	Points            int     // frontier points over all shapes
	PerShapeMs        [][]float64
	counts
}

// charGroup drives register -> profile upload -> first ready schedule
// for every shape, one pass per call. The warm-up pass is checked
// against the references and not timed. Jobs are removed after each
// pass, so every pass meets the same empty server.
type charGroup struct {
	cl      *client.ServerClient
	shapes  []jobShape
	first   []client.Schedule
	points  []int
	savings []float64
	res     charResult
}

func newCharGroup(ep *endpoint, shapes []jobShape) *charGroup {
	return &charGroup{
		cl: ep.conn(), shapes: shapes,
		first: make([]client.Schedule, len(shapes)), points: make([]int, len(shapes)),
		res: charResult{PerShapeMs: make([][]float64, len(shapes))},
	}
}

func (g *charGroup) pass(tr *tracer, warm bool) error {
	ids := make([]string, 0, len(g.shapes))
	for i, sh := range g.shapes {
		g.res.Attempted++
		root := tr.op("first_schedule")
		start := time.Now()
		id, s, err := firstSchedule(g.cl, sh, root)
		ms := msSince(start)
		root.end()
		if err != nil {
			return fmt.Errorf("characterize %s: %w", sh.Name, err)
		}
		ids = append(ids, id)
		if warm {
			ref, err := checkFirstSchedule(g.cl, id, sh, s)
			if err != nil {
				g.res.fail("%s: %v", sh.Name, err)
			}
			g.first[i], g.points[i] = s, ref.points
			g.savings = append(g.savings, ref.savingPct)
			continue
		}
		if s.Time != g.first[i].Time || !slices.Equal(s.Freqs, g.first[i].Freqs) {
			g.res.fail("%s: served a different schedule than on the warm-up pass", sh.Name)
		}
		g.res.PerShapeMs[i] = append(g.res.PerShapeMs[i], ms)
		if tr != nil {
			if err := walkChain(sh, tr); err != nil {
				return fmt.Errorf("chain walk %s: %w", sh.Name, err)
			}
		}
	}
	for _, id := range ids {
		if err := g.cl.RemoveJob(id); err != nil {
			return fmt.Errorf("remove %s: %w", id, err)
		}
	}
	return nil
}

func (g *charGroup) result() charResult {
	res := g.res
	var times []float64
	var totalS float64
	for i := range g.shapes {
		m := median(res.PerShapeMs[i])
		times = append(times, m)
		totalS += m / 1e3
		res.Points += g.points[i]
	}
	res.FirstScheduleMsGM = geomean(times)
	if totalS > 0 {
		res.PointsPerS = float64(res.Points) / totalS
	}
	res.SavingPct = mean(g.savings)
	return res
}

// firstSchedule is the timed operation: what a trainer does between
// start-up and deploying its first energy schedule.
func firstSchedule(cl *client.ServerClient, sh jobShape, root *activeSpan) (string, client.Schedule, error) {
	sp := root.child("client", "RegisterJob")
	id, err := cl.RegisterJob(sh.Req)
	sp.end()
	if err != nil {
		return "", client.Schedule{}, err
	}
	sp = root.child("client", "UploadProfile")
	err = cl.UploadProfile(id, sh.PBlocking, sh.Meas)
	sp.end()
	if err != nil {
		return id, client.Schedule{}, err
	}
	version := 0
	for {
		sp = root.child("client", "FetchScheduleIfChanged")
		s, changed, err := cl.FetchScheduleIfChanged(id, version, scheduleWait)
		sp.end()
		if err != nil {
			return id, client.Schedule{}, err
		}
		if changed {
			if s.Ready {
				return id, s, nil
			}
			version = s.Version
		}
	}
}

// walkChain repeats in-process, one traced call per layer, what the
// server does between the upload and the first schedule. Over the
// socket that work hides inside one long-poll; here each layer's share
// of it is a span of its own.
func walkChain(sh jobShape, tr *tracer) error {
	root := tr.op("chain_walk")
	defer root.end()
	g, err := gpu.ByName(sh.Req.GPU)
	if err != nil {
		return err
	}
	sp := root.child("sched", "ByName")
	sc, err := sched.ByName(sh.Req.Schedule, sh.Req.Stages, sh.Req.Microbatches, max(sh.Req.Chunks, 1))
	sp.end()
	if err != nil {
		return err
	}
	sp = root.child("dag", "Build")
	graph, err := dag.Build(sc, func(sched.Op) int64 { return 1 })
	sp.end()
	if err != nil {
		return err
	}
	sp = root.child("profile", "Assemble")
	prof, err := profile.Assemble(g, sh.PBlocking, sh.Meas)
	sp.end()
	if err != nil {
		return err
	}
	sp = root.child("frontier", "Characterize")
	front, err := frontier.Characterize(graph, prof, frontier.Options{Unit: sh.Req.Unit})
	sp.end()
	if err != nil {
		return err
	}
	sp = root.child("frontier", "Table")
	front.Table()
	sp.end()
	sp = root.child("frontier", "Lookup.Plan")
	front.Lookup(front.Tmin()).Plan()
	sp.end()
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
