package main

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"perseus/internal/client"
	"perseus/internal/frontier"
	"perseus/internal/server"
)

// endpoint is one Perseus server behind a real loopback socket.
type endpoint struct {
	srv *server.Server
	hs  *http.Server
	url string

	clients []*http.Transport // one per conn(); all handed out by the main goroutine
}

// boot serves srv on 127.0.0.1:0.
func boot(srv *server.Server) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &endpoint{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String()}
	go func() { _ = e.hs.Serve(ln) }() // returns when close shuts the listener
	return e, nil
}

// conn returns a client with a transport of its own, so each of the
// benchmark's load generators talks over its own TCP connection.
func (e *endpoint) conn() *client.ServerClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	e.clients = append(e.clients, tr)
	return &client.ServerClient{BaseURL: e.url, HTTP: &http.Client{Transport: tr}}
}

// close stops the server and drops every client connection.
func (e *endpoint) close() {
	_ = e.hs.Close() // closes the listener and all connections; nothing to report
	for _, tr := range e.clients {
		tr.CloseIdleConnections()
	}
}

// fakeClock is the controller server's clock: the benchmark advances it
// one signal interval per tick.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// fleetJob is one characterized job on a set-up server, with the
// lookup table the server serves for it (the checks' reference).
type fleetJob struct {
	ID    string
	Table *frontier.LookupTable
}

// env is what set-up leaves behind: three servers behind sockets, the
// serving and control ones populated with characterized jobs.
type env struct {
	char *endpoint // empty: the characterize group registers its own jobs

	serve       *endpoint
	serveJobs   []fleetJob
	capW        float64
	planTargets []float64 // per serve job: the cached plan's target iterations
	coldPlans   int       // never-seen plan targets requested so far (writer only)

	ctl     *endpoint
	ctlJobs []fleetJob
	clock   *fakeClock
}

func (e *env) close() {
	for _, ep := range []*endpoint{e.char, e.serve, e.ctl} {
		if ep != nil {
			ep.close()
		}
	}
}

// setup boots the three servers and brings the serving and control ones
// to the state their timed phases start from: jobs registered,
// profiled and characterized over the socket, the grid signal and fleet
// cap installed, every job's plan in the cache.
func setup(in *inputs) (_ *env, err error) {
	e := &env{clock: &fakeClock{now: time.Unix(1_700_000_000, 0)}}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.char, err = boot(server.New()); err != nil {
		return nil, err
	}
	if e.serve, err = boot(server.New()); err != nil {
		return nil, err
	}
	ctlSrv := server.New()
	ctlSrv.SetClock(e.clock.Now)
	if e.ctl, err = boot(ctlSrv); err != nil {
		return nil, err
	}

	if e.serveJobs, err = populate(e.serve, in.Serve.Jobs); err != nil {
		return nil, err
	}
	if e.ctlJobs, err = populate(e.ctl, in.Ctl.Jobs); err != nil {
		return nil, err
	}

	cl := e.serve.conn()
	if _, err = cl.UploadGridSignal(in.Serve.Signal, ""); err != nil {
		return nil, fmt.Errorf("serve signal: %w", err)
	}
	uncapped, err := cl.FetchFleetStatus()
	if err != nil {
		return nil, fmt.Errorf("fleet status: %w", err)
	}
	e.capW = in.Serve.CapFrac * uncapped.PowerW
	capped, err := cl.SetFleetCap(e.capW)
	if err != nil {
		return nil, fmt.Errorf("fleet cap: %w", err)
	}
	if !capped.Feasible {
		return nil, fmt.Errorf("fleet cap %.0f W infeasible", e.capW)
	}
	horizon := in.Serve.Signal.Horizon()
	for _, j := range e.serveJobs {
		target := in.Serve.PlanFrac * horizon / j.Table.TStar()
		plan, err := cl.FetchGridPlan(j.ID, target, 0, "")
		if err != nil {
			return nil, fmt.Errorf("warm plan %s: %w", j.ID, err)
		}
		if !plan.Feasible {
			return nil, fmt.Errorf("warm plan %s infeasible", j.ID)
		}
		e.planTargets = append(e.planTargets, target)
	}
	return e, nil
}

// populate registers and profiles every shape over the socket, waits
// for the server's background characterizations, and reads back each
// job's lookup table.
func populate(ep *endpoint, shapes []jobShape) ([]fleetJob, error) {
	cl := ep.conn()
	jobs := make([]fleetJob, len(shapes))
	for i, sh := range shapes {
		id, err := cl.RegisterJob(sh.Req)
		if err != nil {
			return nil, fmt.Errorf("register %s: %w", sh.Name, err)
		}
		if err := cl.UploadProfile(id, sh.PBlocking, sh.Meas); err != nil {
			return nil, fmt.Errorf("profile %s: %w", sh.Name, err)
		}
		jobs[i].ID = id
	}
	for i := range jobs {
		if err := ep.srv.WaitCharacterized(jobs[i].ID); err != nil {
			return nil, fmt.Errorf("characterize %s: %w", jobs[i].ID, err)
		}
		lt, err := fetchTable(cl, jobs[i].ID)
		if err != nil {
			return nil, err
		}
		jobs[i].Table = lt
	}
	return jobs, nil
}

// fetchTable reads GET /jobs/{id}/table, the serialized frontier.
func fetchTable(cl *client.ServerClient, id string) (*frontier.LookupTable, error) {
	resp, err := cl.HTTP.Get(cl.BaseURL + "/jobs/" + id + "/table")
	if err != nil {
		return nil, fmt.Errorf("table %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("table %s: %s", id, resp.Status)
	}
	lt, err := frontier.LoadTable(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("table %s: %w", id, err)
	}
	return lt, nil
}
