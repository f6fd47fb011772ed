// Package client implements the Perseus client (paper §5, Table 2): the
// framework-integrated, accelerator-specific side that profiles forward
// and backward computations in vivo during the first training iterations,
// reports results to the Perseus server, and realizes deployed energy
// schedules through an asynchronous frequency controller.
//
// The Trainer type stands in for the Merak pipeline execution engine of
// paper Listing 1: it walks a pipeline schedule's instructions, wrapping
// each with controller.SetSpeed and profiler Begin/End exactly as a real
// training engine would.
package client

import (
	"bytes"
	"encoding"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"perseus/internal/api"
	"perseus/internal/gpu"
	"perseus/internal/grid"
	"perseus/internal/obs"
	"perseus/internal/profile"
	"perseus/internal/region"
	"perseus/internal/sched"
)

// Profiler measures the time and energy of computations on one device
// (Table 2: profiler.begin/end). Begin snapshots the device energy
// counter; End records the measurement.
type Profiler struct {
	dev    *gpu.Device
	open   bool
	snapJ  float64
	simSec float64 // simulated elapsed seconds for the open span

	// Records accumulates raw measurements for upload.
	Records []profile.Measurement
}

// NewProfiler wraps a device.
func NewProfiler(dev *gpu.Device) *Profiler { return &Profiler{dev: dev} }

// Begin starts measuring one computation.
func (p *Profiler) Begin() error {
	if p.open {
		return fmt.Errorf("client: profiler Begin while a span is open")
	}
	p.open = true
	p.snapJ = p.dev.EnergyCounter()
	p.simSec = 0
	return nil
}

// Advance accounts simulated execution time inside the open span (the
// simulator's replacement for wall-clock time).
func (p *Profiler) Advance(sec float64) { p.simSec += sec }

// End records the measurement for the computation type.
func (p *Profiler) End(virtual int, kind sched.Kind) error {
	if !p.open {
		return fmt.Errorf("client: profiler End without Begin")
	}
	p.open = false
	p.Records = append(p.Records, profile.Measurement{
		Virtual: virtual,
		Kind:    kind,
		Freq:    p.dev.Frequency(),
		Time:    p.simSec,
		Energy:  p.dev.EnergyCounter() - p.snapJ,
	})
	return nil
}

// Controller is the asynchronous frequency controller (paper §5): a
// separate goroutine applies frequency changes so the training loop never
// blocks on the ~10 ms NVML call. SetSpeed enqueues; the worker applies.
type Controller struct {
	dev  *gpu.Device
	reqs chan ctlReq
	stop chan struct{}
	done chan struct{}
}

type ctlReq struct {
	freq gpu.Frequency
	ack  chan struct{} // non-nil: flush marker, closed once reached
}

// NewController starts the controller's worker goroutine.
func NewController(dev *gpu.Device) *Controller {
	c := &Controller{
		dev:  dev,
		reqs: make(chan ctlReq, 64),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go c.run()
	return c
}

func (c *Controller) run() {
	defer close(c.done)
	for {
		select {
		case r := <-c.reqs:
			if r.freq > 0 {
				c.dev.SetFrequency(r.freq)
			}
			if r.ack != nil {
				close(r.ack)
			}
		case <-c.stop:
			return
		}
	}
}

// SetSpeed asynchronously sets the device's frequency (Table 2:
// controller.set_speed). Frequency 0 is a no-op (constant-time ops).
func (c *Controller) SetSpeed(f gpu.Frequency) {
	select {
	case c.reqs <- ctlReq{freq: f}:
	case <-c.stop:
	}
}

// Sync waits until every previously queued frequency change has been
// applied, by enqueueing a flush marker and waiting for the worker to
// reach it (FIFO ordering guarantees all earlier requests applied). The
// simulator calls it before running a computation, standing in for the
// real system's overlap of the NVML call with CPU-side work.
func (c *Controller) Sync() {
	ack := make(chan struct{})
	select {
	case c.reqs <- ctlReq{ack: ack}:
	case <-c.stop:
		return
	}
	select {
	case <-ack:
	case <-c.done:
	}
}

// Close stops the worker.
func (c *Controller) Close() {
	close(c.stop)
	<-c.done
}

// ServerClient is the HTTP client to the Perseus server.
type ServerClient struct {
	BaseURL string
	HTTP    *http.Client

	// Traceparent, when non-empty, is attached as the W3C traceparent
	// header on every request, so the server's spans for all of this
	// client's calls share one trace ID (obs.NewTraceparent mints one).
	// When empty no header is sent and each request roots its own
	// server-side trace.
	Traceparent string
}

// NewServerClient targets a server at baseURL.
func NewServerClient(baseURL string) *ServerClient {
	return &ServerClient{BaseURL: baseURL, HTTP: http.DefaultClient}
}

// NewTracedServerClient targets a server at baseURL with a freshly
// minted traceparent, correlating every call the client makes under
// one trace ID (retrievable from TraceID).
func NewTracedServerClient(baseURL string) *ServerClient {
	return &ServerClient{BaseURL: baseURL, HTTP: http.DefaultClient, Traceparent: obs.NewTraceparent()}
}

// TraceID returns the trace ID of the client's traceparent ("" when
// the client is untraced) — the handle to look the client's requests
// up in GET /debug/traces.
func (c *ServerClient) TraceID() string {
	id, _, ok := obs.ParseTraceparent(c.Traceparent)
	if !ok {
		return ""
	}
	return id
}

// Wire types: every request and response body is declared once, in
// internal/api (and, for the observability views, internal/obs); the
// client names them by alias.
type (
	JobRequest          = api.JobRequest
	Schedule            = api.ScheduleResponse
	JobAllocation       = api.JobAllocationResponse
	FleetStatus         = api.FleetStatusResponse
	GridSignalAck       = api.GridSignalResponse
	RegionInfo          = api.RegionInfo
	PlacementEntry      = api.PlacementEntry
	Placement           = api.PlacementResponse
	Emissions           = api.EmissionsResponse
	ForecastAck         = api.ForecastResponse
	Replan              = api.ReplanResponse
	Rollout             = api.RolloutResponse
	ControllerJobStatus = api.ControllerJobStatus
	CacheStats          = api.CacheStats
	ControllerStatus    = api.ControllerStatus
	Health              = api.HealthResponse
	SLOStatus           = obs.SLOStatus
	Event               = obs.Event
	Span                = obs.Span
	Trace               = obs.Trace
	LedgerSpan          = obs.LedgerSpan
	LedgerEntry         = obs.LedgerEntry
	LedgerTotals        = obs.LedgerTotals
	JobLedger           = obs.JobLedgerView
	Ledger              = api.LedgerResponse
)

// do sends one request — in as its body when non-nil, ifNoneMatch as
// its validator when non-empty, the client's traceparent when set — and
// returns the response for the caller to read and close. A body that
// encodes itself in binary (api.ProfileUpload) is sent as its
// MarshalBinary bytes, application/octet-stream; any other as JSON. A
// 304 answering a validator comes back as is; any other status of 300
// or above is an error carrying the server's message: do reads (the
// first 4 kB of) the body before closing it, which is also what lets
// net/http keep the connection — a response closed with its body unread
// takes the connection down with it.
func (c *ServerClient) do(method, path string, in any, ifNoneMatch string) (*http.Response, error) {
	var body io.Reader
	contentType := "application/json"
	if in != nil {
		var buf []byte
		var err error
		if m, ok := in.(encoding.BinaryMarshaler); ok {
			buf, err = m.MarshalBinary()
			contentType = "application/octet-stream"
		} else {
			buf, err = json.Marshal(in)
		}
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	if c.Traceparent != "" {
		req.Header.Set("Traceparent", c.Traceparent)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	notModified := ifNoneMatch != "" && resp.StatusCode == http.StatusNotModified
	if resp.StatusCode >= 300 && !notModified {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		return nil, fmt.Errorf("client: %s %s: %s: %s", resp.Request.Method, resp.Request.URL.RequestURI(), resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// fetch sends one request and decodes its JSON answer.
func fetch[T any](c *ServerClient, method, path string, in any) (out T, err error) {
	resp, err := c.do(method, path, in, "")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// get fetches a JSON resource.
func get[T any](c *ServerClient, path string) (T, error) {
	return fetch[T](c, http.MethodGet, path, nil)
}

// send sends a request whose answer has no body to decode.
func (c *ServerClient) send(method, path string, in any) error {
	resp, err := c.do(method, path, in, "")
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// text fetches a non-JSON resource verbatim.
func (c *ServerClient) text(path string) (string, error) {
	resp, err := c.do(http.MethodGet, path, nil, "")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// query renders ?k=v pairs for the parameters that are set: floats are
// query-encoded (fmt's %v renders 1e12 as "1e+12", whose bare '+' would
// decode server-side as a space), and a pair whose value is "" is left
// out. It returns "" when nothing is set.
func query(kv ...string) string {
	q := url.Values{}
	for i := 0; i < len(kv); i += 2 {
		if kv[i+1] != "" {
			q.Set(kv[i], kv[i+1])
		}
	}
	if enc := q.Encode(); enc != "" {
		return "?" + enc
	}
	return ""
}

// float renders a query parameter that is always sent.
func float(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// positive renders a query parameter that is sent only when set (> 0).
func positive(v float64) string {
	if v > 0 {
		return float(v)
	}
	return ""
}

// count renders an optional cap parameter: sent only when positive.
func count(n int) string {
	if n > 0 {
		return strconv.Itoa(n)
	}
	return ""
}

// RegisterJob registers the training job with the server.
func (c *ServerClient) RegisterJob(req JobRequest) (string, error) {
	resp, err := fetch[api.JobResponse](c, http.MethodPost, "/jobs", req)
	return resp.JobID, err
}

// UploadProfile sends profiling results.
func (c *ServerClient) UploadProfile(jobID string, pBlocking float64, ms []profile.Measurement) error {
	up := api.ProfileUpload{PBlocking: pBlocking, Measurements: make([]api.MeasurementJSON, 0, len(ms))}
	for _, m := range ms {
		up.Measurements = append(up.Measurements, api.MeasurementJSON{
			Virtual: m.Virtual, Kind: api.KindName(m.Kind), Freq: int(m.Freq), Time: m.Time, Energy: m.Energy,
		})
	}
	return c.send(http.MethodPost, "/jobs/"+jobID+"/profile", up)
}

// FetchSchedule returns the currently deployed schedule.
func (c *ServerClient) FetchSchedule(jobID string) (Schedule, error) {
	return get[Schedule](c, "/jobs/"+jobID+"/schedule")
}

// WaitSchedule polls until the schedule is ready or attempts run out.
func (c *ServerClient) WaitSchedule(jobID string, attempts int, interval time.Duration) (Schedule, error) {
	for i := 0; i < attempts; i++ {
		s, err := c.FetchSchedule(jobID)
		if err != nil {
			return Schedule{}, err
		}
		if s.Ready {
			return s, nil
		}
		time.Sleep(interval)
	}
	return Schedule{}, fmt.Errorf("client: schedule for %s not ready after %d attempts", jobID, attempts)
}

// SetStraggler notifies the server of an anticipated straggler (Table 2:
// server.set_straggler, invoked by the training infrastructure).
func (c *ServerClient) SetStraggler(jobID, accelID string, delay, degree float64) error {
	return c.send(http.MethodPost, "/jobs/"+jobID+"/straggler", api.StragglerNotice{ID: accelID, Delay: delay, Degree: degree})
}

// SetFleetCap sets the facility power cap across every job the server
// manages (0 uncaps) and returns the resulting allocation.
func (c *ServerClient) SetFleetCap(capW float64) (FleetStatus, error) {
	return fetch[FleetStatus](c, http.MethodPost, "/fleet/cap", api.FleetCapRequest{CapW: capW})
}

// FetchFleetStatus returns the fleet-wide allocation under the current
// cap.
func (c *ServerClient) FetchFleetStatus() (FleetStatus, error) {
	return get[FleetStatus](c, "/fleet/status")
}

// FetchAllocation returns one job's fleet allocation.
func (c *ServerClient) FetchAllocation(jobID string) (JobAllocation, error) {
	return get[JobAllocation](c, "/jobs/"+jobID+"/allocation")
}

// UploadGridSignal installs a grid trace (carbon intensity, price, and
// facility caps over time) on the server, with an optional default
// planning objective ("" keeps carbon).
func (c *ServerClient) UploadGridSignal(sig grid.Signal, objective string) (GridSignalAck, error) {
	return fetch[GridSignalAck](c, http.MethodPost, "/grid/signal", api.GridSignalRequest{Signal: sig, Objective: objective})
}

// FetchGridSignal returns the installed grid trace.
func (c *ServerClient) FetchGridSignal() (grid.Signal, error) {
	return get[grid.Signal](c, "/grid/signal")
}

// FetchGridPlan returns the job's temporal schedule over the installed
// signal: complete iterations by the deadline (seconds in signal time,
// 0 = signal horizon) minimizing the objective ("" = server default).
func (c *ServerClient) FetchGridPlan(jobID string, iterations, deadline float64, objective string) (grid.Plan, error) {
	p, _, _, err := c.FetchGridPlanIfChanged(jobID, iterations, deadline, objective, "", 0)
	return p, err
}

// FetchGridPlanIfChanged fetches the job's temporal schedule only if
// the plan the request resolves to changed since the fetch that
// returned haveETag, long-polling up to wait. The plan's entity tag
// names its cache key (plan epoch, frontier hash, request params), so
// it moves exactly when a signal re-install, forecast revision, or
// re-characterization would change the answer. changed is false (with
// a zero Plan) on 304 Not Modified; etag is always the server's
// current validator, to carry into the next call. Pass haveETag ""
// for an unconditional first fetch.
func (c *ServerClient) FetchGridPlanIfChanged(jobID string, iterations, deadline float64, objective, haveETag string, wait time.Duration) (p grid.Plan, etag string, changed bool, err error) {
	resp, err := c.do(http.MethodGet, "/grid/plan/"+jobID+query(
		"iterations", float(iterations), "deadline", float(deadline),
		"objective", objective, "wait", positive(wait.Seconds())), nil, haveETag)
	if err != nil {
		return grid.Plan{}, "", false, err
	}
	defer resp.Body.Close()
	etag = resp.Header.Get("ETag")
	if resp.StatusCode == http.StatusNotModified {
		return grid.Plan{}, etag, false, nil
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return grid.Plan{}, "", false, err
	}
	if err = p.UnmarshalBinary(body); err != nil {
		return grid.Plan{}, "", false, err
	}
	return p, etag, true, nil
}

// RegisterRegion registers a datacenter region — GPU capacity, facility
// power cap, and its own grid signal — with the server.
func (c *ServerClient) RegisterRegion(name string, gpus int, capW float64, sig grid.Signal) (RegionInfo, error) {
	return fetch[RegionInfo](c, http.MethodPost, "/regions", api.RegionRequest{Name: name, GPUs: gpus, CapW: capW, Signal: sig})
}

// FetchRegions lists the registered regions.
func (c *ServerClient) FetchRegions() ([]RegionInfo, error) {
	return get[[]RegionInfo](c, "/regions")
}

// PlaceJob places (or migrates) a job into a registered region; the
// server settles emissions at the old placement's rates first.
func (c *ServerClient) PlaceJob(jobID, regionName string) (Placement, error) {
	return c.PlaceJobMigrating(jobID, regionName, 0)
}

// PlaceJobMigrating is PlaceJob with an explicit migration energy
// overhead in joules (checkpoint, transfer, restart), charged at the
// destination's instantaneous rates into the job's emissions account
// and booked as migration overhead in the bloat ledger.
func (c *ServerClient) PlaceJobMigrating(jobID, regionName string, migrationJ float64) (Placement, error) {
	return fetch[Placement](c, http.MethodPost, "/jobs/"+jobID+"/placement", api.PlacementRequest{Region: regionName, MigrationJ: migrationJ})
}

// FetchPlacement returns a job's current placement and history.
func (c *ServerClient) FetchPlacement(jobID string) (Placement, error) {
	return get[Placement](c, "/jobs/"+jobID+"/placement")
}

// FetchRegionsPlan plans every characterized job's spatio-temporal
// schedule across the registered regions: target iterations per job by
// the deadline (0 = longest region trace), minimizing the objective
// ("" = server default), with migration modeled as the given
// downtime + transfer energy.
func (c *ServerClient) FetchRegionsPlan(iterations, deadline float64, objective string, downtimeS, migrationJ float64) (region.Plan, error) {
	return get[region.Plan](c, "/regions/plan"+query(
		"iterations", float(iterations), "deadline", float(deadline),
		"downtime", float(downtimeS), "migration_j", float(migrationJ), "objective", objective))
}

// FetchEmissions returns a job's cumulative emissions accounting.
func (c *ServerClient) FetchEmissions(jobID string) (Emissions, error) {
	return get[Emissions](c, "/jobs/"+jobID+"/emissions")
}

// InstallForecast installs a forecast model (persistence, seasonal, or
// smoothed) over the installed grid signal and returns the forecast
// issued from the history revealed so far. level is the uncertainty-
// band quantile (0 = 0.9); quantile is the default robust planning
// quantile re-plans use (0 = plan on the point forecast); horizonS
// extends coverage (0 = one signal cycle beyond now).
func (c *ServerClient) InstallForecast(model string, level, quantile, horizonS float64) (ForecastAck, error) {
	return fetch[ForecastAck](c, http.MethodPost, "/grid/forecast",
		api.ForecastRequest{Model: model, Level: level, Quantile: quantile, HorizonS: horizonS})
}

// InstallRevisionsForecast installs the seeded noisy-revision issuer
// over the installed grid signal: every issue (install, ManageJob,
// controller tick) sees the signal's future multiplied by seeded
// lognormal innovations that drain as boundaries pass — the external
// forecast feed the MPC experiments replay. sigma 0 uses the provider
// default; horizonS extends coverage like InstallForecast.
func (c *ServerClient) InstallRevisionsForecast(seed int64, sigma, level, quantile, horizonS float64) (ForecastAck, error) {
	return fetch[ForecastAck](c, http.MethodPost, "/grid/forecast",
		api.ForecastRequest{Model: "revisions", Level: level, Quantile: quantile, HorizonS: horizonS, Seed: seed, Sigma: sigma})
}

// FetchForecast returns the latest issued forecast.
func (c *ServerClient) FetchForecast() (ForecastAck, error) {
	return get[ForecastAck](c, "/grid/forecast")
}

// FetchScheduleIfChanged fetches the deployed schedule only if its
// version moved past haveVersion, long-polling up to wait: the request
// carries If-None-Match with the version's entity tag, and the server
// blocks until a version bump or the wait expires. changed is false
// (with a zero Schedule) on 304 Not Modified — the trainer keeps its
// current schedule. This is how a trainer observes the background
// controller's re-plans without ever planning itself.
func (c *ServerClient) FetchScheduleIfChanged(jobID string, haveVersion int, wait time.Duration) (s Schedule, changed bool, err error) {
	path := "/jobs/" + jobID + "/schedule"
	if wait > 0 {
		path += "?wait=" + float(wait.Seconds())
	}
	resp, err := c.do(http.MethodGet, path, nil, fmt.Sprintf("%q", "v"+strconv.Itoa(haveVersion)))
	if err != nil {
		return Schedule{}, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		return Schedule{}, false, nil
	}
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s, err == nil, err
}

// FetchRollout returns the job's rolling-horizon schedule state
// without triggering a re-plan.
func (c *ServerClient) FetchRollout(jobID string) (Rollout, error) {
	return get[Rollout](c, "/jobs/"+jobID+"/rollout")
}

// ManageJob puts the job's rolling-horizon schedule under the server
// controller's management: the schedule is planned immediately and
// re-planned at every subsequent controller tick, with version bumps
// observable through FetchScheduleIfChanged.
func (c *ServerClient) ManageJob(jobID string, iterations, deadline float64, objective string, quantile float64) (Replan, error) {
	return fetch[Replan](c, http.MethodPost, "/controller/jobs", api.ControllerJobRequest{
		JobID: jobID, Target: iterations, DeadlineS: deadline, Objective: objective, Quantile: quantile})
}

// StartController starts the server's background tick loop.
func (c *ServerClient) StartController() (ControllerStatus, error) {
	return fetch[ControllerStatus](c, http.MethodPost, "/controller/start", struct{}{})
}

// StopController stops the server's background tick loop.
func (c *ServerClient) StopController() (ControllerStatus, error) {
	return fetch[ControllerStatus](c, http.MethodPost, "/controller/stop", struct{}{})
}

// TickController runs one controller tick synchronously.
func (c *ServerClient) TickController() (ControllerStatus, error) {
	return fetch[ControllerStatus](c, http.MethodPost, "/controller/tick", struct{}{})
}

// FetchControllerStatus returns the controller runtime status.
func (c *ServerClient) FetchControllerStatus() (ControllerStatus, error) {
	return get[ControllerStatus](c, "/controller")
}

// FetchHealth returns the server's liveness summary.
func (c *ServerClient) FetchHealth() (Health, error) {
	return get[Health](c, "/healthz")
}

// FetchMetrics returns the server's /metrics endpoint verbatim:
// Prometheus text exposition format 0.0.4.
func (c *ServerClient) FetchMetrics() (string, error) {
	return c.text("/metrics")
}

// FetchEvents returns the server's most recent structured events,
// oldest first; limit <= 0 fetches the whole retained window.
func (c *ServerClient) FetchEvents(limit int) ([]Event, error) {
	resp, err := get[api.EventsResponse](c, "/debug/events"+query("n", count(limit)))
	return resp.Events, err
}

// FetchEventsSince returns the retained events with Seq > since,
// oldest first, capped at limit (<= 0 uncapped) — the cursor read a
// poller advances with: pass the last event's Seq back as since and
// only newer events come back.
func (c *ServerClient) FetchEventsSince(since uint64, limit int) ([]Event, error) {
	resp, err := get[api.EventsResponse](c, "/debug/events"+query(
		"since", strconv.FormatUint(since, 10), "n", count(limit)))
	return resp.Events, err
}

// FetchTraces returns the server's retained traces, newest first.
// limit <= 0 fetches every retained trace; minMs keeps only traces at
// least that many milliseconds long; op keeps only traces containing a
// span with that exact name ("" keeps all).
func (c *ServerClient) FetchTraces(limit int, minMs float64, op string) ([]Trace, error) {
	resp, err := get[api.TracesResponse](c, "/debug/traces"+query(
		"n", count(limit), "min_ms", positive(minMs), "op", op))
	return resp.Traces, err
}

// FetchSLOs evaluates the server's SLO rules now and returns the
// per-rule multi-window burn-rate statuses (GET /debug/slo).
func (c *ServerClient) FetchSLOs() ([]SLOStatus, error) {
	resp, err := get[api.SLOResponse](c, "/debug/slo")
	return resp.SLOs, err
}

// RemoveJob unregisters a job: the server settles its final span,
// removes it from the fleet and controller, and deletes its per-job
// metric series (fleet-wide ledger totals are retained).
func (c *ServerClient) RemoveJob(jobID string) error {
	return c.send(http.MethodDelete, "/jobs/"+jobID, nil)
}

// FetchLedger returns the energy-bloat ledger. jobID "" fetches every
// job; n caps the per-job entries returned, newest retained (<= 0
// returns the whole retained ring).
func (c *ServerClient) FetchLedger(jobID string, n int) (Ledger, error) {
	return get[Ledger](c, "/debug/ledger"+query("job", jobID, "n", count(n)))
}

// FetchLedgerCSV returns the ledger rendered as CSV (one row per
// retained entry; see the server's ledgerCSVHeader for the schema).
func (c *ServerClient) FetchLedgerCSV(jobID string, n int) (string, error) {
	return c.text("/debug/ledger" + query("job", jobID, "n", count(n), "format", "csv"))
}
