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
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"perseus/internal/forecast"
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

// newRequest builds a request against the server, attaching the
// client's traceparent when one is set.
func (c *ServerClient) newRequest(method, path string, body *bytes.Reader) (*http.Request, error) {
	var r io.Reader
	if body != nil {
		r = body
	}
	req, err := http.NewRequest(method, c.BaseURL+path, r)
	if err != nil {
		return nil, err
	}
	if c.Traceparent != "" {
		req.Header.Set("Traceparent", c.Traceparent)
	}
	return req, nil
}

// statusError turns a non-2xx response into an error carrying the
// server's message. It reads the body (the first 4 kB of it), which is
// also what lets net/http keep the connection: a response closed with
// its body unread takes the connection down with it.
func statusError(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	return fmt.Errorf("client: %s %s: %s: %s", resp.Request.Method, resp.Request.URL.RequestURI(), resp.Status, bytes.TrimSpace(msg))
}

func (c *ServerClient) post(path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := c.newRequest(http.MethodPost, path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return statusError(resp)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

func (c *ServerClient) get(path string, out any) error {
	req, err := c.newRequest(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return statusError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *ServerClient) del(path string) error {
	req, err := c.newRequest(http.MethodDelete, path, nil)
	if err != nil {
		return err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return statusError(resp)
	}
	return nil
}

// RegisterJob registers the training job with the server.
func (c *ServerClient) RegisterJob(req JobRequest) (string, error) {
	var resp struct {
		JobID string `json:"job_id"`
	}
	if err := c.post("/jobs", req, &resp); err != nil {
		return "", err
	}
	return resp.JobID, nil
}

// JobRequest mirrors the server's registration payload.
type JobRequest struct {
	Schedule     string  `json:"schedule"`
	Stages       int     `json:"stages"`
	Microbatches int     `json:"microbatches"`
	Chunks       int     `json:"chunks,omitempty"`
	GPU          string  `json:"gpu"`
	Unit         float64 `json:"unit,omitempty"`
	DataParallel int     `json:"data_parallel,omitempty"`
	Weight       float64 `json:"weight,omitempty"`
}

// UploadProfile sends profiling results.
func (c *ServerClient) UploadProfile(jobID string, pBlocking float64, ms []profile.Measurement) error {
	type measurementJSON struct {
		Virtual int     `json:"virtual"`
		Kind    string  `json:"kind"`
		Freq    int     `json:"freq_mhz"`
		Time    float64 `json:"time_s"`
		Energy  float64 `json:"energy_j"`
	}
	payload := struct {
		PBlocking    float64           `json:"p_blocking_w"`
		Measurements []measurementJSON `json:"measurements"`
	}{PBlocking: pBlocking}
	for _, m := range ms {
		kind := "forward"
		if m.Kind == sched.Backward {
			kind = "backward"
		}
		payload.Measurements = append(payload.Measurements, measurementJSON{
			Virtual: m.Virtual, Kind: kind, Freq: int(m.Freq), Time: m.Time, Energy: m.Energy,
		})
	}
	return c.post("/jobs/"+jobID+"/profile", payload, nil)
}

// Schedule is the deployed energy schedule.
type Schedule struct {
	Ready   bool    `json:"ready"`
	Time    float64 `json:"time_s"`
	Tmin    float64 `json:"tmin_s"`
	TStar   float64 `json:"tstar_s"`
	Freqs   []int   `json:"freqs_mhz"`
	Version int     `json:"version"`
}

// FetchSchedule returns the currently deployed schedule.
func (c *ServerClient) FetchSchedule(jobID string) (Schedule, error) {
	var s Schedule
	err := c.get("/jobs/"+jobID+"/schedule", &s)
	return s, err
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
	payload := struct {
		ID     string  `json:"id"`
		Delay  float64 `json:"delay_s"`
		Degree float64 `json:"degree"`
	}{accelID, delay, degree}
	return c.post("/jobs/"+jobID+"/straggler", payload, nil)
}

// JobAllocation mirrors the server's per-job fleet allocation.
type JobAllocation struct {
	JobID     string  `json:"job_id"`
	Ready     bool    `json:"ready"`
	Time      float64 `json:"time_s"`
	PowerW    float64 `json:"power_w"`
	FloorTime float64 `json:"floor_s"`
	Loss      float64 `json:"loss"`
}

// FleetStatus mirrors the server's fleet-wide allocation view.
type FleetStatus struct {
	CapW     float64         `json:"cap_w"`
	PowerW   float64         `json:"power_w"`
	Loss     float64         `json:"loss"`
	Feasible bool            `json:"feasible"`
	Jobs     []JobAllocation `json:"jobs"`
}

// SetFleetCap sets the facility power cap across every job the server
// manages (0 uncaps) and returns the resulting allocation.
func (c *ServerClient) SetFleetCap(capW float64) (FleetStatus, error) {
	payload := struct {
		CapW float64 `json:"cap_w"`
	}{capW}
	var st FleetStatus
	err := c.post("/fleet/cap", payload, &st)
	return st, err
}

// FetchFleetStatus returns the fleet-wide allocation under the current
// cap.
func (c *ServerClient) FetchFleetStatus() (FleetStatus, error) {
	var st FleetStatus
	err := c.get("/fleet/status", &st)
	return st, err
}

// FetchAllocation returns one job's fleet allocation.
func (c *ServerClient) FetchAllocation(jobID string) (JobAllocation, error) {
	var ja JobAllocation
	err := c.get("/jobs/"+jobID+"/allocation", &ja)
	return ja, err
}

// GridSignalAck mirrors the server's signal-installation summary.
type GridSignalAck struct {
	Name      string  `json:"name"`
	Intervals int     `json:"intervals"`
	HorizonS  float64 `json:"horizon_s"`
	Objective string  `json:"objective"`
}

// UploadGridSignal installs a grid trace (carbon intensity, price, and
// facility caps over time) on the server, with an optional default
// planning objective ("" keeps carbon).
func (c *ServerClient) UploadGridSignal(sig grid.Signal, objective string) (GridSignalAck, error) {
	payload := struct {
		Signal    grid.Signal `json:"signal"`
		Objective string      `json:"objective,omitempty"`
	}{sig, objective}
	var ack GridSignalAck
	err := c.post("/grid/signal", payload, &ack)
	return ack, err
}

// FetchGridSignal returns the installed grid trace.
func (c *ServerClient) FetchGridSignal() (grid.Signal, error) {
	var sig grid.Signal
	err := c.get("/grid/signal", &sig)
	return sig, err
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
	q := url.Values{}
	// Query-encode the floats: fmt's %v renders 1e12 as "1e+12", whose
	// bare '+' would decode server-side as a space.
	q.Set("iterations", strconv.FormatFloat(iterations, 'g', -1, 64))
	q.Set("deadline", strconv.FormatFloat(deadline, 'g', -1, 64))
	if objective != "" {
		q.Set("objective", objective)
	}
	if wait > 0 {
		q.Set("wait", strconv.FormatFloat(wait.Seconds(), 'g', -1, 64))
	}
	req, err := c.newRequest(http.MethodGet, "/grid/plan/"+jobID+"?"+q.Encode(), nil)
	if err != nil {
		return grid.Plan{}, "", false, err
	}
	if haveETag != "" {
		req.Header.Set("If-None-Match", haveETag)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return grid.Plan{}, "", false, err
	}
	defer resp.Body.Close()
	etag = resp.Header.Get("ETag")
	if resp.StatusCode == http.StatusNotModified {
		return grid.Plan{}, etag, false, nil
	}
	if resp.StatusCode >= 300 {
		return grid.Plan{}, "", false, statusError(resp)
	}
	// A day-long plan is a ~69 kB body and DecodePlan keeps none of it,
	// so the read buffer is reused from fetch to fetch.
	body := planBodies.Get().(*bytes.Buffer)
	defer planBodies.Put(body)
	body.Reset()
	if _, err := body.ReadFrom(resp.Body); err != nil {
		return grid.Plan{}, "", false, err
	}
	p, err = grid.DecodePlan(body.Bytes())
	return p, etag, err == nil, err
}

// planBodies holds FetchGridPlanIfChanged's read buffers.
var planBodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// RegionInfo mirrors the server's registered-region summary.
type RegionInfo struct {
	Name      string  `json:"name"`
	GPUs      int     `json:"gpus"`
	CapW      float64 `json:"cap_w"`
	Intervals int     `json:"intervals"`
	HorizonS  float64 `json:"horizon_s"`
}

// RegisterRegion registers a datacenter region — GPU capacity, facility
// power cap, and its own grid signal — with the server.
func (c *ServerClient) RegisterRegion(name string, gpus int, capW float64, sig grid.Signal) (RegionInfo, error) {
	payload := struct {
		Name   string      `json:"name"`
		GPUs   int         `json:"gpus,omitempty"`
		CapW   float64     `json:"cap_w,omitempty"`
		Signal grid.Signal `json:"signal"`
	}{name, gpus, capW, sig}
	var info RegionInfo
	err := c.post("/regions", payload, &info)
	return info, err
}

// FetchRegions lists the registered regions.
func (c *ServerClient) FetchRegions() ([]RegionInfo, error) {
	var out []RegionInfo
	err := c.get("/regions", &out)
	return out, err
}

// PlacementEntry mirrors one step of a job's placement history.
type PlacementEntry struct {
	Region  string  `json:"region"`
	AtUnixS float64 `json:"at_unix_s"`
}

// Placement mirrors the server's per-job placement view.
type Placement struct {
	JobID      string           `json:"job_id"`
	Region     string           `json:"region"`
	Migrations int              `json:"migrations"`
	History    []PlacementEntry `json:"history,omitempty"`
}

// PlaceJob places (or migrates) a job into a registered region; the
// server settles emissions at the old placement's rates first.
func (c *ServerClient) PlaceJob(jobID, regionName string) (Placement, error) {
	payload := struct {
		Region string `json:"region"`
	}{regionName}
	var p Placement
	err := c.post("/jobs/"+jobID+"/placement", payload, &p)
	return p, err
}

// PlaceJobMigrating is PlaceJob with an explicit migration energy
// overhead in joules (checkpoint, transfer, restart), charged at the
// destination's instantaneous rates into the job's emissions account
// and booked as migration overhead in the bloat ledger.
func (c *ServerClient) PlaceJobMigrating(jobID, regionName string, migrationJ float64) (Placement, error) {
	payload := struct {
		Region     string  `json:"region"`
		MigrationJ float64 `json:"migration_j,omitempty"`
	}{regionName, migrationJ}
	var p Placement
	err := c.post("/jobs/"+jobID+"/placement", payload, &p)
	return p, err
}

// FetchPlacement returns a job's current placement and history.
func (c *ServerClient) FetchPlacement(jobID string) (Placement, error) {
	var p Placement
	err := c.get("/jobs/"+jobID+"/placement", &p)
	return p, err
}

// FetchRegionsPlan plans every characterized job's spatio-temporal
// schedule across the registered regions: target iterations per job by
// the deadline (0 = longest region trace), minimizing the objective
// ("" = server default), with migration modeled as the given
// downtime + transfer energy. The decoded plan mirrors region.Plan.
func (c *ServerClient) FetchRegionsPlan(iterations, deadline float64, objective string, downtimeS, migrationJ float64) (region.Plan, error) {
	q := url.Values{}
	q.Set("iterations", strconv.FormatFloat(iterations, 'g', -1, 64))
	q.Set("deadline", strconv.FormatFloat(deadline, 'g', -1, 64))
	q.Set("downtime", strconv.FormatFloat(downtimeS, 'g', -1, 64))
	q.Set("migration_j", strconv.FormatFloat(migrationJ, 'g', -1, 64))
	if objective != "" {
		q.Set("objective", objective)
	}
	var plan region.Plan
	err := c.get("/regions/plan?"+q.Encode(), &plan)
	return plan, err
}

// Emissions mirrors the server's per-job cumulative emissions account,
// including the forecast-predicted accrual and its drift from the
// realized one.
type Emissions struct {
	JobID        string  `json:"job_id"`
	Ready        bool    `json:"ready"`
	SinceS       float64 `json:"since_s"`
	EnergyJ      float64 `json:"energy_j"`
	CarbonG      float64 `json:"carbon_g"`
	CostUSD      float64 `json:"cost_usd"`
	PredCarbonG  float64 `json:"pred_carbon_g"`
	PredCostUSD  float64 `json:"pred_cost_usd"`
	DriftCarbonG float64 `json:"drift_carbon_g"`
}

// FetchEmissions returns a job's cumulative emissions accounting.
func (c *ServerClient) FetchEmissions(jobID string) (Emissions, error) {
	var e Emissions
	err := c.get("/jobs/"+jobID+"/emissions", &e)
	return e, err
}

// ForecastAck mirrors the server's issued-forecast summary. The
// embedded Forecast carries the point-forecast signal plus carbon and
// price uncertainty bands.
type ForecastAck struct {
	Model     string             `json:"model"`
	Level     float64            `json:"level"`
	Quantile  float64            `json:"quantile"`
	IssuedS   float64            `json:"issued_s"`
	HorizonS  float64            `json:"horizon_s"`
	Intervals int                `json:"intervals"`
	Forecast  *forecast.Forecast `json:"forecast"`
}

// InstallForecast installs a forecast model (persistence, seasonal, or
// smoothed) over the installed grid signal and returns the forecast
// issued from the history revealed so far. level is the uncertainty-
// band quantile (0 = 0.9); quantile is the default robust planning
// quantile re-plans use (0 = plan on the point forecast); horizonS
// extends coverage (0 = one signal cycle beyond now).
func (c *ServerClient) InstallForecast(model string, level, quantile, horizonS float64) (ForecastAck, error) {
	payload := struct {
		Model    string  `json:"model"`
		Level    float64 `json:"level,omitempty"`
		Quantile float64 `json:"quantile,omitempty"`
		HorizonS float64 `json:"horizon_s,omitempty"`
	}{model, level, quantile, horizonS}
	var ack ForecastAck
	err := c.post("/grid/forecast", payload, &ack)
	return ack, err
}

// InstallRevisionsForecast installs the seeded noisy-revision issuer
// over the installed grid signal: every issue (install, replan,
// controller tick) sees the signal's future multiplied by seeded
// lognormal innovations that drain as boundaries pass — the external
// forecast feed the MPC experiments replay. sigma 0 uses the provider
// default; horizonS extends coverage like InstallForecast.
func (c *ServerClient) InstallRevisionsForecast(seed int64, sigma, level, quantile, horizonS float64) (ForecastAck, error) {
	payload := struct {
		Model    string  `json:"model"`
		Level    float64 `json:"level,omitempty"`
		Quantile float64 `json:"quantile,omitempty"`
		HorizonS float64 `json:"horizon_s,omitempty"`
		Seed     int64   `json:"seed,omitempty"`
		Sigma    float64 `json:"sigma,omitempty"`
	}{"revisions", level, quantile, horizonS, seed, sigma}
	var ack ForecastAck
	err := c.post("/grid/forecast", payload, &ack)
	return ack, err
}

// FetchForecast returns the latest issued forecast.
func (c *ServerClient) FetchForecast() (ForecastAck, error) {
	var ack ForecastAck
	err := c.get("/grid/forecast", &ack)
	return ack, err
}

// ReplanInterval is one frozen span of a rolling-horizon schedule:
// the controller's own executed-interval record, so the wire shape
// cannot drift from what the server's stepper writes.
type ReplanInterval = forecast.ExecutedInterval

// Replan mirrors the server's rolling-horizon schedule state: the
// frozen executed prefix plus the freshly re-planned remainder.
type Replan struct {
	JobID               string           `json:"job_id"`
	Target              float64          `json:"target_iterations"`
	DeadlineS           float64          `json:"deadline_s"`
	Objective           string           `json:"objective"`
	Quantile            float64          `json:"quantile"`
	Plans               int              `json:"plans"`
	DoneIterations      float64          `json:"done_iterations"`
	RemainingIterations float64          `json:"remaining_iterations"`
	Feasible            bool             `json:"feasible"`
	Frozen              []ReplanInterval `json:"frozen,omitempty"`
	EnergyJ             float64          `json:"energy_j"`
	CarbonG             float64          `json:"carbon_g"`
	CostUSD             float64          `json:"cost_usd"`
	PredCarbonG         float64          `json:"pred_carbon_g"`
	PredCostUSD         float64          `json:"pred_cost_usd"`
	Remaining           *grid.Plan       `json:"remaining,omitempty"`
	RemainingOffsetS    float64          `json:"remaining_offset_s"`
}

// FetchReplan rolls the job's forecast-driven schedule forward on the
// server: freeze what has executed since the last call, re-plan the
// remainder against a freshly issued forecast. deadline 0 means the
// forecast horizon; quantile 0 uses the installed default, values
// above 0.5 plan against the pessimistic band.
func (c *ServerClient) FetchReplan(jobID string, iterations, deadline float64, objective string, quantile float64) (Replan, error) {
	q := url.Values{}
	q.Set("iterations", strconv.FormatFloat(iterations, 'g', -1, 64))
	q.Set("deadline", strconv.FormatFloat(deadline, 'g', -1, 64))
	if objective != "" {
		q.Set("objective", objective)
	}
	if quantile != 0 {
		q.Set("quantile", strconv.FormatFloat(quantile, 'g', -1, 64))
	}
	var resp Replan
	err := c.get("/grid/replan/"+jobID+"?"+q.Encode(), &resp)
	return resp, err
}

// FetchScheduleIfChanged fetches the deployed schedule only if its
// version moved past haveVersion, long-polling up to wait: the request
// carries If-None-Match with the version's entity tag, and the server
// blocks until a version bump or the wait expires. changed is false
// (with a zero Schedule) on 304 Not Modified — the trainer keeps its
// current schedule. This is how a trainer observes the background
// controller's re-plans without ever calling /grid/replan.
func (c *ServerClient) FetchScheduleIfChanged(jobID string, haveVersion int, wait time.Duration) (s Schedule, changed bool, err error) {
	path := "/jobs/" + jobID + "/schedule"
	if wait > 0 {
		path += "?wait=" + strconv.FormatFloat(wait.Seconds(), 'g', -1, 64)
	}
	req, err := c.newRequest(http.MethodGet, path, nil)
	if err != nil {
		return Schedule{}, false, err
	}
	req.Header.Set("If-None-Match", fmt.Sprintf("%q", "v"+strconv.Itoa(haveVersion)))
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return Schedule{}, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		return Schedule{}, false, nil
	}
	if resp.StatusCode >= 300 {
		return Schedule{}, false, statusError(resp)
	}
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s, err == nil, err
}

// Rollout mirrors the server's read-only rolling-schedule view: the
// replan state plus the job's schedule version and whether the
// background controller manages it.
type Rollout struct {
	Replan
	Version int  `json:"version"`
	Managed bool `json:"managed"`
}

// FetchRollout returns the job's rolling-horizon schedule state
// without triggering a re-plan.
func (c *ServerClient) FetchRollout(jobID string) (Rollout, error) {
	var r Rollout
	err := c.get("/jobs/"+jobID+"/rollout", &r)
	return r, err
}

// ControllerJobStatus mirrors one managed job's controller view.
type ControllerJobStatus struct {
	JobID               string  `json:"job_id"`
	Version             int     `json:"version"`
	Plans               int     `json:"plans"`
	DoneIterations      float64 `json:"done_iterations"`
	RemainingIterations float64 `json:"remaining_iterations"`
	Feasible            bool    `json:"feasible"`
	LastError           string  `json:"last_error,omitempty"`
	LastReplanUnixS     float64 `json:"last_replan_unix_s,omitempty"`
}

// CacheStats mirrors the server's plan-cache counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// ControllerStatus mirrors the server's controller runtime status.
// NextBoundaryS counts down, in seconds from now, to the next
// signal-interval boundary the loop would tick at (-1 = no signal).
type ControllerStatus struct {
	Running       bool                  `json:"running"`
	Ticks         int                   `json:"ticks"`
	LastTickUnixS float64               `json:"last_tick_unix_s,omitempty"`
	LastTickError string                `json:"last_tick_error,omitempty"`
	NextBoundaryS float64               `json:"next_boundary_s"`
	Jobs          []ControllerJobStatus `json:"jobs"`
	Cache         CacheStats            `json:"cache"`
}

// ManageJob puts the job's rolling-horizon schedule under the server
// controller's management: the schedule is planned immediately and
// re-planned at every subsequent controller tick, with version bumps
// observable through FetchScheduleIfChanged.
func (c *ServerClient) ManageJob(jobID string, iterations, deadline float64, objective string, quantile float64) (Replan, error) {
	payload := struct {
		JobID     string  `json:"job_id"`
		Target    float64 `json:"iterations"`
		DeadlineS float64 `json:"deadline_s,omitempty"`
		Objective string  `json:"objective,omitempty"`
		Quantile  float64 `json:"quantile,omitempty"`
	}{jobID, iterations, deadline, objective, quantile}
	var resp Replan
	err := c.post("/controller/jobs", payload, &resp)
	return resp, err
}

// StartController starts the server's background tick loop.
func (c *ServerClient) StartController() (ControllerStatus, error) {
	var st ControllerStatus
	err := c.post("/controller/start", struct{}{}, &st)
	return st, err
}

// StopController stops the server's background tick loop.
func (c *ServerClient) StopController() (ControllerStatus, error) {
	var st ControllerStatus
	err := c.post("/controller/stop", struct{}{}, &st)
	return st, err
}

// TickController runs one controller tick synchronously.
func (c *ServerClient) TickController() (ControllerStatus, error) {
	var st ControllerStatus
	err := c.post("/controller/tick", struct{}{}, &st)
	return st, err
}

// FetchControllerStatus returns the controller runtime status.
func (c *ServerClient) FetchControllerStatus() (ControllerStatus, error) {
	var st ControllerStatus
	err := c.get("/controller", &st)
	return st, err
}

// SLOStatus mirrors one SLO rule's multi-window burn-rate status
// (GET /debug/slo and the healthz slos list).
type SLOStatus struct {
	Name         string  `json:"name"`
	Objective    string  `json:"objective,omitempty"`
	Status       string  `json:"status"`
	Value        float64 `json:"value"`
	ShortValue   float64 `json:"short_value"`
	Threshold    float64 `json:"threshold"`
	BurnRate     float64 `json:"burn_rate"`
	WorstTraceID string  `json:"worst_trace_id,omitempty"`
	SinceUnixS   float64 `json:"since_unix_s"`
	Detail       string  `json:"detail,omitempty"`
}

// Health mirrors the server's GET /healthz liveness and readiness
// view: Status is the worst per-SLO level (ok, warn, breach) and
// Ready is false while any SLO is in breach.
type Health struct {
	Status            string      `json:"status"`
	Ready             bool        `json:"ready"`
	UptimeS           float64     `json:"uptime_s"`
	Jobs              int         `json:"jobs"`
	Regions           int         `json:"regions"`
	SignalInstalled   bool        `json:"signal_installed"`
	ForecastInstalled bool        `json:"forecast_installed"`
	ControllerRunning bool        `json:"controller_running"`
	SLOs              []SLOStatus `json:"slos"`
}

// FetchHealth returns the server's liveness summary.
func (c *ServerClient) FetchHealth() (Health, error) {
	var h Health
	err := c.get("/healthz", &h)
	return h, err
}

// FetchMetrics returns the server's /metrics endpoint verbatim:
// Prometheus text exposition format 0.0.4.
func (c *ServerClient) FetchMetrics() (string, error) {
	req, err := c.newRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return "", statusError(resp)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// Event mirrors one structured event from the server's bounded event
// ring (GET /debug/events).
type Event struct {
	Seq     uint64            `json:"seq"`
	AtUnixS float64           `json:"at_unix_s"`
	Name    string            `json:"name"`
	DurS    float64           `json:"dur_s"`
	Labels  map[string]string `json:"labels,omitempty"`
}

// FetchEvents returns the server's most recent structured events,
// oldest first; limit <= 0 fetches the whole retained window.
func (c *ServerClient) FetchEvents(limit int) ([]Event, error) {
	path := "/debug/events"
	if limit > 0 {
		path += "?n=" + strconv.Itoa(limit)
	}
	var resp struct {
		Events []Event `json:"events"`
	}
	if err := c.get(path, &resp); err != nil {
		return nil, err
	}
	return resp.Events, nil
}

// FetchEventsSince returns the retained events with Seq > since,
// oldest first, capped at limit (<= 0 uncapped) — the cursor read a
// poller advances with: pass the last event's Seq back as since and
// only newer events come back.
func (c *ServerClient) FetchEventsSince(since uint64, limit int) ([]Event, error) {
	q := url.Values{}
	q.Set("since", strconv.FormatUint(since, 10))
	if limit > 0 {
		q.Set("n", strconv.Itoa(limit))
	}
	var resp struct {
		Events []Event `json:"events"`
	}
	if err := c.get("/debug/events?"+q.Encode(), &resp); err != nil {
		return nil, err
	}
	return resp.Events, nil
}

// Span mirrors one finished span of a server-side trace.
type Span struct {
	TraceID    string            `json:"trace_id"`
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_id,omitempty"`
	Name       string            `json:"name"`
	StartUnixS float64           `json:"start_unix_s"`
	DurS       float64           `json:"dur_s"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Error      string            `json:"error,omitempty"`
}

// Trace mirrors one assembled span tree from GET /debug/traces.
type Trace struct {
	TraceID    string  `json:"trace_id"`
	Root       string  `json:"root,omitempty"`
	StartUnixS float64 `json:"start_unix_s"`
	DurS       float64 `json:"dur_s"`
	Err        bool    `json:"err,omitempty"`
	Spans      []Span  `json:"spans"`
}

// FetchTraces returns the server's retained traces, newest first.
// limit <= 0 fetches every retained trace; minMs keeps only traces at
// least that many milliseconds long; op keeps only traces containing a
// span with that exact name ("" keeps all).
func (c *ServerClient) FetchTraces(limit int, minMs float64, op string) ([]Trace, error) {
	q := url.Values{}
	if limit > 0 {
		q.Set("n", strconv.Itoa(limit))
	}
	if minMs > 0 {
		q.Set("min_ms", strconv.FormatFloat(minMs, 'g', -1, 64))
	}
	if op != "" {
		q.Set("op", op)
	}
	path := "/debug/traces"
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	var resp struct {
		Traces []Trace `json:"traces"`
	}
	if err := c.get(path, &resp); err != nil {
		return nil, err
	}
	return resp.Traces, nil
}

// FetchSLOs evaluates the server's SLO rules now and returns the
// per-rule multi-window burn-rate statuses (GET /debug/slo).
func (c *ServerClient) FetchSLOs() ([]SLOStatus, error) {
	var resp struct {
		SLOs []SLOStatus `json:"slos"`
	}
	if err := c.get("/debug/slo", &resp); err != nil {
		return nil, err
	}
	return resp.SLOs, nil
}

// RemoveJob unregisters a job: the server settles its final span,
// removes it from the fleet and controller, and deletes its per-job
// metric series (fleet-wide ledger totals are retained).
func (c *ServerClient) RemoveJob(jobID string) error {
	return c.del("/jobs/" + jobID)
}

// LedgerSpan mirrors one energy-bloat decomposition (plan.BloatSpan):
// realized energy/carbon/cost split into the frontier-optimal floor,
// migration overhead, and residual bloat, plus the intrinsic-bloat,
// temporal-shifting, and forecast-drift attributions.
type LedgerSpan struct {
	EnergyJ        float64 `json:"energy_j"`
	CarbonG        float64 `json:"carbon_g"`
	CostUSD        float64 `json:"cost_usd"`
	Iterations     float64 `json:"iterations"`
	FloorJ         float64 `json:"floor_j"`
	MigrationJ     float64 `json:"migration_j"`
	ResidualJ      float64 `json:"residual_j"`
	TminJ          float64 `json:"tmin_j"`
	RemovedJ       float64 `json:"removed_j"`
	FloorC         float64 `json:"floor_c"`
	MigrationC     float64 `json:"migration_c"`
	ResidualC      float64 `json:"residual_c"`
	BlindC         float64 `json:"blind_c"`
	TemporalSavedC float64 `json:"temporal_saved_c"`
	PredC          float64 `json:"pred_c"`
	PredRealC      float64 `json:"pred_real_c"`
	DriftC         float64 `json:"drift_c"`
}

// LedgerEntry mirrors one settled ledger interval ("span") or
// migration charge ("migration").
type LedgerEntry struct {
	StartUnixS float64 `json:"start_unix_s"`
	EndUnixS   float64 `json:"end_unix_s"`
	Kind       string  `json:"kind"`
	LedgerSpan
}

// LedgerTotals mirrors cumulative ledger totals: every settled entry
// accumulated since registration (Entries counts them; Dropped counts
// entries evicted from the bounded per-job ring, still in the totals).
type LedgerTotals struct {
	Entries int `json:"entries"`
	Dropped int `json:"dropped"`
	LedgerSpan
	AbsDriftC float64 `json:"abs_drift_c"`
}

// JobLedger mirrors one job's ledger view: cumulative totals plus the
// retained tail of per-interval entries, oldest first.
type JobLedger struct {
	JobID   string        `json:"job_id"`
	Totals  LedgerTotals  `json:"totals"`
	Entries []LedgerEntry `json:"entries"`
}

// Ledger mirrors GET /debug/ledger: the fleet-wide rollup plus per-job
// views in registration order.
type Ledger struct {
	Fleet LedgerTotals `json:"fleet"`
	Jobs  []JobLedger  `json:"jobs"`
}

// FetchLedger returns the energy-bloat ledger. jobID "" fetches every
// job; n caps the per-job entries returned, newest retained (<= 0
// returns the whole retained ring).
func (c *ServerClient) FetchLedger(jobID string, n int) (Ledger, error) {
	var led Ledger
	err := c.get("/debug/ledger"+ledgerQuery(jobID, n, ""), &led)
	return led, err
}

// FetchLedgerCSV returns the ledger rendered as CSV (one row per
// retained entry; see the server's ledgerCSVHeader for the schema).
func (c *ServerClient) FetchLedgerCSV(jobID string, n int) (string, error) {
	path := "/debug/ledger" + ledgerQuery(jobID, n, "csv")
	req, err := c.newRequest(http.MethodGet, path, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return "", statusError(resp)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return "", err
	}
	return buf.String(), nil
}

func ledgerQuery(jobID string, n int, format string) string {
	q := url.Values{}
	if jobID != "" {
		q.Set("job", jobID)
	}
	if n > 0 {
		q.Set("n", strconv.Itoa(n))
	}
	if format != "" {
		q.Set("format", format)
	}
	if enc := q.Encode(); enc != "" {
		return "?" + enc
	}
	return ""
}
