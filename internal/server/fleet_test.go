package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"perseus/internal/gpu"
	"perseus/internal/grid"
)

// registerCharacterized registers and characterizes a job, returning
// its id.
func registerCharacterized(t *testing.T, srv *Server, req JobRequest, mbSize int) string {
	t.Helper()
	id, err := srv.Register(req)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gpu.ByName(req.GPU)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.UploadProfile(id, buildUpload(t, g, req.Stages, mbSize)); err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitCharacterized(id); err != nil {
		t.Fatal(err)
	}
	return id
}

func TestFleetCapConstrainsSchedules(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ids := []string{
		registerCharacterized(t, srv, JobRequest{Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3}, 4),
		registerCharacterized(t, srv, JobRequest{Schedule: "1f1b", Stages: 2, Microbatches: 3, GPU: "A100-PCIe", Unit: 5e-3, DataParallel: 2}, 4),
	}

	// Uncapped: every job deploys its Tmin schedule and the status
	// reports zero loss.
	var st FleetStatusResponse
	get(t, ts.URL+"/fleet/status", &st)
	if st.CapW != 0 || !st.Feasible || st.Loss != 0 {
		t.Fatalf("uncapped status %+v", st)
	}
	if len(st.Jobs) != 2 || !st.Jobs[0].Ready || !st.Jobs[1].Ready {
		t.Fatalf("status jobs %+v", st.Jobs)
	}
	uncapped := st.PowerW
	before, err := srv.Schedule(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if before.Time > before.Tmin+1e-9 {
		t.Fatalf("uncapped deployed time %v above Tmin %v", before.Time, before.Tmin)
	}

	// A cap at 92% forces at least one job off Tmin, and its deployed
	// schedule honors the allocated floor.
	resp := postJSON(t, ts.URL+"/fleet/cap", FleetCapRequest{CapW: 0.92 * uncapped})
	var capped FleetStatusResponse
	decode(t, resp, &capped)
	if !capped.Feasible || capped.PowerW > 0.92*uncapped+1e-9 {
		t.Fatalf("capped status %+v", capped)
	}
	if capped.Loss <= 0 {
		t.Fatal("a 92% cap should cost some throughput")
	}
	slowed := false
	for i, id := range ids {
		sr, err := srv.Schedule(id)
		if err != nil {
			t.Fatal(err)
		}
		if sr.Time < capped.Jobs[i].Time-1e-9 {
			t.Fatalf("job %s deploys %v, faster than its allocation %v", id, sr.Time, capped.Jobs[i].Time)
		}
		if sr.Time > sr.Tmin+1e-9 {
			slowed = true
		}
		var ja JobAllocationResponse
		get(t, ts.URL+"/jobs/"+id+"/allocation", &ja)
		if !ja.Ready || ja.Time != capped.Jobs[i].Time {
			t.Fatalf("allocation endpoint %+v != status %+v", ja, capped.Jobs[i])
		}
	}
	if !slowed {
		t.Fatal("cap constrained no schedule")
	}

	// A straggler on job 0 raises its free floor; the freed power must
	// not increase fleet loss.
	if err := srv.SetStraggler(ids[0], StragglerNotice{ID: "x", Degree: 1.2}); err != nil {
		t.Fatal(err)
	}
	get(t, ts.URL+"/fleet/status", &st)
	if st.Loss > capped.Loss+1e-9 {
		t.Fatalf("straggler raised fleet loss: %v -> %v", capped.Loss, st.Loss)
	}
	if st.Jobs[0].FloorTime <= capped.Jobs[0].FloorTime {
		t.Fatalf("straggler floor %v not above %v", st.Jobs[0].FloorTime, capped.Jobs[0].FloorTime)
	}

	// Uncapping restores Tmin deployment.
	resp = postJSON(t, ts.URL+"/fleet/cap", FleetCapRequest{CapW: 0})
	decode(t, resp, &st)
	if err := srv.SetStraggler(ids[0], StragglerNotice{ID: "x", Degree: 1}); err != nil {
		t.Fatal(err)
	}
	after, err := srv.Schedule(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if after.Time != before.Time {
		t.Fatalf("after uncap, time %v != original %v", after.Time, before.Time)
	}
}

func TestFleetEndpointErrors(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Wrong methods.
	resp, err := http.Get(ts.URL + "/fleet/cap")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /fleet/cap status %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/fleet/status", struct{}{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /fleet/status status %d", resp.StatusCode)
	}
	// Negative cap.
	resp = postJSON(t, ts.URL+"/fleet/cap", FleetCapRequest{CapW: -10})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative cap status %d", resp.StatusCode)
	}
	// Status with no jobs is an empty, feasible fleet.
	var st FleetStatusResponse
	get(t, ts.URL+"/fleet/status", &st)
	if !st.Feasible || st.PowerW != 0 || len(st.Jobs) != 0 {
		t.Errorf("empty fleet status %+v", st)
	}
	// Allocation of an unknown job.
	resp, err = http.Get(ts.URL + "/jobs/job-9/allocation")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("allocation of unknown job should not be 200")
	}
}

// TestRegisterRejectsMalformedFleetFields checks that registration
// rejects a negative data_parallel and a negative or non-finite weight,
// naming the field (a 400 over HTTP) — a NaN weight used to reach the
// fleet loss and make GET /fleet/status unencodable — and stores 0 as
// 1, so a job registered with zeros plans and allocates as one
// registered with ones.
func TestRegisterRejectsMalformedFleetFields(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	base := JobRequest{Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3}
	bad := func(mut func(*JobRequest)) JobRequest { r := base; mut(&r); return r }
	for field, reqs := range map[string][]JobRequest{
		"weight": {
			bad(func(r *JobRequest) { r.Weight = math.NaN() }),
			bad(func(r *JobRequest) { r.Weight = math.Inf(1) }),
			bad(func(r *JobRequest) { r.Weight = -1 }),
		},
		"data_parallel": {bad(func(r *JobRequest) { r.DataParallel = -2 })},
	} {
		for _, req := range reqs {
			if _, err := srv.Register(req); err == nil || !strings.Contains(err.Error(), field) {
				t.Errorf("Register(weight %v, data_parallel %d) error %v, want one naming %s",
					req.Weight, req.DataParallel, err, field)
			}
			if math.IsNaN(req.Weight) || math.IsInf(req.Weight, 0) {
				continue // JSON cannot carry it
			}
			resp := postJSON(t, ts.URL+"/jobs", req)
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), field) {
				t.Errorf("POST /jobs with bad %s: status %d, body %q", field, resp.StatusCode, body)
			}
		}
	}
	if n := len(srv.FleetStatus().Jobs); n != 0 {
		t.Fatalf("%d rejected jobs registered", n)
	}

	ones := base
	ones.Weight, ones.DataParallel = 1, 1
	zero := registerCharacterized(t, srv, base, 4)
	one := registerCharacterized(t, srv, ones, 4)
	if _, err := srv.SetGridSignal(flatSignal("flat", 14400, 300, 0.1), ""); err != nil {
		t.Fatal(err)
	}
	var plans []*grid.Plan
	for _, id := range []string{zero, one} {
		p, err := srv.GridPlan(id, 100, 0, "")
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	if plans[0].PowerScale != 1 || !reflect.DeepEqual(plans[0], plans[1]) {
		t.Fatalf("zeros planned at power scale %v, ones at %v", plans[0].PowerScale, plans[1].PowerScale)
	}
	st := srv.FleetStatus()
	if st.Jobs[0].PowerW != st.Jobs[1].PowerW || st.Jobs[0].Loss != 0 {
		t.Fatalf("fleet status %+v", st)
	}
}

// TestUncharacterizedJobInFleet checks a registered-but-unprofiled job
// shows up in the fleet status as not ready and draws no planned power.
func TestUncharacterizedJobInFleet(t *testing.T) {
	srv := New()
	id, err := srv.Register(JobRequest{Schedule: "1f1b", Stages: 2, Microbatches: 2, GPU: "A40"})
	if err != nil {
		t.Fatal(err)
	}
	st := srv.FleetStatus()
	if len(st.Jobs) != 1 || st.Jobs[0].Ready || st.Jobs[0].JobID != id {
		t.Fatalf("status %+v", st)
	}
	if st.PowerW != 0 {
		t.Fatalf("unready job draws planned power %v", st.PowerW)
	}
	ja, err := srv.AllocationOf(id)
	if err != nil {
		t.Fatal(err)
	}
	if ja.Ready {
		t.Fatal("uncharacterized job has an allocation")
	}
}

// TestConcurrentJobAndFleetAccess hammers one server from many
// goroutines — profile uploads, schedule lookups, straggler flips, cap
// changes, fleet status — to be run under -race: characterization is
// asynchronous and the fleet recompute walks every job.
func TestConcurrentJobAndFleetAccess(t *testing.T) {
	srv := New()
	const jobs = 3
	ids := make([]string, jobs)
	for i := range ids {
		id, err := srv.Register(JobRequest{
			Schedule: "1f1b", Stages: 2, Microbatches: 2 + i, GPU: "A100-PCIe", Unit: 5e-3,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	up := buildUpload(t, gpu.A100PCIe, 2, 4)

	var wg sync.WaitGroup
	for _, id := range ids {
		// Concurrent uploads: exactly one per job wins, the others are
		// rejected, never racing characterization.
		for k := 0; k < 3; k++ {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				_ = srv.UploadProfile(id, up)
			}(id)
		}
		// Concurrent schedule polls while characterization runs.
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				if _, err := srv.Schedule(id); err != nil {
					t.Errorf("schedule %s: %v", id, err)
					return
				}
			}
		}(id)
		// Concurrent straggler flips (legitimately fail until
		// characterized).
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				_ = srv.SetStraggler(id, StragglerNotice{ID: "x", Degree: 1.1 + float64(k%3)/10})
			}
		}(id)
	}
	// Concurrent cap changes and status reads over the whole fleet.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k := 0; k < 20; k++ {
			if _, err := srv.SetFleetCap(float64(1000 + 100*k)); err != nil {
				t.Errorf("set cap: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for k := 0; k < 20; k++ {
			srv.FleetStatus()
		}
	}()
	wg.Wait()

	for _, id := range ids {
		if err := srv.WaitCharacterized(id); err != nil {
			t.Fatal(err)
		}
		sr, err := srv.Schedule(id)
		if err != nil {
			t.Fatal(err)
		}
		if !sr.Ready {
			t.Fatalf("job %s not ready after the storm", id)
		}
	}
	if _, err := srv.SetFleetCap(0); err != nil {
		t.Fatal(err)
	}
	st := srv.FleetStatus()
	if len(st.Jobs) != jobs || !st.Feasible {
		t.Fatalf("final status %+v", st)
	}
}

func decode(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
