package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"perseus/internal/api"
	"perseus/internal/dag"
	"perseus/internal/frontier"
	"perseus/internal/gpu"
	"perseus/internal/model"
	"perseus/internal/partition"
	"perseus/internal/profile"
	"perseus/internal/sched"
)

// buildUpload produces a realistic profile upload for gpt3-1.3b.
func buildUpload(t *testing.T, g *gpu.Model, stages, mbSize int) ProfileUpload {
	t.Helper()
	return modelUpload(t, "gpt3-1.3b", g, stages, mbSize)
}

// modelUpload produces a realistic profile upload for a workload.
func modelUpload(t *testing.T, name string, g *gpu.Model, stages, mbSize int) ProfileUpload {
	t.Helper()
	m, err := model.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.MinImbalance(m.LayerCosts(), stages)
	if err != nil {
		t.Fatal(err)
	}
	w := profile.Workload{
		Model: m, GPU: g, Stages: stages, Chunks: 1,
		Partition: part.Boundaries, MicrobatchSize: mbSize, TensorParallel: 1,
	}
	refs, err := w.StageRefTimes()
	if err != nil {
		t.Fatal(err)
	}
	up := ProfileUpload{PBlocking: profile.MeasurePBlocking(g)}
	for v, ref := range refs {
		for _, f := range g.Frequencies() {
			up.Measurements = append(up.Measurements,
				MeasurementJSON{Virtual: v, Kind: "forward", Freq: int(f),
					Time: g.Time(ref, f, g.MemBoundFwd), Energy: g.Energy(ref, f, g.MemBoundFwd)},
				MeasurementJSON{Virtual: v, Kind: "backward", Freq: int(f),
					Time: g.Time(2*ref, f, g.MemBoundBwd), Energy: g.Energy(2*ref, f, g.MemBoundBwd)})
		}
	}
	return up
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestEndToEndWorkflow(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// 1. Register the job.
	resp := postJSON(t, ts.URL+"/jobs", JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	})
	var jr JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jr.JobID == "" {
		t.Fatal("empty job id")
	}

	// 2. Before profiling, the schedule is not ready.
	var sr ScheduleResponse
	get(t, ts.URL+"/jobs/"+jr.JobID+"/schedule", &sr)
	if sr.Ready {
		t.Fatal("schedule ready before profiling")
	}

	// 3. Upload the profile; characterization starts asynchronously.
	body, err := buildUpload(t, gpu.A100PCIe, 2, 4).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if code, msg := postProfile(t, ts.URL+"/jobs/"+jr.JobID+"/profile", body); code != http.StatusAccepted {
		t.Fatalf("profile upload status %d %q", code, msg)
	}
	if err := srv.WaitCharacterized(jr.JobID); err != nil {
		t.Fatal(err)
	}

	// 4. The deployed schedule is the Tmin schedule.
	get(t, ts.URL+"/jobs/"+jr.JobID+"/schedule", &sr)
	if !sr.Ready {
		t.Fatal("schedule not ready after characterization")
	}
	if len(sr.Freqs) != 2*4*2 {
		t.Fatalf("plan has %d frequencies, want 16", len(sr.Freqs))
	}
	if sr.Time > sr.Tmin+1e-9 {
		t.Errorf("deployed time %v should be Tmin %v without stragglers", sr.Time, sr.Tmin)
	}
	baseVersion := sr.Version

	// 5. A straggler notification moves the schedule to T_opt.
	r := postJSON(t, ts.URL+"/jobs/"+jr.JobID+"/straggler",
		StragglerNotice{ID: "p1s0", Delay: 0, Degree: 1.2})
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("straggler status %d", r.StatusCode)
	}
	var sr2 ScheduleResponse
	get(t, ts.URL+"/jobs/"+jr.JobID+"/schedule", &sr2)
	if sr2.Version <= baseVersion {
		t.Error("version did not advance after straggler")
	}
	if sr2.Time <= sr.Time {
		t.Errorf("straggler schedule time %v should exceed normal %v", sr2.Time, sr.Time)
	}
	want := 1.2 * sr.Tmin
	if sr2.TStar < want && sr2.Time != 0 && sr2.Time > sr2.TStar+1e-9 {
		t.Errorf("schedule time %v exceeds T* %v", sr2.Time, sr2.TStar)
	}
	if sr2.Time > want+1e-9 && sr2.Time > sr2.TStar+1e-9 {
		t.Errorf("schedule time %v exceeds T_opt=min(T*, %v)", sr2.Time, want)
	}

	// 6. A recovery (degree 1) returns to the Tmin schedule.
	r = postJSON(t, ts.URL+"/jobs/"+jr.JobID+"/straggler",
		StragglerNotice{ID: "p1s0", Degree: 1})
	r.Body.Close()
	var sr3 ScheduleResponse
	get(t, ts.URL+"/jobs/"+jr.JobID+"/schedule", &sr3)
	if sr3.Time != sr.Time {
		t.Errorf("after recovery, time %v != original %v", sr3.Time, sr.Time)
	}

	// 7. The frontier endpoint lists monotone points.
	var fr FrontierResponse
	get(t, ts.URL+"/jobs/"+jr.JobID+"/frontier", &fr)
	if !fr.Ready || len(fr.Time) < 5 {
		t.Fatalf("frontier not ready or too small: %+v", fr.Ready)
	}
	for i := 1; i < len(fr.Time); i++ {
		if fr.Time[i] <= fr.Time[i-1] {
			t.Fatalf("frontier times not increasing at %d", i)
		}
	}
}

func get(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterValidation(t *testing.T) {
	srv := New()
	if _, err := srv.Register(JobRequest{Schedule: "nope", Stages: 2, Microbatches: 2, GPU: "A40"}); err == nil {
		t.Error("unknown schedule should fail")
	}
	if _, err := srv.Register(JobRequest{Schedule: "1f1b", Stages: 2, Microbatches: 2, GPU: "H100"}); err == nil {
		t.Error("unknown GPU should fail")
	}
}

func TestStragglerBeforeCharacterization(t *testing.T) {
	srv := New()
	id, err := srv.Register(JobRequest{Schedule: "1f1b", Stages: 2, Microbatches: 2, GPU: "A40"})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SetStraggler(id, StragglerNotice{Degree: 1.5}); err == nil {
		t.Error("straggler before characterization should fail")
	}
	if err := srv.SetStraggler("job-99", StragglerNotice{Degree: 1.5}); err == nil {
		t.Error("unknown job should fail")
	}
}

func TestDoubleProfileRejected(t *testing.T) {
	srv := New()
	id, err := srv.Register(JobRequest{Schedule: "1f1b", Stages: 2, Microbatches: 2, GPU: "A100-PCIe", Unit: 5e-3})
	if err != nil {
		t.Fatal(err)
	}
	up := buildUpload(t, gpu.A100PCIe, 2, 4)
	if err := srv.UploadProfile(id, up); err != nil {
		t.Fatal(err)
	}
	if err := srv.UploadProfile(id, up); err == nil {
		t.Error("second profile upload should be rejected")
	}
	// A second upload is refused as one before its types are fitted: one
	// with too few Pareto points gets "already profiled", not the fit's
	// error.
	few := ProfileUpload{PBlocking: up.PBlocking, Measurements: up.Measurements[:2]}
	if err := srv.UploadProfile(id, few); err == nil || !strings.Contains(err.Error(), "already profiled") {
		t.Errorf("second upload of an unfittable profile: error %v, want \"already profiled\"", err)
	}
	if err := srv.WaitCharacterized(id); err != nil {
		t.Fatal(err)
	}
}

func TestBadKind(t *testing.T) {
	srv := New()
	id, err := srv.Register(JobRequest{Schedule: "1f1b", Stages: 2, Microbatches: 2, GPU: "A40"})
	if err != nil {
		t.Fatal(err)
	}
	err = srv.UploadProfile(id, ProfileUpload{
		PBlocking:    60,
		Measurements: []MeasurementJSON{{Virtual: 0, Kind: "sideways", Freq: 1000, Time: 1, Energy: 1}},
	})
	if err == nil {
		t.Error("bad kind should be rejected")
	}
}

func TestHTTPErrors(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Wrong method.
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /jobs status %d", resp.StatusCode)
	}
	// Unknown job.
	resp, err = http.Get(ts.URL + "/jobs/job-77/schedule")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d", resp.StatusCode)
	}
	// Malformed body.
	r, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status %d", r.StatusCode)
	}
}

func TestDelayedStraggler(t *testing.T) {
	srv := New()
	id, err := srv.Register(JobRequest{Schedule: "1f1b", Stages: 2, Microbatches: 3, GPU: "A100-PCIe", Unit: 5e-3})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.UploadProfile(id, buildUpload(t, gpu.A100PCIe, 2, 4)); err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitCharacterized(id); err != nil {
		t.Fatal(err)
	}
	before, err := srv.Schedule(id)
	if err != nil {
		t.Fatal(err)
	}
	// Anticipated 30 ms ahead: the deployed schedule must not change yet.
	if err := srv.SetStraggler(id, StragglerNotice{ID: "x", Delay: 0.03, Degree: 1.3}); err != nil {
		t.Fatal(err)
	}
	now, err := srv.Schedule(id)
	if err != nil {
		t.Fatal(err)
	}
	if now.Version != before.Version {
		t.Fatal("delayed straggler applied immediately")
	}
	// After the delay, the schedule flips.
	deadline := time.Now().Add(2 * time.Second)
	for {
		later, err := srv.Schedule(id)
		if err != nil {
			t.Fatal(err)
		}
		if later.Version > before.Version {
			if later.Time <= before.Time {
				t.Fatalf("delayed straggler schedule %v not slower than %v", later.Time, before.Time)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("delayed straggler never applied")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStragglerOutOfRange pins the straggler bounds: a delay too large
// for a time.Duration would overflow to a negative timer and apply the
// straggler at once, so it is a 400 that leaves the schedule as it was;
// a non-finite degree or delay fails the Go entry point, naming the
// field.
func TestStragglerOutOfRange(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	before, err := srv.Schedule(id)
	if err != nil {
		t.Fatal(err)
	}
	r := postJSON(t, ts.URL+"/jobs/"+id+"/straggler", StragglerNotice{ID: "x", Delay: 1e10, Degree: 1.3})
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("delay_s 1e10: status %d, want 400", r.StatusCode)
	}
	time.Sleep(50 * time.Millisecond) // long enough for an overflowed timer to fire
	after, err := srv.Schedule(id)
	if err != nil {
		t.Fatal(err)
	}
	if after.Version != before.Version || after.Time != before.Time {
		t.Fatalf("refused straggler moved the schedule: v%d %v s -> v%d %v s", before.Version, before.Time, after.Version, after.Time)
	}
	for _, n := range []StragglerNotice{
		{Degree: math.NaN()},
		{Degree: math.Inf(1)},
		{Degree: 1.3, Delay: math.NaN()},
		{Degree: 1.3, Delay: math.Inf(1)},
		{Degree: 1.3, Delay: math.Inf(-1)},
		{Degree: 1.3, Delay: 9.3e9},
	} {
		field := "delay_s"
		if n.Delay == 0 {
			field = "degree"
		}
		if err := srv.SetStraggler(id, n); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%+v: error %v, want one naming %s", n, err, field)
		}
	}
}

func TestTableEndpoint(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id, err := srv.Register(JobRequest{Schedule: "1f1b", Stages: 2, Microbatches: 3, GPU: "A100-PCIe", Unit: 5e-3})
	if err != nil {
		t.Fatal(err)
	}
	// Before characterization: conflict.
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/table")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("table before characterization: status %d", resp.StatusCode)
	}
	if err := srv.UploadProfile(id, buildUpload(t, gpu.A100PCIe, 2, 4)); err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitCharacterized(id); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/jobs/" + id + "/table")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct, n := resp.Header.Get("Content-Type"), resp.ContentLength; ct != "application/octet-stream" || n <= 0 {
		t.Fatalf("table served as %q, Content-Length %d; want a PLT1 body of declared length", ct, n)
	}
	lt, err := frontier.LoadTable(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := srv.Table(id); !reflect.DeepEqual(lt.Points, want.Points) {
		t.Fatal("the served table differs from the job's")
	}
	if len(lt.Points) < 5 {
		t.Fatalf("served table has %d points", len(lt.Points))
	}
	if len(lt.Points[0].Freqs) != 2*3*2 {
		t.Fatalf("served plan has %d frequencies", len(lt.Points[0].Freqs))
	}
}

// TestServerServesTheLibraryFrontier characterizes bloom-3b on A40 (1F1B,
// 4 stages × 8 microbatches), a shape whose walk drops steps a faster one
// matches in energy, both through the server and through the library on
// the same fitted profile. GET /jobs/{id}/frontier lists exactly the
// points of GET /jobs/{id}/table and the library's frontier, and the
// schedule served under each straggler degree d is the library's
// Lookup(Tmin·d).
func TestServerServesTheLibraryFrontier(t *testing.T) {
	req := JobRequest{Schedule: "1f1b", Stages: 4, Microbatches: 8, GPU: "A40", Unit: 5e-3}
	up := modelUpload(t, "bloom-3b", gpu.A40, 4, 4)
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id, err := srv.Register(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.UploadProfile(id, up); err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitCharacterized(id); err != nil {
		t.Fatal(err)
	}

	// The library's frontier on the profile the server fitted.
	var ms []profile.Measurement
	for _, m := range up.Measurements {
		kind, err := api.ParseKind(m.Kind)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, profile.Measurement{Virtual: m.Virtual, Kind: kind, Freq: gpu.Frequency(m.Freq), Time: m.Time, Energy: m.Energy})
	}
	prof, err := profile.Assemble(gpu.A40, up.PBlocking, ms)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sched.ByName(req.Schedule, req.Stages, req.Microbatches, 1)
	if err != nil {
		t.Fatal(err)
	}
	graph, err := dag.Build(sc, func(sched.Op) int64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	f, err := frontier.Characterize(graph, prof, frontier.Options{Unit: req.Unit})
	if err != nil {
		t.Fatal(err)
	}
	pts := f.Points()
	if len(pts) > f.Stats().Steps {
		t.Fatalf("the walk's %d steps dropped no point of %d: the shape tests nothing", f.Stats().Steps, len(pts))
	}

	resp, err := http.Get(ts.URL + "/jobs/" + id + "/table")
	if err != nil {
		t.Fatal(err)
	}
	lt, err := frontier.LoadTable(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var fr FrontierResponse
	get(t, ts.URL+"/jobs/"+id+"/frontier", &fr)
	if !fr.Ready || len(fr.Time) != len(lt.Points) || len(fr.Energy) != len(lt.Points) || len(pts) != len(lt.Points) {
		t.Fatalf("frontier lists %d times and %d energies, table %d points, library %d", len(fr.Time), len(fr.Energy), len(lt.Points), len(pts))
	}
	for i, pt := range lt.Points {
		if fr.Time[i] != lt.PointTime(i) || fr.Energy[i] != pt.Energy || pts[i].Time != fr.Time[i] || pts[i].Energy != fr.Energy[i] {
			t.Fatalf("point %d: frontier (%v s, %v J), table (%v s, %v J), library (%v s, %v J)",
				i, fr.Time[i], fr.Energy[i], lt.PointTime(i), pt.Energy, pts[i].Time, pts[i].Energy)
		}
	}

	for _, d := range []float64{1, 1.01, 1.05, 1.1, 1.2, 1.35, 1.5, 2, 3} {
		if err := srv.SetStraggler(id, StragglerNotice{Degree: d}); err != nil {
			t.Fatal(err)
		}
		got, err := srv.Schedule(id)
		if err != nil {
			t.Fatal(err)
		}
		want := f.Lookup(f.Tmin() * d)
		plan := want.Plan()
		freqs := make([]int, len(plan))
		for k, fq := range plan {
			freqs[k] = int(fq)
		}
		if got.Time != want.Time || !reflect.DeepEqual(got.Freqs, freqs) {
			t.Fatalf("degree %v: served %v s, library Lookup %v s (plans equal: %v)", d, got.Time, want.Time, reflect.DeepEqual(got.Freqs, freqs))
		}
	}
}
