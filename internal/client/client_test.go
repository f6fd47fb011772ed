package client

import (
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"testing"
	"time"

	"perseus/internal/gpu"
	"perseus/internal/grid"
	"perseus/internal/model"
	"perseus/internal/partition"
	"perseus/internal/profile"
	"perseus/internal/sched"
	"perseus/internal/server"
)

func newTrainer(t *testing.T, stages, micro int) *Trainer {
	t.Helper()
	m, err := model.GPT3("1.3b")
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.MinImbalance(m.LayerCosts(), stages)
	if err != nil {
		t.Fatal(err)
	}
	w := profile.Workload{
		Model: m, GPU: gpu.A100PCIe, Stages: stages, Chunks: 1,
		Partition: part.Boundaries, MicrobatchSize: 4, TensorParallel: 1,
	}
	refs, err := w.StageRefTimes()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.OneFOneB(stages, micro)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(s, gpu.A100PCIe, refs, m.BwdFactor)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr
}

func TestProfilerMeasuresDevice(t *testing.T) {
	dev := gpu.NewDevice(gpu.A40, "test")
	p := NewProfiler(dev)
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	sec, joules := dev.Run(0.1, 0.25)
	p.Advance(sec)
	if err := p.End(3, sched.Forward); err != nil {
		t.Fatal(err)
	}
	if len(p.Records) != 1 {
		t.Fatalf("%d records", len(p.Records))
	}
	m := p.Records[0]
	if m.Virtual != 3 || m.Kind != sched.Forward || m.Freq != gpu.A40.FMax {
		t.Errorf("bad measurement %+v", m)
	}
	if math.Abs(m.Time-sec) > 1e-12 || math.Abs(m.Energy-joules) > 1e-9 {
		t.Errorf("measured (%v, %v), want (%v, %v)", m.Time, m.Energy, sec, joules)
	}
	// Begin twice is an error; End without Begin is an error.
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := p.Begin(); err == nil {
		t.Error("double Begin should fail")
	}
	if err := p.End(0, sched.Forward); err != nil {
		t.Fatal(err)
	}
	if err := p.End(0, sched.Forward); err == nil {
		t.Error("End without Begin should fail")
	}
}

func TestControllerAsyncApply(t *testing.T) {
	dev := gpu.NewDevice(gpu.A100PCIe, "test")
	c := NewController(dev)
	defer c.Close()
	c.SetSpeed(1005)
	c.Sync()
	if dev.Frequency() != 1005 {
		t.Errorf("frequency %d after Sync, want 1005", dev.Frequency())
	}
	// Zero is a no-op.
	c.SetSpeed(0)
	c.Sync()
	if dev.Frequency() != 1005 {
		t.Errorf("frequency changed by zero request")
	}
}

func TestRunIterationDeterministic(t *testing.T) {
	tr := newTrainer(t, 2, 4)
	tr.LockFrequency(tr.GPU.FMax)
	t1, err := tr.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := tr.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Errorf("iteration times differ: %v vs %v", t1, t2)
	}
	if t1 <= 0 {
		t.Errorf("iteration time %v", t1)
	}
	// Lower frequency extends the iteration.
	tr.LockFrequency(800)
	t3, err := tr.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if t3 <= t1 {
		t.Errorf("800 MHz iteration %v not slower than max %v", t3, t1)
	}
}

func TestProfileSweepEarlyStop(t *testing.T) {
	tr := newTrainer(t, 2, 2)
	ms, err := tr.ProfileSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("no measurements")
	}
	// Early termination: the sweep must not cover the full ladder all
	// the way down to FMin (paper §5).
	minFreq := tr.GPU.FMax
	for _, m := range ms {
		if m.Freq < minFreq {
			minFreq = m.Freq
		}
	}
	if minFreq == tr.GPU.FMin {
		t.Error("profiling swept the entire ladder; early stop did not trigger")
	}
	// It must cover at least past the minimum-adjusted-energy frequency.
	minE := tr.GPU.MinEnergyFrequency(tr.GPU.MemBoundFwd, tr.GPU.BlockingW)
	if minFreq > minE {
		t.Errorf("profiling stopped at %d, before the min-energy frequency %d", minFreq, minE)
	}
}

func TestEndToEndClientServer(t *testing.T) {
	srv := server.New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sc := NewServerClient(ts.URL)

	const stages, micro = 2, 3
	tr := newTrainer(t, stages, micro)

	jobID, err := sc.RegisterJob(JobRequest{
		Schedule: "1f1b", Stages: stages, Microbatches: micro,
		GPU: "A100-PCIe", Unit: 5e-3,
	})
	if err != nil {
		t.Fatal(err)
	}

	// In-vivo profiling during the first iterations, then upload.
	ms, err := tr.ProfileSweep(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.UploadProfile(jobID, tr.PBlocking(), ms); err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitCharacterized(jobID); err != nil {
		t.Fatal(err)
	}
	schedResp, err := sc.WaitSchedule(jobID, 50, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !schedResp.Ready || len(schedResp.Freqs) != stages*micro*2 {
		t.Fatalf("bad schedule %+v", schedResp)
	}

	// Deploy and run: iteration time must stay within quantization slack
	// of the all-max iteration.
	tr.LockFrequency(tr.GPU.FMax)
	baseTime, err := tr.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	baseEnergy := deviceEnergy(tr)
	if err := tr.Deploy(schedResp.Freqs); err != nil {
		t.Fatal(err)
	}
	resetEnergy(tr)
	optTime, err := tr.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	optEnergy := deviceEnergy(tr)
	if optTime > baseTime*1.03 {
		t.Errorf("deployed schedule slowed iteration: %v vs %v", optTime, baseTime)
	}
	if optEnergy >= baseEnergy {
		t.Errorf("deployed schedule saved no computation energy: %v vs %v", optEnergy, baseEnergy)
	}

	// Straggler notification: the schedule version advances and the new
	// plan slows the pipeline toward T'.
	if err := sc.SetStraggler(jobID, "p0s0", 0, 1.3); err != nil {
		t.Fatal(err)
	}
	slowResp, err := sc.FetchSchedule(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if slowResp.Version <= schedResp.Version {
		t.Error("schedule version did not advance")
	}
	if err := tr.Deploy(slowResp.Freqs); err != nil {
		t.Fatal(err)
	}
	resetEnergy(tr)
	slowTime, err := tr.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	slowEnergy := deviceEnergy(tr)
	if slowTime <= optTime {
		t.Errorf("straggler schedule did not slow the pipeline: %v vs %v", slowTime, optTime)
	}
	if slowTime > baseTime*1.3+1e-9 {
		t.Errorf("straggler schedule time %v exceeds T' %v", slowTime, baseTime*1.3)
	}
	if slowEnergy >= optEnergy {
		t.Errorf("straggler schedule energy %v >= normal %v", slowEnergy, optEnergy)
	}
}

func deviceEnergy(tr *Trainer) float64 {
	var e float64
	for _, d := range tr.Devices {
		e += d.EnergyCounter()
	}
	return e
}

func resetEnergy(tr *Trainer) {
	for _, d := range tr.Devices {
		d.ResetEnergyCounter()
	}
}

func TestTrainerValidation(t *testing.T) {
	s, err := sched.OneFOneB(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTrainer(s, gpu.A40, []float64{0.1}, 2); err == nil {
		t.Error("wrong ref count should fail")
	}
	tr := newTrainer(t, 2, 2)
	if err := tr.Deploy([]int{1}); err == nil {
		t.Error("short plan should fail")
	}
	if err := tr.Deploy(nil); err != nil {
		t.Errorf("nil deploy should clear plan: %v", err)
	}
}

// reuseRT records, per request, whether the transport handed it a
// connection an earlier request had used.
type reuseRT struct {
	next   http.RoundTripper
	reused []bool
}

func (rt *reuseRT) RoundTrip(r *http.Request) (*http.Response, error) {
	ctx := httptrace.WithClientTrace(r.Context(), &httptrace.ClientTrace{
		GotConn: func(i httptrace.GotConnInfo) { rt.reused = append(rt.reused, i.Reused) },
	})
	return rt.next.RoundTrip(r.WithContext(ctx))
}

// TestErrorCarriesMessageAndKeepsConnection: every request helper
// reports the server's own words on a non-2xx answer, and reads them
// off the wire, so the keep-alive connection survives the error.
func TestErrorCarriesMessageAndKeepsConnection(t *testing.T) {
	srv := server.New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id, err := srv.Register(server.JobRequest{Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe"})
	if err != nil {
		t.Fatal(err)
	}
	rt := &reuseRT{next: &http.Transport{}}
	cl := NewServerClient(ts.URL)
	cl.HTTP = &http.Client{Transport: rt}

	calls := []struct {
		name string
		do   func() error
		want string
	}{
		{"FetchGridPlan", func() error { _, err := cl.FetchGridPlan(id, 10, 0, ""); return err }, "no grid signal installed"},
		{"FetchGridPlanIfChanged", func() error {
			_, _, _, err := cl.FetchGridPlanIfChanged("nobody", 10, 0, "", `"p0"`, 0)
			return err
		}, "unknown job nobody"},
		{"get", func() error { _, err := cl.FetchGridSignal(); return err }, "no grid signal installed"},
		{"FetchScheduleIfChanged", func() error { _, _, err := cl.FetchScheduleIfChanged("nobody", 1, 0); return err }, "404 page not found"},
		{"post", func() error { _, err := cl.UploadGridSignal(grid.Signal{}, "tidal"); return err }, `unknown objective "tidal"`},
		{"del", func() error { return cl.RemoveJob("nobody") }, "404 page not found"},
	}
	for _, c := range calls {
		err := c.do()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %v, want the server's %q in it", c.name, err, c.want)
		}
	}
	if len(rt.reused) != len(calls) {
		t.Fatalf("%d connections handed out for %d requests", len(rt.reused), len(calls))
	}
	for i, reused := range rt.reused[1:] {
		if !reused {
			t.Fatalf("%s dialled a new connection: the error before it dropped the old one", calls[i+1].name)
		}
	}
}
