package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"perseus/internal/client"
	"perseus/internal/gpu"
	"perseus/internal/grid"
)

// TestETagMatch pins the RFC 9110 §13.1.2 weak-comparison contract the
// conditional endpoints share: weak validators (W/ prefix) compare
// equal to their strong form, If-None-Match may carry a comma-
// separated list, and "*" matches anything. The pre-PR parser rejected
// weak and list forms, so a proxy-weakened validator made every
// long-poll return immediately instead of parking.
func TestETagMatch(t *testing.T) {
	cases := []struct {
		header, current string
		want            bool
	}{
		{`"v3"`, `"v3"`, true},
		{`"v3"`, `"v4"`, false},
		{`W/"v3"`, `"v3"`, true}, // weak validator, strong current
		{`w/"v3"`, `"v3"`, true}, // scheme is case-insensitive
		{`W/"v3"`, `W/"v3"`, true},
		{`"v2", "v3"`, `"v3"`, true},
		{`"v1", "v2"`, `"v3"`, false},
		{`"v2", W/"v3", "v4"`, `"v3"`, true},
		{` "v3" `, `"v3"`, true}, // surrounding whitespace
		{`*`, `"v3"`, true},
		{`*`, `"anything"`, true},
		{``, `"v3"`, false},
		{`v3`, `"v3"`, true}, // unquoted degenerate form still compares
	}
	for _, c := range cases {
		if got := etagMatch(c.header, c.current); got != c.want {
			t.Errorf("etagMatch(%q, %q) = %v, want %v", c.header, c.current, got, c.want)
		}
	}
}

// TestHubWatchBump pins the hub's broadcast semantics: all watchers of
// a generation share one channel, a bump closes exactly that channel
// (waking every watcher in one O(1) operation), the next watch starts
// a fresh generation, and bumping a quiet topic is a no-op.
func TestHubWatchBump(t *testing.T) {
	h := newHub(nil)
	h.bump("quiet") // no watchers: must not panic or allocate a topic
	if len(h.topics) != 0 {
		t.Fatalf("bump of a quiet topic left %d topics", len(h.topics))
	}

	w1 := h.watch("a")
	w2 := h.watch("a")
	if w1 != w2 {
		t.Fatal("watchers of one generation must share a channel")
	}
	other := h.watch("b")
	h.bump("a")
	select {
	case <-w1:
	default:
		t.Fatal("bump did not close the topic channel")
	}
	select {
	case <-other:
		t.Fatal("bump of topic a closed topic b")
	default:
	}
	w3 := h.watch("a")
	if w3 == w1 {
		t.Fatal("watch after bump returned the spent channel")
	}
	select {
	case <-w3:
		t.Fatal("fresh generation channel is already closed")
	default:
	}
}

// TestOneBumpWakesAllWaiters is the fan-out contract at the server
// layer: N parked long-pollers, one version bump, one hub broadcast —
// and the wake histogram gains exactly N observations, one per waiter.
func TestOneBumpWakesAllWaiters(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	cl := client.NewServerClient(ts.URL)
	dep, err := cl.FetchSchedule(id)
	if err != nil {
		t.Fatal(err)
	}
	reg := srv.Metrics()
	base, _ := reg.HistogramCount("perseus_longpoll_wake_seconds")
	baseB, _ := reg.CounterValue("perseus_hub_broadcasts_total")

	const waiters = 16
	var wg sync.WaitGroup
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			defer wg.Done()
			s2, changed, err := cl.FetchScheduleIfChanged(id, dep.Version, 10*time.Second)
			if err != nil || !changed || s2.Version <= dep.Version {
				t.Errorf("waiter: changed=%v version=%d err=%v", changed, s2.Version, err)
			}
		}()
	}
	waitGaugeEquals(t, srv, "perseus_longpoll_waiters", waiters)
	if err := srv.SetStraggler(id, StragglerNotice{Degree: 1.5}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if n, _ := reg.HistogramCount("perseus_longpoll_wake_seconds"); n-base != waiters {
		t.Fatalf("wake histogram grew by %d, want %d", n-base, waiters)
	}
	if b, _ := reg.CounterValue("perseus_hub_broadcasts_total"); b-baseB != 1 {
		t.Fatalf("broadcasts grew by %v, want 1 (one bump wakes everyone)", b-baseB)
	}
	waitGaugeEquals(t, srv, "perseus_longpoll_waiters", 0)
}

// waitGaugeEquals polls the named gauge until it reaches want.
func waitGaugeEquals(t *testing.T, srv *Server, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, _ := srv.Metrics().GaugeValue(name)
		if v == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck at %v, want %v", name, v, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// sinkRW records whether a handler wrote anything at all — the
// disconnect regression needs to distinguish "no response" from any
// written status.
type sinkRW struct {
	mu     sync.Mutex
	hdr    http.Header
	wrote  bool
	status int
}

func (w *sinkRW) Header() http.Header {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.hdr == nil {
		w.hdr = http.Header{}
	}
	return w.hdr
}

func (w *sinkRW) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.wrote = true
	return len(p), nil
}

func (w *sinkRW) WriteHeader(code int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.wrote = true
	w.status = code
}

func (w *sinkRW) snapshot() (bool, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.wrote, w.status
}

// TestScheduleDisconnectWhileParked is the regression for the parked
// long-poll ignoring client disconnects: a waiter whose connection
// goes away must be released immediately — the waiters gauge returns
// to zero, the cancellation counter ticks, and the handler writes no
// response (pre-PR the park held the goroutine and its timer until the
// full wait expired, so 10⁵ churned clients would each pin a waiter
// for up to 30 s).
func TestScheduleDisconnectWhileParked(t *testing.T) {
	srv := New()
	handler := srv.Handler()
	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	dep, err := srv.Schedule(id)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/jobs/"+id+"/schedule?wait=20", nil).WithContext(ctx)
	req.Header.Set("If-None-Match", etag(dep.Version))
	rw := &sinkRW{}
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		handler.ServeHTTP(rw, req)
	}()

	waitGaugeEquals(t, srv, "perseus_longpoll_waiters", 1)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler still parked 10s after the client disconnected")
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("park outlived the disconnect: %v", elapsed)
	}
	// The middleware records its response headers (trace id) before the
	// park, but the schedule handler itself must write neither a status
	// nor a body to the dead connection.
	if wrote, status := rw.snapshot(); wrote {
		t.Fatalf("handler wrote status %d to a disconnected client", status)
	}
	waitGaugeEquals(t, srv, "perseus_longpoll_waiters", 0)
	if c, _ := srv.Metrics().CounterValue("perseus_longpoll_cancelled_total"); c != 1 {
		t.Fatalf("cancelled counter %v, want 1", c)
	}
}

// TestCharacterizeFailThenRetry is the regression for the double-close
// panic: a failed characterization left the job's done channel closed,
// and a retried profile upload re-ran close(j.done) — crashing the
// server. A failed attempt must be retryable: the retry installs a
// fresh done channel and the second upload characterizes cleanly.
func TestCharacterizeFailThenRetry(t *testing.T) {
	srv := New()
	id, err := srv.Register(JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := gpu.ByName("A100-PCIe")
	if err != nil {
		t.Fatal(err)
	}
	full := buildUpload(t, g, 2, 4)

	// Only stage 0's measurements: the upload assembles, but the
	// asynchronous characterization fails on the missing stage-1 op
	// profiles.
	partial := ProfileUpload{PBlocking: full.PBlocking}
	for _, m := range full.Measurements {
		if m.Virtual == 0 {
			partial.Measurements = append(partial.Measurements, m)
		}
	}
	if err := srv.UploadProfile(id, partial); err != nil {
		t.Fatalf("partial upload rejected synchronously: %v", err)
	}
	if err := srv.WaitCharacterized(id); err == nil {
		t.Fatal("partial profile characterized successfully; want failure")
	}

	// The retry: pre-PR this passed the "already profiled" guard and
	// panicked on the double close. Now it must run a fresh attempt.
	if err := srv.UploadProfile(id, full); err != nil {
		t.Fatalf("retry rejected: %v", err)
	}
	if err := srv.WaitCharacterized(id); err != nil {
		t.Fatalf("retry failed to characterize: %v", err)
	}
	dep, err := srv.Schedule(id)
	if err != nil {
		t.Fatal(err)
	}
	if !dep.Ready {
		t.Fatalf("schedule not ready after successful retry: %+v", dep)
	}

	// A third upload after success hits the already-profiled guard.
	if err := srv.UploadProfile(id, full); err == nil || !strings.Contains(err.Error(), "already profiled") {
		t.Fatalf("upload after success: %v, want already-profiled error", err)
	}
}

// TestScheduleConditionalWeakAndList drives the RFC 9110 forms through
// the HTTP endpoint: a weak validator and a list containing the
// current version must both be treated as a match (304, not an
// immediate 200).
func TestScheduleConditionalWeakAndList(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	dep, err := srv.Schedule(id)
	if err != nil {
		t.Fatal(err)
	}
	cur := etag(dep.Version)

	for _, inm := range []string{
		"W/" + cur,
		`"v-stale", ` + cur,
		`"v-stale", W/` + cur + `, "v-other"`,
		"*",
	} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/jobs/"+id+"/schedule", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-None-Match", inm)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Errorf("If-None-Match %q: status %d, want 304", inm, resp.StatusCode)
		}
		if got := resp.Header.Get("ETag"); got != cur {
			t.Errorf("If-None-Match %q: ETag %q, want %q", inm, got, cur)
		}
	}
}

// TestGridPlanConditional pins the new conditional contract on
// GET /grid/plan: responses carry an ETag naming the plan's cache key,
// a matching If-None-Match answers 304 without solving, and a parked
// ?wait poll wakes when a forecast revision advances the plan epoch.
func TestGridPlanConditional(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewServerClient(ts.URL)
	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	if _, err := cl.UploadGridSignal(testSignal(), ""); err != nil {
		t.Fatal(err)
	}

	// Unconditional fetch: a plan and its validator.
	p1, tag, changed, err := cl.FetchGridPlanIfChanged(id, 50, 0, "", "", 0)
	if err != nil || !changed || tag == "" {
		t.Fatalf("first fetch: changed=%v tag=%q err=%v", changed, tag, err)
	}
	if p1.Iterations < 50 {
		t.Fatalf("plan target not met: %+v", p1)
	}
	misses := srv.CacheStats().Misses

	// Same problem, matching validator: 304, no solve, same tag.
	_, tag2, changed, err := cl.FetchGridPlanIfChanged(id, 50, 0, "", tag, 0)
	if err != nil || changed {
		t.Fatalf("conditional refetch: changed=%v err=%v", changed, err)
	}
	if tag2 != tag {
		t.Fatalf("304 carried tag %q, want %q", tag2, tag)
	}
	if got := srv.CacheStats().Misses; got != misses {
		t.Fatalf("a 304 ran the solver: misses %d -> %d", misses, got)
	}

	// Weak form through the shared parser.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/grid/plan/"+id+"?iterations=50&deadline=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", "W/"+tag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("weak validator: status %d, want 304", resp.StatusCode)
	}

	// Different parameters resolve to a different key: immediate 200.
	_, tagOther, changed, err := cl.FetchGridPlanIfChanged(id, 60, 0, "", tag, 0)
	if err != nil || !changed || tagOther == tag {
		t.Fatalf("different params: changed=%v tag=%q err=%v", changed, tagOther, err)
	}

	// Park a waiter on the current plan, then revise the forecast: the
	// epoch advances, the hub wakes the poll, and the fresh plan
	// arrives with a new validator.
	type result struct {
		plan    grid.Plan
		tag     string
		changed bool
		err     error
	}
	ch := make(chan result, 1)
	go func() {
		p, newTag, changed, err := cl.FetchGridPlanIfChanged(id, 50, 0, "", tag, 10*time.Second)
		ch <- result{p, newTag, changed, err}
	}()
	waitGaugeEquals(t, srv, "perseus_longpoll_waiters", 1)
	if _, err := cl.InstallForecast("persistence", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-ch:
		if r.err != nil || !r.changed {
			t.Fatalf("parked plan poll: changed=%v err=%v", r.changed, r.err)
		}
		if r.tag == tag {
			t.Fatalf("epoch advanced but tag stayed %q", r.tag)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("plan poll still parked after the epoch bump")
	}
	waitGaugeEquals(t, srv, "perseus_longpoll_waiters", 0)
}
