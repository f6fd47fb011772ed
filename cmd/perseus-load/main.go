// Command perseus-load is the schedule fan-out load harness: it parks
// tens of thousands of concurrent long-pollers on one job's schedule
// endpoint, drives controller ticks that bump the schedule version, and
// measures how the notification hub fans each bump out to every parked
// waiter. It is the scaling rehearsal for the paper's deployment shape —
// one cluster-wide server, a million trainers each holding a cheap
// blocked GET — shrunk to one process so CI can run it.
//
// The pollers speak real HTTP (If-None-Match + ?wait against
// GET /jobs/{id}/schedule) but dispatch in-process through the server's
// handler, so neither sockets nor file descriptors bound the poller
// count. Each round waits until every poller is parked (the
// perseus_longpoll_waiters gauge), advances the fake clock one signal
// interval, and ticks the controller synchronously; the re-plan bumps
// the schedule version and one hub broadcast wakes the whole fleet.
//
// The harness exits non-zero unless every round woke every poller and
// the waiters gauge drained to zero after the final cancellation — the
// leak invariant the long-poll lifecycle fixes are about. It reports
// p50/p99/max park-to-wake latency from perseus_longpoll_wake_seconds
// and the hub broadcast counters.
//
// Usage:
//
//	perseus-load [-pollers 10000] [-ticks 5] [-wait 30]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"perseus/internal/client"
	"perseus/internal/gpu"
	"perseus/internal/grid"
	"perseus/internal/profile"
	"perseus/internal/server"
)

// inprocTransport dispatches the setup client's requests straight into
// the server's handler — no listener, no connection pool.
type inprocTransport struct{ h http.Handler }

func (t inprocTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// pollRW is the cheapest possible ResponseWriter: it keeps the status
// and headers (the poller reads the version from the ETag) and discards
// the body. Ten thousand pollers re-issuing requests every round must
// not each buffer a schedule JSON they never parse.
type pollRW struct {
	hdr    http.Header
	status int
}

func (w *pollRW) Header() http.Header {
	if w.hdr == nil {
		w.hdr = http.Header{}
	}
	return w.hdr
}

func (w *pollRW) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(p), nil
}

func (w *pollRW) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

// fakeClock is the controller's clock: pollers park in real time while
// planning time advances only when the harness ticks.
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

// etagVersion extracts N from a `"vN"` schedule entity tag (-1 when
// the tag is absent or malformed).
func etagVersion(tag string) int {
	tag = strings.TrimSuffix(strings.TrimPrefix(tag, `"`), `"`)
	if !strings.HasPrefix(tag, "v") {
		return -1
	}
	n, err := strconv.Atoi(tag[1:])
	if err != nil {
		return -1
	}
	return n
}

func main() {
	pollers := flag.Int("pollers", 10000, "concurrent long-pollers to park")
	ticks := flag.Int("ticks", 5, "controller ticks (each bumps the schedule version once)")
	waitS := flag.Float64("wait", 30, "per-request long-poll wait seconds")
	flag.Parse()

	clock := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	srv := server.New()
	srv.SetClock(clock.Now)
	handler := srv.Handler()
	cl := client.NewServerClient("http://perseus-load")
	cl.HTTP = &http.Client{Transport: inprocTransport{handler}}

	// One managed job under a revising forecast: every tick at a signal
	// interval boundary re-plans it and bumps the schedule version.
	id, err := cl.RegisterJob(client.JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	})
	if err != nil {
		log.Fatal(err)
	}
	g, err := gpu.ByName("A100-PCIe")
	if err != nil {
		log.Fatal(err)
	}
	ms, pBlocking, err := profile.SyntheticSweep(g, 2, 4)
	if err != nil {
		log.Fatal(err)
	}
	if err := cl.UploadProfile(id, pBlocking, ms); err != nil {
		log.Fatal(err)
	}
	dep, err := cl.WaitSchedule(id, 200, 50*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	sig := grid.Diurnal24h()
	if _, err := cl.UploadGridSignal(*sig, "carbon"); err != nil {
		log.Fatal(err)
	}
	if _, err := cl.InstallRevisionsForecast(11, 0.2, 0, 0, 0); err != nil {
		log.Fatal(err)
	}
	interval := sig.Intervals[0].EndS - sig.Intervals[0].StartS
	// Deadline past the last tick so every tick still re-plans.
	deadline := float64(*ticks+2) * interval
	target := math.Floor(0.8 * deadline / dep.Tmin)
	if _, err := cl.ManageJob(id, target, deadline, "", 0); err != nil {
		log.Fatal(err)
	}
	first, err := cl.FetchSchedule(id)
	if err != nil {
		log.Fatal(err)
	}

	reg := srv.Metrics()
	waiters := func() int {
		v, _ := reg.GaugeValue("perseus_longpoll_waiters")
		return int(v)
	}
	// settle blocks until the waiters gauge reaches want — the barrier
	// between rounds that makes "one tick wakes everyone" exact.
	settle := func(want int, what string) {
		deadline := time.Now().Add(2 * time.Minute)
		for waiters() != want {
			if time.Now().After(deadline) {
				log.Fatalf("perseus-load: %s: waiters stuck at %d, want %d", what, waiters(), want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// The poller fleet. Each poller is a real conditional long-poll
	// loop: park with the version it holds, wake on a bump, read the
	// new version from the ETag, park again. ctx cancellation is the
	// client hanging up mid-park — the last round exercises the
	// disconnect path at full fleet width.
	ctx, cancel := context.WithCancel(context.Background())
	path := "/jobs/" + id + "/schedule?wait=" + strconv.FormatFloat(*waitS, 'g', -1, 64)
	var wakes atomic.Int64
	var wg sync.WaitGroup
	wg.Add(*pollers)
	for i := 0; i < *pollers; i++ {
		go func() {
			defer wg.Done()
			ver := first.Version
			for {
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
				if err != nil {
					log.Fatal(err)
				}
				req.Header.Set("If-None-Match", fmt.Sprintf("%q", "v"+strconv.Itoa(ver)))
				rw := &pollRW{}
				handler.ServeHTTP(rw, req)
				if ctx.Err() != nil {
					return
				}
				switch rw.status {
				case http.StatusOK:
					if v := etagVersion(rw.Header().Get("ETag")); v > ver {
						ver = v
						wakes.Add(1)
					}
				case http.StatusNotModified:
					// Wait expired with no bump: park again.
				default:
					log.Fatalf("perseus-load: poller got status %d", rw.status)
				}
			}
		}()
	}

	start := time.Now()
	for round := 1; round <= *ticks; round++ {
		settle(*pollers, fmt.Sprintf("round %d park", round))
		t0 := time.Now()
		clock.Advance(time.Duration(interval * float64(time.Second)))
		st, err := cl.TickController()
		if err != nil {
			log.Fatal(err)
		}
		if len(st.Jobs) != 1 || st.Jobs[0].LastError != "" {
			log.Fatalf("perseus-load: tick %d: %+v", round, st)
		}
		cur, err := cl.FetchSchedule(id)
		if err != nil {
			log.Fatal(err)
		}
		// The round is done when the whole fleet woke, fetched, and
		// re-parked on the new version. The waiters gauge alone is not a
		// barrier here — right after the bump it still reads N for the
		// about-to-wake parks — so first wait until every poller
		// confirmed its wake (it read the new version from the ETag),
		// then wait for the gauge to show them all re-parked.
		wantWakes := int64(*pollers) * int64(round)
		for to := time.Now().Add(2 * time.Minute); wakes.Load() < wantWakes; {
			if time.Now().After(to) {
				log.Fatalf("perseus-load: round %d: %d/%d wakes confirmed", round, wakes.Load(), wantWakes)
			}
			time.Sleep(2 * time.Millisecond)
		}
		settle(*pollers, fmt.Sprintf("round %d re-park", round))
		fmt.Printf("round %d: %d pollers woken and re-parked in %v (version %d)\n",
			round, *pollers, time.Since(t0).Round(time.Millisecond), cur.Version)
	}
	elapsed := time.Since(start)

	// Hang up the entire fleet mid-park and verify the server forgets
	// every waiter.
	cancel()
	wg.Wait()
	settle(0, "post-cancel drain")

	wakeCount, _ := reg.HistogramCount("perseus_longpoll_wake_seconds")
	p50, _ := reg.HistogramQuantile("perseus_longpoll_wake_seconds", 0.50)
	p99, _ := reg.HistogramQuantile("perseus_longpoll_wake_seconds", 0.99)
	broadcasts, _ := reg.CounterValue("perseus_hub_broadcasts_total")
	cancelled, _ := reg.CounterValue("perseus_longpoll_cancelled_total")
	topics, _ := reg.GaugeValue("perseus_hub_topics")

	want := int64(*pollers) * int64(*ticks)
	fmt.Printf("perseus-load: %d pollers x %d ticks in %v\n", *pollers, *ticks, elapsed.Round(time.Millisecond))
	fmt.Printf("  park-to-wake: count=%d p50=%.6fs p99=%.6fs\n", wakeCount, p50, p99)
	fmt.Printf("  hub: broadcasts=%.0f live_topics=%.0f cancelled=%.0f\n", broadcasts, topics, cancelled)

	fail := false
	if got := wakes.Load(); got != want {
		fmt.Fprintf(os.Stderr, "perseus-load: FAIL: %d wakes observed by pollers, want %d\n", got, want)
		fail = true
	}
	if int64(wakeCount) < want {
		fmt.Fprintf(os.Stderr, "perseus-load: FAIL: wake histogram holds %d observations, want >= %d\n", wakeCount, want)
		fail = true
	}
	if w := waiters(); w != 0 {
		fmt.Fprintf(os.Stderr, "perseus-load: FAIL: %d waiters leaked after cancellation\n", w)
		fail = true
	}
	if cancelled < float64(*pollers) {
		fmt.Fprintf(os.Stderr, "perseus-load: FAIL: cancelled counter %.0f, want >= %d (whole fleet hung up parked)\n", cancelled, *pollers)
		fail = true
	}
	if fail {
		os.Exit(1)
	}
	fmt.Println("perseus-load ok")
}
