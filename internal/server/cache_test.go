package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"perseus/internal/client"
	"perseus/internal/frontier"
	"perseus/internal/gpu"
	"perseus/internal/grid"
)

// TestPlanCacheHitMissInvalidation walks the cache through its
// lifecycle at the server layer: identical requests hit, parameter
// changes miss, and both a signal re-install and a forecast revision
// advance the epoch and drop every cached plan. The frontier-hash
// dimension is covered by two jobs with different tables sharing the
// same request parameters.
func TestPlanCacheHitMissInvalidation(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewServerClient(ts.URL)

	// Two jobs with different workloads → different frontier tables.
	a := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	b := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 6, GPU: "A100-PCIe", Unit: 5e-3,
	}, 2)
	if _, err := cl.UploadGridSignal(testSignal(), ""); err != nil {
		t.Fatal(err)
	}

	fetch := func(id string, iters float64) grid.Plan {
		t.Helper()
		p, err := cl.FetchGridPlan(id, iters, 0, "")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	expect := func(hits, misses int64) {
		t.Helper()
		st := srv.CacheStats()
		if st.Hits != hits || st.Misses != misses {
			t.Fatalf("cache stats %+v, want hits %d misses %d", st, hits, misses)
		}
	}

	p1 := fetch(a, 50)
	expect(0, 1)
	p2 := fetch(a, 50) // identical request: hit
	expect(1, 1)
	if math.Abs(p1.CarbonG-p2.CarbonG) > 1e-12 || p1.Iterations != p2.Iterations {
		t.Fatalf("cached plan differs: %v vs %v", p1.CarbonG, p2.CarbonG)
	}
	fetch(a, 60) // different target: miss
	expect(1, 2)
	fetch(b, 50) // same params, different frontier hash: miss
	expect(1, 3)
	fetch(b, 50) // and hits thereafter
	expect(2, 3)

	// A forecast revision advances the epoch: everything re-solves.
	if _, err := cl.InstallForecast("persistence", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if st := srv.CacheStats(); st.Entries != 0 {
		t.Fatalf("forecast revision left %d cache entries", st.Entries)
	}
	fetch(a, 50)
	expect(2, 4)
	fetch(a, 50)
	expect(3, 4)

	// A signal re-install advances the epoch again.
	if _, err := cl.UploadGridSignal(testSignal(), ""); err != nil {
		t.Fatal(err)
	}
	if st := srv.CacheStats(); st.Entries != 0 {
		t.Fatalf("signal re-install left %d cache entries", st.Entries)
	}
	fetch(a, 50)
	expect(3, 5)
}

// TestPlanCacheSingleFlight pins the de-duplication contract: any
// number of identical concurrent plan requests solve exactly once.
func TestPlanCacheSingleFlight(t *testing.T) {
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

	const workers = 16
	var wg sync.WaitGroup
	var carbon [workers]float64
	var failed atomic.Bool
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p, err := cl.FetchGridPlan(id, 80, 0, "")
			if err != nil {
				failed.Store(true)
				return
			}
			carbon[w] = p.CarbonG
		}(w)
	}
	wg.Wait()
	if failed.Load() {
		t.Fatal("concurrent plan fetch failed")
	}
	st := srv.CacheStats()
	if st.Misses != 1 {
		t.Fatalf("identical concurrent requests solved %d times, want 1", st.Misses)
	}
	if st.Hits != workers-1 {
		t.Fatalf("hits %d, want %d", st.Hits, workers-1)
	}
	for w := 1; w < workers; w++ {
		if carbon[w] != carbon[0] {
			t.Fatalf("worker %d saw a different plan: %v vs %v", w, carbon[w], carbon[0])
		}
	}
}

// TestPlanCacheErrorNotCached pins the retry rule: a failed solve is
// not memoized — the next identical request runs the solver again.
func TestPlanCacheErrorNotCached(t *testing.T) {
	c := newPlanCache(nil)
	ctx := context.Background()
	key := PlanKey{Epoch: 1, Table: 42, Target: 10}
	calls := 0
	solve := func(context.Context) (*grid.Plan, error) {
		calls++
		if calls == 1 {
			return nil, fmt.Errorf("transient")
		}
		return &grid.Plan{Target: 10}, nil
	}
	if _, err := c.do(ctx, key, solve); err == nil {
		t.Fatal("first solve should fail")
	}
	e, err := c.do(ctx, key, solve)
	if err != nil || e.plan == nil || e.plan.Target != 10 {
		t.Fatalf("retry after error: %+v, %v", e, err)
	}
	if calls != 2 {
		t.Fatalf("solver ran %d times, want 2", calls)
	}
	if _, err := c.do(ctx, key, solve); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("success was not cached: %d calls", calls)
	}
}

// rawGet fetches path with no client-side decoding.
func rawGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestGridPlanServesEncodedBody pins what /grid/plan puts on the wire:
// the cached plan's PGP1 body as application/octet-stream, its length
// declared, the same bytes and validator on every hit — and that the
// body is built by the first HTTP serve, not by the solve.
func TestGridPlanServesEncodedBody(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	if _, err := srv.SetGridSignal(testSignal(), ""); err != nil {
		t.Fatal(err)
	}
	plan, err := srv.GridPlan(id, 50, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.CacheStats(); st.Entries != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v after one solve, want 1 entry / 1 miss", st)
	}
	if v, _ := srv.Metrics().GaugeValue("perseus_plan_cache_bytes"); v != 0 {
		t.Fatalf("an in-process solve encoded %v body bytes", v)
	}
	want, err := plan.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	url := ts.URL + "/grid/plan/" + id + "?iterations=50"
	var tag string
	for i := 0; i < 3; i++ {
		resp, body := rawGet(t, url)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("fetch %d: status %d, body differs from plan.MarshalBinary():\n%x", i, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
			t.Fatalf("fetch %d: Content-Type %q", i, ct)
		}
		if resp.ContentLength != int64(len(want)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("fetch %d: Content-Length %d (want %d), Transfer-Encoding %v", i, resp.ContentLength, len(want), resp.TransferEncoding)
		}
		if i > 0 && resp.Header.Get("ETag") != tag {
			t.Fatalf("fetch %d: ETag moved from %s to %s", i, tag, resp.Header.Get("ETag"))
		}
		tag = resp.Header.Get("ETag")
	}
	resp, other := rawGet(t, ts.URL+"/grid/plan/"+id+"?iterations=60")
	if resp.Header.Get("ETag") == tag {
		t.Fatalf("a different target shares the validator %s", tag)
	}
	if st := srv.CacheStats(); st.Misses != 2 || st.Hits != 3 {
		t.Fatalf("stats %+v, want 2 misses / 3 hits", st)
	}
	if n := srv.obs.traceSpans.With(spanPlanEncode).Value(); n != 2 {
		t.Fatalf("%v plan.encode spans for two entries", n)
	}
	// The gauge follows the resident bodies: two now, none after a flush.
	if v, _ := srv.Metrics().GaugeValue("perseus_plan_cache_bytes"); v != float64(len(want)+len(other)) {
		t.Fatalf("perseus_plan_cache_bytes = %v with bodies of %d and %d bytes resident", v, len(want), len(other))
	}
	if _, err := srv.SetGridSignal(testSignal(), ""); err != nil {
		t.Fatal(err)
	}
	if v, _ := srv.Metrics().GaugeValue("perseus_plan_cache_bytes"); v != 0 {
		t.Fatalf("perseus_plan_cache_bytes = %v after the epoch flush", v)
	}
}

// TestGridPlanColdRaceEncodesOnce races many fetches on one cold key
// (run under -race): one solve, one encode, one body.
func TestGridPlanColdRaceEncodesOnce(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	if _, err := srv.SetGridSignal(*grid.Generate(grid.GenOptions{Intervals: 288, IntervalS: 300, Jitter: 0.1, Seed: 3}), ""); err != nil {
		t.Fatal(err)
	}
	const workers = 16
	bodies := make([][]byte, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			resp, err := http.Get(ts.URL + "/grid/plan/" + id + "?iterations=2000")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if bodies[w], err = io.ReadAll(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("worker %d: status %d, err %v", w, resp.StatusCode, err)
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if st := srv.CacheStats(); st.Misses != 1 || st.Hits != workers-1 {
		t.Fatalf("stats %+v, want 1 miss / %d hits", st, workers-1)
	}
	if n := srv.obs.traceSpans.With(spanPlanEncode).Value(); n != 1 {
		t.Fatalf("%v encodes of one entry", n)
	}
	for w := 1; w < workers; w++ {
		if !bytes.Equal(bodies[w], bodies[0]) {
			t.Fatalf("worker %d read a different body", w)
		}
	}
	var p grid.Plan
	if err := p.UnmarshalBinary(bodies[0]); err != nil {
		t.Fatal(err)
	}
	covered := 0
	for _, r := range p.Runs {
		covered += r.Count
	}
	if covered != 288 {
		t.Fatalf("the %d-byte body's runs cover %d of 288 intervals", len(bodies[0]), covered)
	}
}

// countingRW is a ResponseWriter that keeps nothing, so what
// AllocsPerRun sees through it is the handler's own doing.
type countingRW struct {
	hdr  http.Header
	code int
	n    int
}

func (w *countingRW) Header() http.Header         { return w.hdr }
func (w *countingRW) WriteHeader(code int)        { w.code = code }
func (w *countingRW) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// TestGridPlanHitAllocs bounds the cached path: in-process it allocates
// nothing, and through the HTTP handler a small fixed number of objects
// (query parsing, the validator, the trace span) whatever the size of
// the plan — serving a hit neither encodes nor copies the body. The
// counts are exact only without -race: the race runtime's sync.Pool
// drops Puts at random, so a -race build serves the hits unmeasured.
func TestGridPlanHitAllocs(t *testing.T) {
	perHit := map[int]float64{}
	for _, intervals := range []int{24, 288} {
		srv := New()
		id := registerCharacterized(t, srv, JobRequest{
			Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
		}, 4)
		sig := grid.Generate(grid.GenOptions{Intervals: intervals, IntervalS: 86400 / float64(intervals), Jitter: 0.1, Seed: 3})
		if _, err := srv.SetGridSignal(*sig, ""); err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		req := httptest.NewRequest(http.MethodGet, "/grid/plan/"+id+"?iterations=2000", nil)
		w := &countingRW{hdr: http.Header{}}
		serve := func() {
			clear(w.hdr)
			w.code, w.n = http.StatusOK, 0
			h.ServeHTTP(w, req)
		}
		serve() // the miss: solve and encode
		if w.code != http.StatusOK || w.n == 0 {
			t.Fatalf("%d intervals: status %d, %d body bytes", intervals, w.code, w.n)
		}
		if raceEnabled {
			continue
		}
		perHit[intervals] = testing.AllocsPerRun(200, serve)
		if n := testing.AllocsPerRun(200, func() {
			if _, err := srv.GridPlan(id, 2000, 0, ""); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("%d intervals: an in-process hit allocates %v objects", intervals, n)
		}
	}
	if raceEnabled {
		t.Skip("allocation counts vary under -race; go test -run Allocs asserts them")
	}
	if perHit[24] != perHit[288] || perHit[288] > 100 {
		t.Fatalf("a handler hit allocates %v objects at 24 intervals and %v at 288; want equal and at most 100", perHit[24], perHit[288])
	}
}

// TestWriteJSONUnencodable: a value encoding/json refuses (±Inf, NaN)
// must answer 500 with no part of a 200 body, and count as a 500.
func TestWriteJSONUnencodable(t *testing.T) {
	srv := New()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /fleet/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, struct {
			Name string  `json:"name"`
			X    float64 `json:"x"`
		}{"encoded before the float is reached", math.Inf(1)})
	})
	h := srv.obs.middleware(mux)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/fleet/status", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d for an unencodable value, want 500", rec.Code)
	}
	if body := rec.Body.String(); strings.Contains(body, "{") || strings.Contains(body, "encoded before") {
		t.Fatalf("a partial JSON body leaked into the error response: %q", body)
	}
	if n := srv.obs.httpRequests.With("/fleet/status", http.MethodGet, "500").Value(); n != 1 {
		t.Fatalf("perseus_http_requests_total{code=\"500\"} = %v, want 1", n)
	}

	// The encodable case declares its length and is a single JSON value.
	rec = httptest.NewRecorder()
	writeJSON(rec, map[string]int{"a": 1})
	if rec.Code != http.StatusOK || rec.Body.String() != "{\"a\":1}\n" || rec.Header().Get("Content-Length") != "8" {
		t.Fatalf("status %d, body %q, Content-Length %q", rec.Code, rec.Body.String(), rec.Header().Get("Content-Length"))
	}
}

// TestPlanCacheFlushes pins the two ways entries leave the one map: the
// size cap drops everything when a miss finds it full, and a clear()
// that lands mid-solve orphans the flight — its caller and followers
// still get the plan, the map does not.
func TestPlanCacheFlushes(t *testing.T) {
	c := newPlanCache(nil)
	ctx := context.Background()
	solve := func(context.Context) (*grid.Plan, error) { return &grid.Plan{}, nil }
	for i := 0; i < maxPlanCacheEntries; i++ {
		if _, err := c.do(ctx, PlanKey{Epoch: 1, Target: float64(i)}, solve); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.entries) != maxPlanCacheEntries || c.evictions != 0 {
		t.Fatalf("%d entries, %d evictions at the cap", len(c.entries), c.evictions)
	}
	if _, err := c.do(ctx, PlanKey{Epoch: 1, Target: -1}, solve); err != nil {
		t.Fatal(err)
	}
	if len(c.entries) != 1 || c.evictions != maxPlanCacheEntries {
		t.Fatalf("%d entries, %d evictions after the miss past the cap", len(c.entries), c.evictions)
	}

	key := PlanKey{Epoch: 2}
	started, release := make(chan struct{}), make(chan struct{})
	got := make(chan *planEntry, 1)
	go func() {
		e, _ := c.do(ctx, key, func(context.Context) (*grid.Plan, error) {
			close(started)
			<-release
			return &grid.Plan{Target: 7}, nil
		})
		got <- e
	}()
	<-started
	c.clear()
	close(release)
	if e := <-got; e.plan == nil || e.plan.Target != 7 {
		t.Fatalf("the orphaned flight lost its plan: %+v", e)
	}
	if len(c.entries) != 0 {
		t.Fatalf("a plan solved across clear() went back into the map (%d entries)", len(c.entries))
	}
	if _, err := c.do(ctx, key, solve); err != nil || c.misses != maxPlanCacheEntries+3 {
		t.Fatalf("the key did not re-solve after the clear: err %v, %d misses", err, c.misses)
	}
}

// TestHashTableSeparatesNeighbours checks the plan-cache key's table
// component: tables that differ in the last bit of one energy, in one
// time unit or in the unit hash differently, and equal tables alike, as
// do tables that differ only in their frequencies, which no plan reads.
func TestHashTableSeparatesNeighbours(t *testing.T) {
	build := func() *frontier.LookupTable {
		lt := &frontier.LookupTable{Unit: 5e-3, TminUnits: 100, TStarUnits: 139}
		for k := 0; k < 40; k++ {
			pt := frontier.TablePoint{TimeUnits: int64(100 + k), Energy: 9000 - 17.25*float64(k)}
			for i := 0; i < 64; i++ {
				pt.Freqs = append(pt.Freqs, gpu.Frequency(1410-15*((i+k)%40)))
			}
			lt.Points = append(lt.Points, pt)
		}
		return lt
	}
	base := hashTable(build())
	if again := hashTable(build()); again != base {
		t.Fatalf("equal tables hash to %x and %x", base, again)
	}
	refreq := build()
	for _, pt := range refreq.Points {
		pt.Freqs[0] -= 15
		pt.Freqs[1], pt.Freqs[2] = pt.Freqs[2], pt.Freqs[1]
	}
	if h := hashTable(refreq); h != base {
		t.Fatalf("tables differing only in frequencies hash to %x and %x", base, h)
	}
	seen := map[uint64]string{base: "the base table"}
	for name, edit := range map[string]func(*frontier.LookupTable){
		"one energy bit": func(lt *frontier.LookupTable) {
			lt.Points[20].Energy = math.Float64frombits(math.Float64bits(lt.Points[20].Energy) ^ 1)
		},
		"one time unit": func(lt *frontier.LookupTable) { lt.Points[39].TimeUnits++ },
		"the unit":      func(lt *frontier.LookupTable) { lt.Unit = 4e-3 },
	} {
		lt := build()
		edit(lt)
		h := hashTable(lt)
		if other, dup := seen[h]; dup {
			t.Errorf("%s: hashes like %s (%x)", name, other, h)
		}
		seen[h] = name
	}
}
