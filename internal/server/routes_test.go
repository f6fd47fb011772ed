package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"perseus/internal/gpu"
)

// routeMethods groups the registered patterns by path: path → the
// methods registered for it.
func routeMethods(s *Server) map[string][]string {
	byPath := map[string][]string{}
	for _, rt := range s.routes() {
		method, path, _ := strings.Cut(rt.pattern, " ")
		byPath[path] = append(byPath[path], method)
	}
	return byPath
}

// do sends a bodyless request and returns the response, body closed.
func do(t *testing.T, method, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestWrongMethodIs405 walks the registered routes and sends each path
// every method it is not registered for: the answer is 405 with an
// Allow header naming the registered ones. At the parent the GET-only
// job sub-resources (frontier, table, allocation, emissions, rollout)
// served any method.
func TestWrongMethodIs405(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id, err := srv.Register(JobRequest{Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe"})
	if err != nil {
		t.Fatal(err)
	}
	for path, allowed := range routeMethods(srv) {
		url := ts.URL + strings.ReplaceAll(path, "{id}", id)
		for _, method := range []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodPatch, http.MethodDelete} {
			if slices.Contains(allowed, method) {
				continue
			}
			resp := do(t, method, url)
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s = %d, want 405", method, path, resp.StatusCode)
				continue
			}
			allow := resp.Header.Get("Allow")
			for _, m := range allowed {
				if !strings.Contains(allow, m) {
					t.Errorf("%s %s: Allow %q does not name %s", method, path, allow, m)
				}
			}
		}
	}
	if _, ok := srv.st.job(id); !ok {
		t.Fatal("the sweep's wrong-method requests removed the job")
	}
}

// TestWrongMethodDoesNotSettle: at the parent DELETE
// /jobs/{id}/emissions ran the GET handler and settled the account.
func TestWrongMethodDoesNotSettle(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	srv := New()
	srv.SetClock(clock.Now)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	emissionsURL := ts.URL + "/jobs/" + id + "/emissions"
	rejectDelete := func() {
		t.Helper()
		if resp := do(t, http.MethodDelete, emissionsURL); resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("DELETE emissions = %d, want 405", resp.StatusCode)
		}
	}
	clock.Advance(time.Hour)
	var before, after EmissionsResponse
	get(t, emissionsURL, &before)
	rejectDelete()
	get(t, emissionsURL, &after)
	if after != before {
		t.Fatalf("emissions moved across a rejected DELETE: %+v, was %+v", after, before)
	}

	// An hour later a settle would move the account's clock.
	settledAt := func() time.Time {
		j, _ := srv.st.job(id)
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.accAt
	}
	at := settledAt()
	clock.Advance(time.Hour)
	rejectDelete()
	if got := settledAt(); !got.Equal(at) {
		t.Fatalf("a rejected DELETE settled the account: settled at %v, was %v", got, at)
	}
}

// padded returns body (a JSON object) with a leading "pad" member
// sized so the whole is exactly n bytes; every request type ignores
// the unknown member, so only the size distinguishes the bodies.
func padded(t *testing.T, body any, n int) []byte {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	const frame = len(`{"pad":"",`)
	out := append([]byte(`{"pad":"`), bytes.Repeat([]byte{'x'}, n-frame-(len(buf)-1))...)
	out = append(append(out, `",`...), buf[1:]...)
	if len(out) != n {
		t.Fatalf("padded body is %d bytes, want %d", len(out), n)
	}
	return out
}

// filled returns up's body grown to exactly n bytes by rows repeating
// its types: copies of its rows, then rows repeating its first
// measurement, the last of them taking what is left. The repeats add no
// (type, frequency) cell up lacks, so the profile characterizes as up's
// does.
func filled(t *testing.T, up ProfileUpload, n int) []byte {
	t.Helper()
	marshal := func(ms ...MeasurementJSON) []byte {
		buf, err := ProfileUpload{PBlocking: up.PBlocking, Measurements: ms}.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	// A body is a 16-byte header ("PPF1", p_blocking_w, type count), then
	// its rows.
	own := marshal(up.Measurements...)
	types, rows := int(binary.LittleEndian.Uint32(own[12:])), own[16:]
	copies := (n-16)/len(rows) - 1
	// What is left takes j more rows, 9 bytes each plus 20 a measurement:
	// 9j ≡ rest (mod 20), and 9·9 ≡ 1.
	rest := n - 16 - copies*len(rows)
	j := 9 * rest % 20
	if j == 0 {
		j = 20
	}
	body := append(make([]byte, 0, n), own[:16]...)
	binary.LittleEndian.PutUint32(body[12:], uint32(copies*types+j))
	body = append(body, bytes.Repeat(rows, copies)...)
	for range j - 1 {
		body = append(body, marshal(up.Measurements[0])[16:]...)
	}
	last := slices.Repeat(up.Measurements[:1], (rest-9*j)/20-(j-1))
	body = append(body, marshal(last...)[16:]...)
	if len(body) != n {
		t.Fatalf("filled body is %d bytes, want %d", len(body), n)
	}
	return body
}

// postProfile posts a binary profile body to url.
func postProfile(t *testing.T, url string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(msg)
}

// TestBodyLimit: a body over maxBodyBytes answers 413 and leaves no
// trace; one of exactly maxBodyBytes is served. At the parent every body
// was read to its end.
func TestBodyLimit(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(path string, body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	req := JobRequest{Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3}

	if code := post("/jobs", padded(t, req, maxBodyBytes+1)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit POST /jobs = %d, want 413", code)
	}
	if n := srv.Health().Jobs; n != 0 {
		t.Fatalf("an over-limit POST /jobs registered %d jobs", n)
	}
	if code := post("/jobs", padded(t, req, maxBodyBytes)); code != http.StatusOK {
		t.Fatalf("POST /jobs of exactly maxBodyBytes = %d, want 200", code)
	}
	const id = "job-1"

	sig := GridSignalRequest{Signal: testSignal()}
	if code := post("/grid/signal", padded(t, sig, maxBodyBytes+1)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit POST /grid/signal = %d, want 413", code)
	}
	if srv.Health().SignalInstalled {
		t.Fatal("an over-limit POST /grid/signal installed a signal")
	}

	g, err := gpu.ByName(req.GPU)
	if err != nil {
		t.Fatal(err)
	}
	up := buildUpload(t, g, req.Stages, 4)
	url := ts.URL + "/jobs/" + id + "/profile"
	if code, msg := postProfile(t, url, filled(t, up, maxBodyBytes+1)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit POST profile = %d %q, want 413", code, msg)
	}
	// Nothing was stored: the same profile at a legitimate size is a
	// first upload, not "already profiled".
	if code, msg := postProfile(t, url, filled(t, up, maxBodyBytes)); code != http.StatusAccepted {
		t.Fatalf("POST profile of exactly maxBodyBytes = %d %q, want 202", code, msg)
	}
	if err := srv.WaitCharacterized(id); err != nil {
		t.Fatal(err)
	}
}

// TestProfileBodyErrors: a profile body that is not PPF1 (a JSON one
// included), that is cut short or followed by anything, or that carries
// an unknown kind code or a NaN answers 400 naming the format and stores
// nothing, so the job's next, well-formed upload is its first.
func TestProfileBodyErrors(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	req := JobRequest{Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3}
	id, err := srv.Register(req)
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/jobs/" + id + "/profile"
	g, err := gpu.ByName(req.GPU)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := buildUpload(t, g, req.Stages, 4).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	edited := func(at int, b ...byte) []byte {
		return append(append(slices.Clone(buf[:at]), b...), buf[at+len(b):]...)
	}
	nan := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))
	for name, body := range map[string][]byte{
		"a JSON body":            []byte(`{"p_blocking_w":75,"types":[{"virtual":0,"kind":"forward","freq_mhz":[1410],"time_s":[1],"energy_j":[3]}]}`),
		"a body cut short":       buf[:len(buf)-1],
		"a body followed by {}":  append(slices.Clone(buf), " {}"...),
		"a body followed by NUL": append(slices.Clone(buf), 0),
		"kind code 2":            edited(16+4, 2),
		"a NaN p_blocking_w":     edited(4, nan...),
		"a NaN energy":           edited(len(buf)-8, nan...),
	} {
		if code, msg := postProfile(t, url, body); code != http.StatusBadRequest || !strings.Contains(msg, "PPF1") {
			t.Fatalf("%s = %d %q, want 400 naming PPF1", name, code, msg)
		}
	}
	if code, msg := postProfile(t, url, buf); code != http.StatusAccepted {
		t.Fatalf("well-formed upload after the rejected ones = %d %q, want 202", code, msg)
	}
	if err := srv.WaitCharacterized(id); err != nil {
		t.Fatal(err)
	}
}

// TestReadBodyAllocs: a body read at its declared length allocates its
// buffer once, whatever the size, and a declared length that is off
// still reads the whole body.
func TestReadBodyAllocs(t *testing.T) {
	var rd bytes.Reader
	for _, n := range []int{1, 511, 512, 513, 26080, maxBodyBytes} {
		body := bytes.Repeat([]byte{7}, n)
		for _, declared := range []int64{int64(n), int64(n / 2), int64(2 * n), 0, -1} {
			rd.Reset(body)
			if got, err := readBody(&rd, declared); err != nil || !bytes.Equal(got, body) {
				t.Fatalf("%d bytes declared %d: read %d bytes, %v", n, declared, len(got), err)
			}
		}
		allocs := testing.AllocsPerRun(5, func() {
			rd.Reset(body)
			if _, err := readBody(&rd, int64(n)); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Fatalf("%d bytes at their declared length: %v allocations, want 1", n, allocs)
		}
	}
}

// TestProfileDeclaredLength: the profile upload's Content-Length only
// sizes its read. A body cut short or run long answers 400 whatever
// length it declares, one over maxBodyBytes 413, and a well-formed body
// that declares the wrong length is still read whole.
func TestProfileDeclaredLength(t *testing.T) {
	srv := New()
	req := JobRequest{Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3}
	id, err := srv.Register(req)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gpu.ByName(req.GPU)
	if err != nil {
		t.Fatal(err)
	}
	up := buildUpload(t, g, req.Stages, 4)
	buf, err := up.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	post := func(body []byte, declared int64) int {
		t.Helper()
		r := httptest.NewRequest(http.MethodPost, "/jobs/"+id+"/profile", bytes.NewReader(body))
		r.ContentLength = declared
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, r)
		return w.Code
	}
	short, long := buf[:len(buf)-1], append(slices.Clone(buf), 0)
	for _, c := range []struct {
		name     string
		body     []byte
		declared int64
		want     int
	}{
		{"short, declared whole", short, int64(len(buf)), http.StatusBadRequest},
		{"short, declared as sent", short, int64(len(short)), http.StatusBadRequest},
		{"long, declared whole", long, int64(len(buf)), http.StatusBadRequest},
		{"long, declared as sent", long, int64(len(long)), http.StatusBadRequest},
		{"oversized, declared small", filled(t, up, maxBodyBytes+1), 100, http.StatusRequestEntityTooLarge},
		{"oversized, declared as sent", filled(t, up, maxBodyBytes+1), maxBodyBytes + 1, http.StatusRequestEntityTooLarge},
		{"whole, declared short", buf, int64(len(buf) / 2), http.StatusAccepted},
	} {
		if code := post(c.body, c.declared); code != c.want {
			t.Fatalf("%s: %d, want %d", c.name, code, c.want)
		}
	}
	if err := srv.WaitCharacterized(id); err != nil {
		t.Fatal(err)
	}
}

// TestJSONBodyTrailingBytes: a JSON body must be one value followed by
// nothing but white space. Bytes after the value, a second value, or a
// stray closing brace answer 400 and register nothing; a body ending in
// the newline json.Encoder writes is accepted.
func TestJSONBodyTrailingBytes(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, err := json.Marshal(JobRequest{Schedule: "1f1b", Stages: 2, Microbatches: 3, GPU: "A100-PCIe", Unit: 5e-3})
	if err != nil {
		t.Fatal(err)
	}
	post := func(b []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	for _, trailer := range []string{" garbage", "{}", "}", "\n0"} {
		if code, msg := post(append(slices.Clone(body), trailer...)); code != http.StatusBadRequest {
			t.Fatalf("POST /jobs with %q after the body = %d %q, want 400", trailer, code, msg)
		}
	}
	if n := srv.Health().Jobs; n != 0 {
		t.Fatalf("rejected bodies registered %d jobs", n)
	}
	if code, msg := post(append(body, '\n')); code != http.StatusOK {
		t.Fatalf("POST /jobs with a newline-terminated body = %d %q, want 200", code, msg)
	}
}

var routeLabelRE = regexp.MustCompile(`(?m)^perseus_http_requests_total\{route="([^"]*)",method="([^"]*)",code="([^"]*)"\}`)

// TestRouteLabelsAreRegisteredPatterns: whatever is requested — valid,
// wrong method, unknown job, garbage — every route label in /metrics is
// a registered pattern's path or "other", and the labels of requests a
// handler answered are the ones the parent's hand-kept list gave.
func TestRouteLabelsAreRegisteredPatterns(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	byPath := routeMethods(srv)
	for path, methods := range byPath {
		for _, jobID := range []string{id, "nope"} {
			url := ts.URL + strings.ReplaceAll(path, "{id}", jobID)
			for _, m := range methods {
				if m != http.MethodDelete { // keep the job for the rest of the sweep
					do(t, m, url)
				}
			}
			do(t, http.MethodPut, url)
		}
	}
	for _, path := range []string{"/", "/jobs/", "/jobs/x/y/z", "/jobs/" + id + "/nope", "/grid/plan/a/b", "/grid/plan/", "/controller/nope", "/debug", "/metrics/x"} {
		do(t, http.MethodGet, ts.URL+path)
		do(t, http.MethodPost, ts.URL+path)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range routeLabelRE.FindAllStringSubmatch(string(text), -1) {
		route, method, code := m[1], m[2], m[3]
		seen[route+" "+method+" "+code] = true
		if _, ok := byPath[route]; !ok && route != "other" {
			t.Errorf("route label %q is neither a registered pattern nor other", route)
		}
		if route == "other" && code != "404" && code != "405" {
			t.Errorf("a %s %s request was labelled other", method, code)
		}
	}
	for _, want := range []string{
		"/jobs/{id}/schedule GET 200",
		"/jobs/{id}/schedule GET 404", // unknown job: a handler's 404 keeps its route
		"/grid/plan/{id} GET 404",
		"/jobs/{id}/placement GET 200",
		"/controller/tick POST 200",
		"/fleet/status GET 200",
		"other PUT 405", // the mux's own answers
		"other GET 404",
		"other POST 404",
	} {
		if !seen[want] {
			t.Errorf("no perseus_http_requests_total series for %q", want)
		}
	}
}

var readmeEndpointRE = regexp.MustCompile("(?m)^\\| `((?:GET|POST|PUT|PATCH|DELETE) /[^`]*)` \\|")

// TestREADMEEndpointTable keeps README's endpoint table equal to the
// registration list.
func TestREADMEEndpointTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented, registered []string
	for _, m := range readmeEndpointRE.FindAllSubmatch(readme, -1) {
		documented = append(documented, string(m[1]))
	}
	for _, rt := range New().routes() {
		registered = append(registered, rt.pattern)
	}
	if !slices.Equal(documented, registered) {
		t.Fatalf("README's endpoint table and routes() differ:\nREADME: %q\nroutes: %q", documented, registered)
	}
}
