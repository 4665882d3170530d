package cashd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"spatial/api"
	"spatial/internal/serve"
)

const (
	srcLoop = `
int f(int n) {
  int i; int s = 0;
  for (i = 0; i < n; i++) s += i;
  return s;
}`
	srcAdd = `int f(int a, int b) { return a + b; }`
	// srcSlow runs long enough to hold a worker while a test builds up
	// queue pressure, but dies promptly under a millisecond deadline.
	srcSlow = `
int f(void) {
  int i; int s = 0;
  for (i = 0; i < 100000000; i++) s += i;
  return s;
}`
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding %T from status %d: %v", v, resp.StatusCode, err)
	}
	return v
}

// TestDifferentialRun is the wire-fidelity gate: a run served over HTTP
// must be bit-identical to the same request submitted to a serve.Engine
// directly — value, every stats counter, and the cache-hit flag.
func TestDifferentialRun(t *testing.T) {
	s, ts := newTestServer(t, Config{Engine: serve.Config{Workers: 2, CacheEntries: 8}})

	// Direct reference from a separate engine with the same config.
	ref := serve.New(serve.Config{Workers: 2, CacheEntries: 8})
	defer ref.Close()

	cases := []api.RunRequest{
		{Program: api.Program{Source: srcLoop, Level: api.LevelFull}, Entry: "f", Args: []int64{10}},
		{Program: api.Program{Source: srcLoop, Level: api.LevelNone}, Entry: "f", Args: []int64{10}},
		{Program: api.Program{Source: srcAdd, Level: api.LevelMedium}, Entry: "f", Args: []int64{3, 4}},
		{Program: api.Program{Source: srcLoop, Level: api.LevelFull, Backend: api.BackendCompiled}, Entry: "f", Args: []int64{10}},
		{Program: api.Program{Source: srcLoop, Level: api.LevelFull, Partitions: 3}, Entry: "f", Args: []int64{10}},
	}
	for i, rr := range cases {
		want, err := ref.Do(context.Background(), serve.Request{Program: rr.Program, Entry: rr.Entry, Args: rr.Args})
		if err != nil {
			t.Fatalf("case %d: direct: %v", i, err)
		}
		resp := post(t, ts.URL+"/v1/run", rr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("case %d: status %d", i, resp.StatusCode)
		}
		got := decodeBody[api.RunResponse](t, resp)
		if got.Value != want.Value {
			t.Errorf("case %d: value %d over HTTP, %d direct", i, got.Value, want.Value)
		}
		wantStats := toWireStats(want.Stats)
		if got.Stats != wantStats {
			t.Errorf("case %d: stats diverged:\n http  %+v\n direct %+v", i, got.Stats, wantStats)
		}
		if got.CacheHit != want.CacheHit {
			t.Errorf("case %d: cache hit %v over HTTP, %v direct", i, got.CacheHit, want.CacheHit)
		}
	}

	// Second submission of case 0 must now hit the daemon's cache.
	resp := post(t, ts.URL+"/v1/run", cases[0])
	if got := decodeBody[api.RunResponse](t, resp); !got.CacheHit {
		t.Error("repeat request missed the cache over HTTP")
	}
	if hits := s.Engine().Stats().CacheHits; hits == 0 {
		t.Error("engine recorded no cache hits")
	}
}

// TestDifferentialBatch: /v1/batch preserves request order and matches
// DoBatch item by item.
func TestDifferentialBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: serve.Config{Workers: 2, QueueDepth: 2, CacheEntries: 8}})
	ref := serve.New(serve.Config{Workers: 2, QueueDepth: 2, CacheEntries: 8})
	defer ref.Close()

	var wire api.BatchRequest
	var direct []serve.Request
	for i := 0; i < 9; i++ {
		rr := api.RunRequest{
			Program: api.Program{Source: srcAdd, Level: api.LevelFull},
			Entry:   "f", Args: []int64{int64(i), 100},
		}
		wire.Runs = append(wire.Runs, rr)
		direct = append(direct, serve.Request{Program: rr.Program, Entry: rr.Entry, Args: rr.Args})
	}
	// One failing item mid-batch: errors must stay positional.
	bad := api.RunRequest{Program: api.Program{Source: "int f( {", Level: api.LevelNone}, Entry: "f"}
	wire.Runs = append(wire.Runs[:4], append([]api.RunRequest{bad}, wire.Runs[4:]...)...)
	direct = append(direct[:4], append([]serve.Request{{Program: bad.Program, Entry: "f"}}, direct[4:]...)...)

	want := ref.DoBatch(context.Background(), direct)
	resp := post(t, ts.URL+"/v1/batch", wire)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := decodeBody[api.BatchResponse](t, resp)
	if len(got.Results) != len(want) {
		t.Fatalf("%d results over HTTP, %d direct", len(got.Results), len(want))
	}
	for i := range want {
		switch {
		case want[i].Err != nil:
			if got.Results[i].Err == nil {
				t.Errorf("item %d: HTTP succeeded where direct failed (%v)", i, want[i].Err)
				continue
			}
			if got.Results[i].Err.Class != api.ClassCompile {
				t.Errorf("item %d: error class %q, want compile", i, got.Results[i].Err.Class)
			}
		default:
			r := got.Results[i].Run
			if r == nil {
				t.Errorf("item %d: HTTP failed where direct succeeded", i)
				continue
			}
			if r.Value != want[i].Resp.Value || r.Stats != toWireStats(want[i].Resp.Stats) {
				t.Errorf("item %d diverged from direct submission", i)
			}
		}
	}
}

// TestStatusMapping is the table-driven wire-error gate: each failure
// mode maps to its fixed status with a typed api.Error body whose Status
// field echoes the HTTP status.
func TestStatusMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: serve.Config{Workers: 1, CacheEntries: 4}})

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		class  api.Class
	}{
		{"malformed json", "POST", "/v1/run", "{not json", http.StatusBadRequest, api.ClassBadRequest},
		{"unknown field", "POST", "/v1/run", `{"source":"int f(void){return 1;}","entry":"f","bogus":1}`, http.StatusBadRequest, api.ClassBadRequest},
		{"trailing garbage", "POST", "/v1/run", `{"source":"int f(void){return 1;}"} trailing`, http.StatusBadRequest, api.ClassBadRequest},
		{"empty source", "POST", "/v1/run", `{"source":""}`, http.StatusBadRequest, api.ClassBadRequest},
		{"compile error", "POST", "/v1/run", `{"source":"int f( {","entry":"f"}`, http.StatusUnprocessableEntity, api.ClassCompile},
		{"bad level", "POST", "/v1/run", `{"source":"int f(void){return 1;}","level":99,"entry":"f"}`, http.StatusUnprocessableEntity, api.ClassCompile},
		{"oversized array", "POST", "/v1/run", `{"source":"int a[1073741824]; int b; int f(void) { b = 7; a[1024] = 3; return b; }","entry":"f"}`, http.StatusUnprocessableEntity, api.ClassCompile},
		{"oversized cache", "POST", "/v1/run", `{"source":"int f(void){return 1;}","entry":"f","sim":{"mem":{"kind":"realistic","l2_bytes":8388608}}}`, http.StatusUnprocessableEntity, api.ClassCompile},
		{"deadline", "POST", "/v1/run", fmt.Sprintf(`{"source":%q,"entry":"f","timeout_ms":1}`, srcSlow), http.StatusGatewayTimeout, api.ClassDeadline},
		{"compile endpoint error", "POST", "/v1/compile", `{"source":"int f( {"}`, http.StatusUnprocessableEntity, api.ClassCompile},
		{"empty batch", "POST", "/v1/batch", `{"runs":[]}`, http.StatusBadRequest, api.ClassBadRequest},
		{"trace in batch", "POST", "/v1/batch", `{"runs":[{"source":"int f(void){return 1;}","entry":"f","trace":true}]}`, http.StatusBadRequest, api.ClassBadRequest},
		// The deprecated edge_cap accepts only the one depth the engines
		// model.
		{"edge cap 2", "POST", "/v1/run", `{"source":"int f(void){return 1;}","entry":"f","sim":{"edge_cap":2}}`, http.StatusUnprocessableEntity, api.ClassCompile},
		{"edge cap 8", "POST", "/v1/compile", `{"source":"int f(void){return 1;}","sim":{"edge_cap":8}}`, http.StatusUnprocessableEntity, api.ClassCompile},
		{"edge cap -1", "POST", "/v1/run", `{"source":"int f(void){return 1;}","entry":"f","sim":{"edge_cap":-1}}`, http.StatusUnprocessableEntity, api.ClassCompile},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			e := decodeBody[api.Error](t, resp)
			if e.Class != tc.class {
				t.Errorf("class %q, want %q", e.Class, tc.class)
			}
			if e.Status != tc.status {
				t.Errorf("body status %d, want %d (must echo the HTTP status)", e.Status, tc.status)
			}
			if e.Message == "" {
				t.Error("empty error message")
			}
			if strings.HasPrefix(tc.name, "edge cap") && !strings.Contains(e.Message, "edge_cap") {
				t.Errorf("message %q does not name the field edge_cap", e.Message)
			}
		})
	}

	// edge_cap 0 and 1 are accepted and share the compile-cache entry of
	// an absent field: after the first compile, both are cache hits. The
	// response key is api.Program.Key of the body as sent, so the three
	// bodies get three keys for the one cache entry.
	keys := map[string]bool{}
	for i, body := range []string{
		`{"source":"int f(void){return 2;}"}`,
		`{"source":"int f(void){return 2;}","sim":{"edge_cap":0}}`,
		`{"source":"int f(void){return 2;}","sim":{"edge_cap":1}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", body, resp.StatusCode)
		}
		cr := decodeBody[api.CompileResponse](t, resp)
		if cr.CacheHit != (i > 0) {
			t.Errorf("%s: cache hit %v, want %v (one cache key for absent, 0 and 1)", body, cr.CacheHit, i > 0)
		}
		var prog api.Program
		if err := json.Unmarshal([]byte(body), &prog); err != nil {
			t.Fatal(err)
		}
		if want := prog.Key().String(); cr.Key != want {
			t.Errorf("%s: key %q, want api.Program.Key %q", body, cr.Key, want)
		}
		keys[cr.Key] = true
	}
	if len(keys) != 3 {
		t.Errorf("%d distinct keys for three bodies, want 3 (the key addresses the wire form)", len(keys))
	}

	// GET /v1/trace/{id} for an unknown id → 404 not_found.
	resp, err := http.Get(ts.URL + "/v1/trace/doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace: status %d, want 404", resp.StatusCode)
	}
	if e := decodeBody[api.Error](t, resp); e.Class != api.ClassNotFound {
		t.Errorf("unknown trace: class %q, want not_found", e.Class)
	}
}

// TestOverloadSheds fills the single worker and the one-slot queue with
// slow runs, then verifies that the next run, traced run and compile
// over HTTP are each shed with 429, a Retry-After header, and a
// temporary typed error.
func TestOverloadSheds(t *testing.T) {
	s, ts := newTestServer(t, Config{Engine: serve.Config{Workers: 1, QueueDepth: 1, CacheEntries: 4}})

	slow := api.RunRequest{
		Program:   api.Program{Source: srcSlow, Level: api.LevelNone},
		Entry:     "f",
		TimeoutMS: 2000,
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := post(t, ts.URL+"/v1/run", slow)
			resp.Body.Close()
		}()
	}
	defer wg.Wait()
	// Wait until one slow run occupies the worker and the other occupies
	// the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.Engine().Stats().QueueLen < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	traced := slow
	traced.Trace = true
	for _, in := range []struct {
		name, path string
		body       any
	}{
		{"run", "/v1/run", slow},
		{"traced run", "/v1/run", traced},
		{"compile", "/v1/compile", api.CompileRequest{Source: srcAdd}},
	} {
		resp := post(t, ts.URL+in.path, in.body)
		if resp.StatusCode != http.StatusTooManyRequests {
			resp.Body.Close()
			t.Errorf("%s: status %d, want 429", in.name, resp.StatusCode)
			continue
		}
		if ra := resp.Header.Get("Retry-After"); ra != "1" {
			t.Errorf("%s: Retry-After %q, want 1 (seconds, rounded up)", in.name, ra)
		}
		e := decodeBody[api.Error](t, resp)
		if e.Class != api.ClassOverload {
			t.Errorf("%s: class %q, want overload", in.name, e.Class)
		}
		if !e.Temporary() {
			t.Errorf("%s: overload error not marked temporary", in.name)
		}
		if e.RetryAfterMS != overloadRetryAfter.Milliseconds() {
			t.Errorf("%s: retry_after_ms %d, want %d", in.name, e.RetryAfterMS, overloadRetryAfter.Milliseconds())
		}
	}
	if got := s.Engine().Stats().Rejected; got != 3 {
		t.Errorf("engine shed %d requests, want 3", got)
	}
}

// TestTraceDownload runs with trace recording and downloads the Chrome
// trace: valid JSON with a traceEvents array.
func TestTraceDownload(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: serve.Config{Workers: 1, CacheEntries: 4}})

	rr := api.RunRequest{
		Program: api.Program{Source: srcLoop, Level: api.LevelFull},
		Entry:   "f", Args: []int64{10}, Trace: true,
	}
	resp := post(t, ts.URL+"/v1/run", rr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced run: status %d", resp.StatusCode)
	}
	run := decodeBody[api.RunResponse](t, resp)
	if run.Value != 45 {
		t.Fatalf("traced f(10) = %d, want 45", run.Value)
	}
	if run.TraceID == "" {
		t.Fatal("traced run returned no trace_id")
	}

	dl, err := http.Get(ts.URL + "/v1/trace/" + run.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	if dl.StatusCode != http.StatusOK {
		t.Fatalf("trace download: status %d", dl.StatusCode)
	}
	if cd := dl.Header.Get("Content-Disposition"); !strings.Contains(cd, run.TraceID) {
		t.Errorf("Content-Disposition %q does not name the trace", cd)
	}
	// Chrome's trace viewer accepts the bare event-array form.
	var events []json.RawMessage
	if err := json.NewDecoder(dl.Body).Decode(&events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	dl.Body.Close()
	if len(events) == 0 {
		t.Error("trace has no events")
	}
}

// TestTracedRunDeadline: a traced run honours the request's TimeoutMS
// like a plain run. The spin never returns, so without the deadline it
// would run to its 20M-cycle budget, which takes tens of seconds traced.
func TestTracedRunDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: serve.Config{Workers: 1, CacheEntries: 4}})

	rr := api.RunRequest{
		Program: api.Program{
			Source: `int f(int n) { while (n > 0) { } return 0; }`,
			Sim:    &api.SimConfig{MaxCycles: 20_000_000},
		},
		Entry: "f", Args: []int64{1}, Trace: true, TimeoutMS: 100,
	}
	start := time.Now()
	resp := post(t, ts.URL+"/v1/run", rr)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if e := decodeBody[api.Error](t, resp); e.Class != api.ClassDeadline {
		t.Errorf("class %q, want deadline", e.Class)
	}
	if elapsed > 5*time.Second {
		t.Errorf("traced run took %v to honour a 100 ms deadline", elapsed)
	}
}

// TestTracedRunBudget: a traced run's record is bounded by the wire trace
// budget, not the library's defaults, since its source is untrusted and
// the daemon keeps several traces. f(20000) fires about 280,000 times;
// the run completes with the right value, and its stored trace keeps
// exactly the budget's 1<<18 firings and reports the truncation.
func TestTracedRunBudget(t *testing.T) {
	s, ts := newTestServer(t, Config{Engine: serve.Config{Workers: 1, CacheEntries: 4}})

	rr := api.RunRequest{
		Program: api.Program{Source: srcLoop, Level: api.LevelFull},
		Entry:   "f", Args: []int64{20000}, Trace: true,
	}
	resp := post(t, ts.URL+"/v1/run", rr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced run: status %d", resp.StatusCode)
	}
	run := decodeBody[api.RunResponse](t, resp)
	if want := int64(20000 * 19999 / 2); run.Value != want {
		t.Fatalf("traced f(20000) = %d, want %d", run.Value, want)
	}
	tr := s.traces.get(run.TraceID)
	if tr == nil {
		t.Fatalf("trace %q not stored", run.TraceID)
	}
	if len(tr.Firings) != 1<<18 || !tr.Truncated {
		t.Errorf("stored trace holds %d firings (truncated %v), want %d (truncated true)",
			len(tr.Firings), tr.Truncated, 1<<18)
	}
}

// TestTraceStoreBound: the oldest trace is dropped once the bound hits.
func TestTraceStoreBound(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: serve.Config{Workers: 1, CacheEntries: 4}, MaxTraces: 2})

	ids := make([]string, 3)
	for i := range ids {
		rr := api.RunRequest{
			Program: api.Program{Source: srcAdd, Level: api.LevelFull},
			Entry:   "f", Args: []int64{int64(i), 1}, Trace: true,
		}
		resp := post(t, ts.URL+"/v1/run", rr)
		ids[i] = decodeBody[api.RunResponse](t, resp).TraceID
	}
	if resp, _ := http.Get(ts.URL + "/v1/trace/" + ids[0]); resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest trace still resident: status %d, want 404", resp.StatusCode)
	}
	for _, id := range ids[1:] {
		if resp, _ := http.Get(ts.URL + "/v1/trace/" + id); resp.StatusCode != http.StatusOK {
			t.Errorf("recent trace %s: status %d, want 200", id, resp.StatusCode)
		}
	}
}

// TestMetrics exercises the exposition after live traffic: engine
// counters, the hit-rate gauge, and both latency histograms must appear
// with self-consistent values. A traced run counts as a completed run
// and lands in the run histogram like any other.
func TestMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: serve.Config{Workers: 1, CacheEntries: 4}})

	rr := api.RunRequest{Program: api.Program{Source: srcLoop, Level: api.LevelFull}, Entry: "f", Args: []int64{10}}
	for i := 0; i < 4; i++ {
		rr.Trace = i == 3
		resp := post(t, ts.URL+"/v1/run", rr)
		resp.Body.Close()
	}
	post(t, ts.URL+"/v1/run", api.RunRequest{Program: api.Program{Source: "int f( {"}, Entry: "f"}).Body.Close()
	post(t, ts.URL+"/v1/compile", api.CompileRequest{Source: srcAdd, Level: api.LevelFull}).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()

	for _, want := range []string{
		`cashd_requests_total{endpoint="compile",status="200"} 1`,
		`cashd_requests_total{endpoint="run",status="200"} 4`,
		`cashd_requests_total{endpoint="run",status="422"} 1`,
		// Every served run, the traced one included, is a completion and
		// a run-histogram entry.
		"cashd_runs_completed_total 4",
		"cashd_runs_failed_total 1",
		"cashd_cache_hits_total 3",
		"cashd_cache_misses_total 3",
		"cashd_run_duration_seconds_count 4",
		"cashd_run_duration_seconds_bucket",
		"cashd_compile_duration_seconds_count 1",
		"cashd_run_duration_seconds_p50",
		"cashd_run_duration_seconds_p99",
		"cashd_shed_rate 0",
		"cashd_queue_capacity 4",
		"cashd_traces_resident 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n----\n%s", want, text)
		}
	}
}

// TestBatchMetrics: every run of a batch is a completion and a
// run-histogram entry, so the two counts agree after a batch.
func TestBatchMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: serve.Config{Workers: 1, CacheEntries: 4}})
	var batch api.BatchRequest
	for i := 0; i < 3; i++ {
		batch.Runs = append(batch.Runs, api.RunRequest{Program: api.Program{Source: srcAdd}, Entry: "f", Args: []int64{int64(i), 1}})
	}
	resp := post(t, ts.URL+"/v1/batch", batch)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, want := range []string{"cashd_runs_completed_total 3", "cashd_run_duration_seconds_count 3"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q\n----\n%s", want, buf.String())
		}
	}
}

// TestHealthz: liveness is a plain 200.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: serve.Config{Workers: 1, CacheEntries: 4}})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
}
