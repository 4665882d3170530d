package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"spatial/api"
	"spatial/internal/cashd"
	"spatial/internal/serve"
)

const srcLoop = `
int f(int n) {
  int i; int s = 0;
  for (i = 0; i < n; i++) s += i;
  return s;
}`

// startDaemon runs a real cashd behind httptest and returns it with its
// base URL.
func startDaemon(t *testing.T, cfg cashd.Config) (*cashd.Server, string) {
	t.Helper()
	srv, err := cashd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts.URL
}

func TestRunAndCompile(t *testing.T) {
	_, url := startDaemon(t, cashd.Config{Engine: serve.Config{Workers: 1, CacheEntries: 4}})
	c, err := New(Config{Peers: []string{url}})
	if err != nil {
		t.Fatal(err)
	}

	prog := api.Program{Source: srcLoop, Level: api.LevelFull}
	cr, err := c.Compile(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if cr.CacheHit {
		t.Error("first compile reported a cache hit")
	}
	if cr.Key != prog.Key().String() {
		t.Errorf("compile key %q, want %q", cr.Key, prog.Key().String())
	}

	rr, err := c.Run(context.Background(), api.RunRequest{Program: prog, Entry: "f", Args: []int64{10}})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Value != 45 {
		t.Errorf("f(10) = %d, want 45", rr.Value)
	}
	if !rr.CacheHit {
		t.Error("run after compile missed the cache")
	}

	// Typed failure: a compile error surfaces as *api.Error, not retried.
	_, err = c.Run(context.Background(), api.RunRequest{Program: api.Program{Source: "int f( {"}, Entry: "f"})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Class != api.ClassCompile {
		t.Fatalf("err = %v, want api.Error with class compile", err)
	}
}

// TestRetryOnOverload: the client retries 429s on its own backoff
// schedule and succeeds once the daemon stops shedding.
func TestRetryOnOverload(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(&api.Error{
				Class: api.ClassOverload, Message: "shed", Status: 429, RetryAfterMS: 1,
			})
			return
		}
		json.NewEncoder(w).Encode(&api.RunResponse{Value: 7})
	}))
	defer ts.Close()

	c, err := New(Config{Peers: []string{ts.URL}, BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := c.Run(context.Background(), api.RunRequest{Program: api.Program{Source: "x"}, Entry: "f"})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Value != 7 {
		t.Errorf("value %d, want 7", rr.Value)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("%d attempts, want 3 (two sheds, one success)", got)
	}
}

// TestRetriesExhausted: a permanently shedding daemon yields the typed
// overload error after MaxRetries+1 attempts.
func TestRetriesExhausted(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(&api.Error{Class: api.ClassOverload, Message: "shed", RetryAfterMS: 1})
	}))
	defer ts.Close()

	c, err := New(Config{Peers: []string{ts.URL}, MaxRetries: 2, BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background(), api.RunRequest{Program: api.Program{Source: "x"}, Entry: "f"})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Class != api.ClassOverload {
		t.Fatalf("err = %v, want overload", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("%d attempts, want 3 (initial + 2 retries)", got)
	}
}

// TestContextDeadline: the request context bounds attempts and backoff
// sleeps, surfacing as a deadline-classed error.
func TestContextDeadline(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(300 * time.Millisecond)
	}))
	defer ts.Close()

	c, err := New(Config{Peers: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = c.Run(ctx, api.RunRequest{Program: api.Program{Source: "x"}, Entry: "f"})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Class != api.ClassDeadline {
		t.Fatalf("err = %v, want deadline class", err)
	}
}

// shardedPair starts two daemons for a two-peer client ring and returns
// them with their URLs.
func shardedPair(t *testing.T) (sA, sB *cashd.Server, urlA, urlB string) {
	t.Helper()
	cfg := cashd.Config{Engine: serve.Config{Workers: 1, CacheEntries: 8}}
	sA, urlA = startDaemon(t, cfg)
	sB, urlB = startDaemon(t, cfg)
	return sA, sB, urlA, urlB
}

// programsForBothOwners generates programs until both peers own at
// least one, returning them keyed by owner.
func programsForBothOwners(t *testing.T, ring *api.Ring) map[string][]api.Program {
	t.Helper()
	byOwner := map[string][]api.Program{}
	for i := 0; i < 128; i++ {
		p := api.Program{Source: fmt.Sprintf("int f(void) { return %d; }", i), Level: api.LevelFull}
		o := ring.Owner(p.Key())
		byOwner[o] = append(byOwner[o], p)
		done := true
		for _, ps := range byOwner {
			if len(ps) < 2 {
				done = false
			}
		}
		if len(byOwner) == 2 && done {
			break
		}
	}
	if len(byOwner) < 2 {
		t.Fatal("could not cover both shards")
	}
	return byOwner
}

// TestShardedBatch: a mixed-owner batch is partitioned across daemons
// and reassembled in request order; each daemon only compiles what it
// owns.
func TestShardedBatch(t *testing.T) {
	sA, sB, urlA, urlB := shardedPair(t)
	c, err := New(Config{Peers: []string{urlA, urlB}})
	if err != nil {
		t.Fatal(err)
	}
	byOwner := programsForBothOwners(t, api.NewRing([]string{urlA, urlB}, 0))

	// Interleave owners so ordering is a real claim.
	var runs []api.RunRequest
	for i := 0; i < 2; i++ {
		for _, ps := range byOwner {
			runs = append(runs, api.RunRequest{Program: ps[i], Entry: "f"})
		}
	}
	resp, err := c.Batch(context.Background(), api.BatchRequest{Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(runs) {
		t.Fatalf("%d results, want %d", len(resp.Results), len(runs))
	}
	for i, item := range resp.Results {
		if item.Err != nil {
			t.Fatalf("item %d: %v", i, item.Err)
		}
		// Each source returns its literal constant: order is preserved
		// exactly when every value matches its request's program.
		var want int64
		fmt.Sscanf(runs[i].Source, "int f(void) { return %d; }", &want)
		if item.Run.Value != want {
			t.Errorf("item %d: value %d, want %d (results out of order?)", i, item.Run.Value, want)
		}
	}
	// Both daemons did real work, and neither compiled the other's share.
	stA, stB := sA.Engine().Stats(), sB.Engine().Stats()
	if stA.Completed == 0 || stB.Completed == 0 {
		t.Errorf("work not partitioned: completed A=%d B=%d", stA.Completed, stB.Completed)
	}
	if int(stA.Completed+stB.Completed) != len(runs) {
		t.Errorf("completed A+B = %d, want %d", stA.Completed+stB.Completed, len(runs))
	}
}

// TestStaleRoutingServedInPlace: a client that only knows one peer
// still gets the right answer for programs the full ring assigns to the
// other; daemons are peer-unaware, so the one it knows serves them.
func TestStaleRoutingServedInPlace(t *testing.T) {
	sA, sB, urlA, urlB := shardedPair(t)
	byOwner := programsForBothOwners(t, api.NewRing([]string{urlA, urlB}, 0))

	// Out-of-date client: it believes A is the only daemon.
	c, err := New(Config{Peers: []string{urlA}})
	if err != nil {
		t.Fatal(err)
	}
	foreign := byOwner[urlB][0]
	rr, err := c.Run(context.Background(), api.RunRequest{Program: foreign, Entry: "f"})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	fmt.Sscanf(foreign.Source, "int f(void) { return %d; }", &want)
	if rr.Value != want {
		t.Errorf("value %d, want %d", rr.Value, want)
	}
	// The run happened on A, the only daemon the client knows.
	if got := sA.Engine().Stats().Completed; got != 1 {
		t.Errorf("known daemon completed %d runs, want 1", got)
	}
	if got := sB.Engine().Stats().Completed; got != 0 {
		t.Errorf("ring owner completed %d runs, want 0 (no redirects)", got)
	}
}

// TestTraceAcrossPeers: the client finds a trace no matter which daemon
// holds it.
func TestTraceAcrossPeers(t *testing.T) {
	_, _, urlA, urlB := shardedPair(t)
	c, err := New(Config{Peers: []string{urlA, urlB}})
	if err != nil {
		t.Fatal(err)
	}
	byOwner := programsForBothOwners(t, api.NewRing([]string{urlA, urlB}, 0))
	// Record a trace on shard B.
	rr, err := c.Run(context.Background(), api.RunRequest{Program: byOwner[urlB][0], Entry: "f", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if rr.TraceID == "" {
		t.Fatal("no trace id")
	}
	var buf bytes.Buffer
	if err := c.Trace(context.Background(), rr.TraceID, &buf); err != nil {
		t.Fatal(err)
	}
	var events []json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil || len(events) == 0 {
		t.Errorf("downloaded trace invalid (err=%v, %d events)", err, len(events))
	}

	var ae *api.Error
	if err := c.Trace(context.Background(), "nope", &bytes.Buffer{}); !errors.As(err, &ae) || ae.Class != api.ClassNotFound {
		t.Errorf("missing trace: err = %v, want not_found", err)
	}
}

func TestHealth(t *testing.T) {
	_, _, urlA, urlB := shardedPair(t)
	c, err := New(Config{Peers: []string{urlA, urlB}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Peers) != 2 {
		t.Fatalf("report covers %d peers, want 2", len(rep.Peers))
	}
	for _, ph := range rep.Peers {
		if !ph.OK || ph.Err != "" {
			t.Errorf("peer %s reported unhealthy: %+v", ph.Peer, ph)
		}
	}
	if len(rep.Down()) != 0 {
		t.Errorf("Down() = %v, want empty", rep.Down())
	}
	// A dead peer is named in the failure.
	dead := "http://127.0.0.1:1"
	c2, err := New(Config{Peers: []string{urlA, dead}})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := c2.Health(context.Background())
	if err == nil {
		t.Error("Health passed with a dead peer")
	}
	if rep2 == nil {
		t.Fatal("Health must still return the report alongside the error")
	}
	down := rep2.Down()
	if len(down) != 1 || down[0].Peer != dead || down[0].Err == "" {
		t.Errorf("Down() = %+v, want the dead peer with its error", down)
	}
}

// TestUntypedErrorSynthesis: a plain-text failure from a proxy still
// comes back as a classed error.
func TestUntypedErrorSynthesis(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad gateway", http.StatusBadGateway)
	}))
	defer ts.Close()
	c, err := New(Config{Peers: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background(), api.RunRequest{Program: api.Program{Source: "x"}, Entry: "f"})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Class != api.ClassInternal || ae.Status != http.StatusBadGateway {
		t.Fatalf("err = %v, want synthesized internal error with status 502", err)
	}
}

func TestNoPeers(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted an empty peer set")
	}
}
