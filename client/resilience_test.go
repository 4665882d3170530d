package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"spatial/api"
	"spatial/internal/cashd"
	"spatial/internal/serve"
)

// programOwnedBy generates constant-returning programs until one hashes
// to the given peer's shard.
func programOwnedBy(t *testing.T, ring *api.Ring, peer string) api.Program {
	t.Helper()
	for i := 0; i < 512; i++ {
		p := api.Program{Source: fmt.Sprintf("int f(void) { return %d; }", i), Level: api.LevelFull}
		if ring.Owner(p.Key()) == peer {
			return p
		}
	}
	t.Fatalf("no program owned by %s in 512 tries", peer)
	return api.Program{}
}

// TestBackoffCapAndJitter pins the backoff schedule exactly: base
// doubling per attempt, then flat at the cap, with no jitter on top. The
// cap guards against an unbounded backoff *= 2 loop.
func TestBackoffCapAndJitter(t *testing.T) {
	const base, max = 10 * time.Millisecond, 80 * time.Millisecond
	want := []time.Duration{10, 20, 40, 80, 80, 80, 80, 80, 80, 80, 80, 80}
	for a, w := range want {
		if d := backoffFor(a, base, max); d != w*time.Millisecond {
			t.Errorf("attempt %d: backoff %v, want %v", a, d, w*time.Millisecond)
		}
	}
	// Past any attempt count, the sleep stays at the cap.
	if d := backoffFor(1000, base, max); d != max {
		t.Errorf("attempt 1000: backoff %v, want %v", d, max)
	}
}

// TestBackoffBoundedWallClock: with MaxBackoff set, exhausting retries
// against a permanently shedding daemon is fast — the old unbounded
// doubling would have slept >600ms here.
func TestBackoffBoundedWallClock(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(&api.Error{Class: api.ClassOverload, Message: "shed"})
	}))
	defer ts.Close()
	c, err := New(Config{Peers: []string{ts.URL}, MaxRetries: 6,
		BaseBackoff: 10 * time.Millisecond, MaxBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = c.Run(context.Background(), api.RunRequest{Program: api.Program{Source: "x"}, Entry: "f"})
	elapsed := time.Since(start)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Class != api.ClassOverload {
		t.Fatalf("err = %v, want overload", err)
	}
	if elapsed > 300*time.Millisecond {
		t.Errorf("6 capped retries took %v; MaxBackoff is not bounding the schedule", elapsed)
	}
}

// TestFailoverToNextOwner: with the owning peer dead, the request walks
// the ring to the survivor, which serves it.
func TestFailoverToNextOwner(t *testing.T) {
	// A peer that is provably dead: bind a port, then free it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()

	srv, live := startDaemon(t, cashd.Config{Engine: serve.Config{Workers: 1, CacheEntries: 8}})
	peers := []string{dead, live}

	c, err := New(Config{Peers: peers, BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	p := programOwnedBy(t, api.NewRing(peers, 0), dead)
	var want int64
	fmt.Sscanf(p.Source, "int f(void) { return %d; }", &want)
	for i := 0; i < 3; i++ {
		rr, err := c.Run(context.Background(), api.RunRequest{Program: p, Entry: "f"})
		if err != nil {
			t.Fatalf("run %d: %v (failover did not reach the live peer)", i, err)
		}
		if rr.Value != want {
			t.Fatalf("run %d: value %d, want %d", i, rr.Value, want)
		}
	}
	s := srv.Engine().Stats()
	if s.Completed != 3 {
		t.Errorf("survivor completed %d runs, want 3 (every failover served there)", s.Completed)
	}
	if s.CacheMisses != 1 {
		t.Errorf("survivor compiled %d times, want 1 (repeats warm from its cache)", s.CacheMisses)
	}
}

// TestHedgedRun: a slow primary is raced by a hedge to the next peer;
// the fast answer wins well before the primary would have responded.
func TestHedgedRun(t *testing.T) {
	resp := func(w http.ResponseWriter) {
		json.NewEncoder(w).Encode(&api.RunResponse{Value: 9})
	}
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(time.Second):
		case <-r.Context().Done():
			return
		}
		resp(w)
	}))
	defer slow.Close()
	var hedged atomic.Bool
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hedged.Store(true)
		resp(w)
	}))
	defer fast.Close()

	peers := []string{slow.URL, fast.URL}
	c, err := New(Config{Peers: peers, HedgeDelay: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	p := programOwnedBy(t, api.NewRing(peers, 0), slow.URL)
	start := time.Now()
	rr, err := c.Run(context.Background(), api.RunRequest{Program: p, Entry: "f"})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Value != 9 {
		t.Errorf("value %d, want 9", rr.Value)
	}
	if elapsed > 800*time.Millisecond {
		t.Errorf("hedged run took %v; the hedge did not win over the 1s primary", elapsed)
	}
	if !hedged.Load() {
		t.Error("the second peer never served the hedge")
	}
}

// TestMalformedBodyRetried: a truncated 200 body is a typed, retriable
// peer fault — never a decode error leaked to the caller.
func TestMalformedBodyRetried(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Write([]byte(`{"value": 9`)) // torn mid-write
			return
		}
		json.NewEncoder(w).Encode(&api.RunResponse{Value: 9})
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
	if rr.Value != 9 || calls.Load() != 2 {
		t.Errorf("value %d after %d calls, want 9 after 2", rr.Value, calls.Load())
	}
}
