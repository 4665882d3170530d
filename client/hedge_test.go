package client

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spatial/api"
)

// TestHedgeNoGoroutineLeak: repeated hedged reads leave no goroutines
// behind — the loser's attempt is canceled, its body closed, and its
// post loop unwound.
func TestHedgeNoGoroutineLeak(t *testing.T) {
	payload, _ := json.Marshal(&api.RunResponse{Value: 9})
	handler := func(delay time.Duration) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
			w.Write(payload)
		}
	}
	slow := httptest.NewServer(handler(400 * time.Millisecond))
	defer slow.Close()
	fast := httptest.NewServer(handler(0))
	defer fast.Close()

	peers := []string{slow.URL, fast.URL}
	c, err := New(Config{Peers: peers, HedgeDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	p := programOwnedBy(t, api.NewRing(peers, 0), slow.URL)

	// Warm-up: populate the transport's keep-alive pool (its per-idle-
	// connection read/write loops are persistent, not leaks) before
	// taking the baseline.
	for i := 0; i < 3; i++ {
		if _, err := c.Run(context.Background(), api.RunRequest{Program: p, Entry: "f"}); err != nil {
			t.Fatalf("warm-up run %d: %v", i, err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		if _, err := c.Run(context.Background(), api.RunRequest{Program: p, Entry: "f"}); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d before, %d after 10 hedged runs\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestErrorBodyDrainedForReuse: a decoded error response larger than
// decodeError's read limit is drained before close, so the keep-alive
// connection is reused instead of being torn down mid-body. One client
// retrying against one shedding daemon must stay on one connection.
func TestErrorBodyDrainedForReuse(t *testing.T) {
	shed, _ := json.Marshal(&api.Error{Class: api.ClassOverload,
		Message: "shed " + strings.Repeat("x", 2<<20)}) // past the 1MB error-read limit
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write(shed)
	}))
	ts.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	c, err := New(Config{Peers: []string{ts.URL}, MaxRetries: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background(), api.RunRequest{Program: api.Program{Source: "x"}, Entry: "f"})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Class != api.ClassOverload {
		t.Fatalf("err = %v, want overload", err)
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("4 sequential attempts used %d connections, want 1 (bodies not drained for reuse)", n)
	}
}
