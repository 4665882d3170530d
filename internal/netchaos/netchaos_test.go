package netchaos

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

const refBody = `{"value":42,"cache_hit":true}`

func refServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, refBody)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, c *http.Client, url string) (*http.Response, string) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestStatusNthMatch: the fault fires on exactly the Nth matching
// request and never again — the exactly-once contract.
func TestStatusNthMatch(t *testing.T) {
	ts := refServer(t)
	inj := New(Plan{Faults: []Fault{{Op: Status, Code: 503, Nth: 2}}})
	c := &http.Client{Transport: &Transport{Inj: inj}}

	for i := 1; i <= 4; i++ {
		resp, body := get(t, c, ts.URL+"/v1/run")
		want := http.StatusOK
		if i == 2 {
			want = http.StatusServiceUnavailable
		}
		if resp.StatusCode != want {
			t.Fatalf("request %d: status %d, want %d", i, resp.StatusCode, want)
		}
		if i != 2 && body != refBody {
			t.Fatalf("request %d: body %q, want the reference", i, body)
		}
	}
	trig := inj.Triggered()
	if len(trig) != 1 || trig[0].Seq != 2 || trig[0].Fault.Op != Status {
		t.Fatalf("trigger log %v, want one status hit at seq 2", trig)
	}
}

// TestPeerWindow: requests 2..3 to the peer are refused as if the
// process were down; 1 and 4 pass. A second injector with the same
// schedule produces the identical trigger log — determinism.
func TestPeerWindow(t *testing.T) {
	ts := refServer(t)
	host := strings.TrimPrefix(ts.URL, "http://")

	run := func() []Triggered {
		inj := New(Plan{}, PeerWindow{Peer: host, From: 2, To: 3})
		c := &http.Client{Transport: &Transport{Inj: inj}}
		for i := 1; i <= 4; i++ {
			resp, err := c.Get(ts.URL + "/v1/run")
			alive := i == 1 || i == 4
			if alive {
				if err != nil {
					t.Fatalf("request %d: %v, want success", i, err)
				}
				resp.Body.Close()
				continue
			}
			if err == nil {
				resp.Body.Close()
				t.Fatalf("request %d succeeded inside the down window", i)
			}
			if !errors.Is(err, ErrRefused) {
				t.Fatalf("request %d: %v, want ErrRefused", i, err)
			}
		}
		return inj.Triggered()
	}

	a, b := run(), run()
	if len(a) != 2 || !a[0].Down || !a[1].Down {
		t.Fatalf("trigger log %v, want two refusals", a)
	}
	if len(a) != len(b) {
		t.Fatalf("runs diverged: %v vs %v", a, b)
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("runs diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestDeadForever: To of 0 kills the peer with no resurrection.
func TestDeadForever(t *testing.T) {
	ts := refServer(t)
	inj := New(Plan{}, PeerWindow{From: 1})
	c := &http.Client{Transport: &Transport{Inj: inj}}
	for i := 0; i < 3; i++ {
		if _, err := c.Get(ts.URL + "/"); !errors.Is(err, ErrRefused) {
			t.Fatalf("request %d: %v, want ErrRefused", i, err)
		}
	}
}

// TestCorruptAndTruncate: the response body is damaged in transit with
// honest framing — detectably, never silently reorderable into a valid
// answer at byte 0.
func TestCorruptAndTruncate(t *testing.T) {
	ts := refServer(t)
	inj := New(Plan{Faults: []Fault{
		{Op: Corrupt, Nth: 1},
		{Op: Truncate, Nth: 2},
	}})
	c := &http.Client{Transport: &Transport{Inj: inj}}

	resp, body := get(t, c, ts.URL+"/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("corrupt: status %d", resp.StatusCode)
	}
	if body == refBody || len(body) != len(refBody) || body[0] == refBody[0] {
		t.Fatalf("corrupt: body %q not damaged at byte 0", body)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("corrupt: dishonest Content-Length %d for %d bytes", resp.ContentLength, len(body))
	}

	_, body = get(t, c, ts.URL+"/")
	if body != refBody[:len(refBody)/2] {
		t.Fatalf("truncate: body %q, want the first half of the reference", body)
	}

	if _, body = get(t, c, ts.URL+"/"); body != refBody {
		t.Fatalf("after both faults fired: body %q, want untouched", body)
	}
}

// TestResetAndDrop: reset fails immediately with the reset error; drop
// blocks until the request context dies.
func TestResetAndDrop(t *testing.T) {
	ts := refServer(t)
	inj := New(Plan{Faults: []Fault{
		{Op: Reset, Nth: 1},
		{Op: Drop, Nth: 2},
	}})
	c := &http.Client{Transport: &Transport{Inj: inj}}

	if _, err := c.Get(ts.URL + "/"); !errors.Is(err, ErrReset) {
		t.Fatalf("reset: %v, want ErrReset", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/", nil)
	start := time.Now()
	_, err := c.Do(req)
	if err == nil {
		t.Fatal("drop: request succeeded, want a context death")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drop: %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("drop returned after %v, before the deadline", elapsed)
	}
}

// TestDelayHoldsRequest: the delayed request arrives late but intact.
func TestDelayHoldsRequest(t *testing.T) {
	ts := refServer(t)
	inj := New(Plan{Faults: []Fault{{Op: Delay, Latency: 60 * time.Millisecond, Nth: 1}}})
	c := &http.Client{Transport: &Transport{Inj: inj}}
	start := time.Now()
	resp, body := get(t, c, ts.URL+"/")
	if resp.StatusCode != http.StatusOK || body != refBody {
		t.Fatalf("delayed request damaged: status %d body %q", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("delay did not hold the request: %v", elapsed)
	}
}

// TestPathAndPeerSelectors: a fault scoped to one path leaves other
// paths alone.
func TestPathAndPeerSelectors(t *testing.T) {
	ts := refServer(t)
	inj := New(Plan{Faults: []Fault{{Op: Status, Code: 500, Path: "/v1/run"}}})
	c := &http.Client{Transport: &Transport{Inj: inj}}

	if resp, _ := get(t, c, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("unmatched path perturbed: %d", resp.StatusCode)
	}
	if resp, _ := get(t, c, ts.URL+"/v1/run"); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("matched path not perturbed: %d", resp.StatusCode)
	}
	inj2 := New(Plan{Faults: []Fault{{Op: Status, Peer: "no-such-host"}}})
	c2 := &http.Client{Transport: &Transport{Inj: inj2}}
	if resp, _ := get(t, c2, ts.URL+"/v1/run"); resp.StatusCode != http.StatusOK {
		t.Fatalf("unmatched peer perturbed: %d", resp.StatusCode)
	}
}

// TestPeerMatchesExactHost: a fault or a down window aimed at one peer
// leaves a peer whose address merely contains it alone.
func TestPeerMatchesExactHost(t *testing.T) {
	const target, other = "127.0.0.1:4000", "127.0.0.1:40001"
	inj := New(Plan{Faults: []Fault{{Op: Status, Peer: target}}})
	if v := inj.decide(other, "/v1/run"); v.hit {
		t.Fatalf("fault for %s fired on %s", target, other)
	}
	if v := inj.decide(target, "/v1/run"); !v.hit {
		t.Fatalf("fault for %s did not fire on %s", target, target)
	}
	down := New(Plan{}, PeerWindow{Peer: target, From: 1})
	if v := down.decide(other, "/"); v.down {
		t.Fatalf("down window for %s refused %s", target, other)
	}
	if v := down.decide(target, "/"); !v.down {
		t.Fatalf("down window for %s let %s through", target, target)
	}
}

// TestJitterDeterminism: the same seed produces the same jitter
// decisions; a different seed is allowed to differ.
func TestJitterDeterminism(t *testing.T) {
	decisions := func(seed int64) []bool {
		inj := New(Plan{}).WithJitter(seed, 0.5, time.Millisecond)
		var out []bool
		for i := 0; i < 32; i++ {
			v := inj.decide("h", "/")
			out = append(out, v.jitter > 0)
		}
		return out
	}
	a, b := decisions(7), decisions(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d", i)
		}
	}
}
