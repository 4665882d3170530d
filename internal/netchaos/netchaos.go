// Package netchaos injects deterministic faults into HTTP traffic: a
// seedable, plan-driven http.RoundTripper that drops, delays, resets,
// corrupts, or truncates requests and responses, and kills whole peers
// for scheduled spans of their arrival sequence. It is the network-layer
// sibling of internal/faultsim, which perturbs the simulator's own
// token traffic; netchaos perturbs the service traffic *around* the
// simulator, so the client's failover, retry, and integrity machinery
// can be exercised without flaky sockets or real packet loss.
//
// Every injection is deterministic: explicit Plan entries trigger on the
// Nth matching request (counted per fault, in arrival order), peer
// windows index each peer's arrivals from 1, and optional jitter draws
// from a seeded generator in arrival order. A (plan, seed) pair always
// perturbs a serial request stream identically; under concurrency the
// arrival order — and only the arrival order — is the schedule.
//
// Use a *Transport as an http.Client transport to perturb a client's
// view of the world.
package netchaos

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Op enumerates fault kinds.
type Op uint8

// Fault operations.
const (
	// Delay holds the request for Latency before forwarding it.
	Delay Op = iota
	// Drop black-holes the request: it never reaches the peer and the
	// round trip blocks until the request's context dies. Callers must
	// run with deadlines (the client and the chaos battery always do).
	Drop
	// Reset fails the round trip with a connection-reset error without
	// reaching the peer.
	Reset
	// Status answers with Code (0 means 503) and a plain-text body,
	// without reaching the peer.
	Status
	// Corrupt forwards the request and XORs one response-body byte at
	// offset Byte (out-of-range clamps to 0, the opening brace of a JSON
	// body — always detectable by the reader).
	Corrupt
	// Truncate forwards the request and cuts the response body at Byte
	// (0 or out-of-range means half).
	Truncate
)

var opNames = [...]string{
	Delay: "delay", Drop: "drop", Reset: "reset",
	Status: "status", Corrupt: "corrupt", Truncate: "truncate",
}

// String names the operation.
func (o Op) String() string { return opNames[o] }

// Fault is one planned perturbation. Empty selector fields widen the
// match: Peer is the request host, host:port as it appears in the URL,
// matched exactly ("" = any peer); Path a substring of the URL path
// ("" = any path). Nth selects the 1-based occurrence among matching
// requests (0 means the first). Each Fault triggers exactly once; when
// several faults claim the same request, the first in plan order wins
// (the rest still count and log).
type Fault struct {
	Op   Op
	Peer string // request host (host:port), matched exactly; "" = any
	Path string // substring of the URL path; "" = any
	Nth  int    // 1-based occurrence of the matching request (0 = first)
	// Latency is the Delay hold (0 means 1ms).
	Latency time.Duration
	// Code is the injected Status (0 means 503).
	Code int
	// Byte is the Corrupt/Truncate body offset.
	Byte int
}

// String renders the fault for logs and reproducers.
func (f Fault) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", f.Op)
	if f.Peer != "" {
		fmt.Fprintf(&b, " peer=%s", f.Peer)
	}
	if f.Path != "" {
		fmt.Fprintf(&b, " path=%s", f.Path)
	}
	fmt.Fprintf(&b, " nth=%d", f.nth())
	switch f.Op {
	case Delay:
		fmt.Fprintf(&b, " latency=%v", f.latency())
	case Status:
		fmt.Fprintf(&b, " code=%d", f.code())
	case Corrupt, Truncate:
		fmt.Fprintf(&b, " byte=%d", f.Byte)
	}
	return b.String()
}

func (f Fault) nth() int {
	if f.Nth <= 0 {
		return 1
	}
	return f.Nth
}

func (f Fault) latency() time.Duration {
	if f.Latency <= 0 {
		return time.Millisecond
	}
	return f.Latency
}

func (f Fault) code() int {
	if f.Code == 0 {
		return http.StatusServiceUnavailable
	}
	return f.Code
}

func (f Fault) match(host, path string) bool {
	if f.Peer != "" && host != f.Peer {
		return false
	}
	return f.Path == "" || strings.Contains(path, f.Path)
}

// PeerWindow kills a peer for a span of its own arrival sequence:
// requests From..To (1-based, inclusive) are refused as if the process
// were down. To of 0 means dead forever — killed, never resurrected.
// Several windows for one peer model kill/resurrect/kill schedules.
type PeerWindow struct {
	Peer     string // request host (host:port), matched exactly; "" = every peer
	From, To int
}

func (w PeerWindow) from() int {
	if w.From <= 0 {
		return 1
	}
	return w.From
}

func (w PeerWindow) contains(n int) bool {
	return n >= w.from() && (w.To <= 0 || n <= w.To)
}

// String renders the window.
func (w PeerWindow) String() string {
	peer := w.Peer
	if peer == "" {
		peer = "*"
	}
	if w.To <= 0 {
		return fmt.Sprintf("down peer=%s from=%d (forever)", peer, w.from())
	}
	return fmt.Sprintf("down peer=%s from=%d to=%d", peer, w.from(), w.To)
}

// Plan is a set of faults to inject.
type Plan struct {
	Faults []Fault
}

// String renders the plan one fault per line.
func (p Plan) String() string {
	if len(p.Faults) == 0 {
		return "(no planned faults)"
	}
	lines := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		lines[i] = f.String()
	}
	return strings.Join(lines, "\n")
}

// Triggered records one injection that actually fired.
type Triggered struct {
	Peer  string // request host
	Path  string
	Seq   int  // the peer's 1-based arrival index
	Down  bool // refused by a PeerWindow rather than a Fault
	Fault Fault
}

// String renders the trigger record.
func (t Triggered) String() string {
	if t.Down {
		return fmt.Sprintf("req %d to %s%s: refused (peer down)", t.Seq, t.Peer, t.Path)
	}
	return fmt.Sprintf("req %d to %s%s: %s", t.Seq, t.Peer, t.Path, t.Fault)
}

type faultState struct {
	f    Fault
	seen int
	done bool
}

// Injector decides, deterministically, which requests to perturb. One
// Injector is shared by every transport of a chaos run; its mutex makes
// the decision sequence the arrival order. A nil *Injector is valid
// everywhere and injects nothing.
type Injector struct {
	mu      sync.Mutex
	faults  []faultState
	windows []PeerWindow
	seq     map[string]int // per-host arrival counter

	rng    *rand.Rand
	rate   float64
	jitter time.Duration

	trig []Triggered
}

// New compiles a plan and peer schedule into an Injector.
func New(p Plan, windows ...PeerWindow) *Injector {
	in := &Injector{seq: map[string]int{}, windows: windows}
	for _, f := range p.Faults {
		in.faults = append(in.faults, faultState{f: f})
	}
	return in
}

// WithJitter adds seeded random delay: fraction rate of otherwise
// unperturbed requests sleep 1..max before forwarding. Delay-only, so a
// correct client must absorb it. Returns the injector for chaining.
func (in *Injector) WithJitter(seed int64, rate float64, max time.Duration) *Injector {
	in.rng = rand.New(rand.NewSource(seed))
	in.rate = rate
	in.jitter = max
	return in
}

// verdict is the injector's decision on one request.
type verdict struct {
	down   bool
	hit    bool
	f      Fault
	jitter time.Duration
}

func (in *Injector) decide(host, path string) verdict {
	if in == nil {
		return verdict{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.seq[host]++
	n := in.seq[host]
	for _, w := range in.windows {
		if w.Peer != "" && host != w.Peer {
			continue
		}
		if w.contains(n) {
			in.trig = append(in.trig, Triggered{Peer: host, Path: path, Seq: n, Down: true})
			return verdict{down: true}
		}
	}
	var v verdict
	for i := range in.faults {
		fs := &in.faults[i]
		if fs.done || !fs.f.match(host, path) {
			continue
		}
		fs.seen++
		if fs.seen != fs.f.nth() {
			continue
		}
		fs.done = true
		in.trig = append(in.trig, Triggered{Peer: host, Path: path, Seq: n, Fault: fs.f})
		if !v.hit {
			v.hit, v.f = true, fs.f
		}
	}
	if !v.hit && in.rng != nil && in.rate > 0 && in.rng.Float64() < in.rate {
		v.jitter = time.Duration(1 + in.rng.Int63n(int64(maxDur(in.jitter, time.Millisecond))))
	}
	return v
}

// Triggered returns the injections that actually fired, in arrival
// order. Nil-safe.
func (in *Injector) Triggered() []Triggered {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Triggered, len(in.trig))
	copy(out, in.trig)
	return out
}

// Injected transport errors. They surface to the client wrapped in the
// usual *url.Error, where they read as ordinary transport failures.
var (
	ErrRefused = errors.New("connection refused (injected)")
	ErrReset   = errors.New("connection reset by peer (injected)")
)

// Transport is a fault-injecting http.RoundTripper. Zero value is not
// usable; set Inj (Inner nil means http.DefaultTransport).
type Transport struct {
	Inner http.RoundTripper
	Inj   *Injector
}

func (t *Transport) inner() http.RoundTripper {
	if t.Inner != nil {
		return t.Inner
	}
	return http.DefaultTransport
}

// RoundTrip applies the injector's verdict for this request: refuse it,
// perturb it, or forward it (possibly mangling the response on the way
// back).
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	v := t.Inj.decide(req.URL.Host, req.URL.Path)
	if v.down {
		closeReq(req)
		return nil, fmt.Errorf("netchaos: dial %s: %w", req.URL.Host, ErrRefused)
	}
	if v.jitter > 0 {
		if err := sleepCtx(req, v.jitter); err != nil {
			return nil, err
		}
	}
	if !v.hit {
		return t.inner().RoundTrip(req)
	}
	switch v.f.Op {
	case Delay:
		if err := sleepCtx(req, v.f.latency()); err != nil {
			return nil, err
		}
		return t.inner().RoundTrip(req)
	case Drop:
		<-req.Context().Done()
		closeReq(req)
		return nil, fmt.Errorf("netchaos: %s black-holed: %w", req.URL.Host, req.Context().Err())
	case Reset:
		closeReq(req)
		return nil, fmt.Errorf("netchaos: read from %s: %w", req.URL.Host, ErrReset)
	case Status:
		closeReq(req)
		return syntheticStatus(req, v.f.code()), nil
	case Corrupt, Truncate:
		resp, err := t.inner().RoundTrip(req)
		if err != nil {
			return nil, err
		}
		return mangleBody(resp, v.f)
	}
	return t.inner().RoundTrip(req)
}

// sleepCtx holds the request for d, honoring its context; on context
// death the request body is closed and the context error returned.
func sleepCtx(req *http.Request, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-req.Context().Done():
		closeReq(req)
		return fmt.Errorf("netchaos: delayed past deadline: %w", req.Context().Err())
	case <-timer.C:
		return nil
	}
}

// closeReq honors the RoundTripper contract: the request body is always
// closed, even when the request never goes anywhere.
func closeReq(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

// syntheticStatus fabricates a plain-text error response, as a proxy or
// load balancer in front of the daemon would.
func syntheticStatus(req *http.Request, code int) *http.Response {
	body := fmt.Sprintf("netchaos: injected status %d", code)
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", code, http.StatusText(code)),
		StatusCode:    code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": {"text/plain; charset=utf-8"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// mangleBody rewrites a forwarded response according to a Corrupt or
// Truncate fault, keeping Content-Length honest so the damage models
// bit rot and torn reads, not framing errors.
func mangleBody(resp *http.Response, f Fault) (*http.Response, error) {
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	switch f.Op {
	case Corrupt:
		if len(body) > 0 {
			i := f.Byte
			if i < 0 || i >= len(body) {
				i = 0
			}
			body[i] ^= 0xFF
		}
	case Truncate:
		cut := f.Byte
		if cut <= 0 || cut >= len(body) {
			cut = len(body) / 2
		}
		body = body[:cut]
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Set("Content-Length", strconv.Itoa(len(body)))
	return resp, nil
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
