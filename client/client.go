// Package client is the Go client for cashd, the network-facing
// simulation service. It speaks the versioned wire contract of package
// spatial/api and adds the client-side half of the service's operational
// behavior. Daemons are peer-unaware and serve any program they are
// sent; all routing lives here.
//
//   - Retries with capped exponential backoff when a daemon sheds load
//     (HTTP 429). The schedule is the client's own: BaseBackoff doubling
//     per attempt, capped at MaxBackoff.
//   - Context deadlines: the request context bounds every attempt
//     including backoff sleeps, and a context error is reported as an
//     api.Error with ClassDeadline.
//   - Shard routing: with several peers configured, each program is sent
//     to the peer that owns its key on a consistent-hash ring (api.Ring),
//     and batches are partitioned per owner then reassembled in request
//     order. Routing buys cache locality, not correctness: any daemon
//     can serve any program, so a stale peer list still gets the right
//     answer.
//   - Peer failover: when a peer is unreachable, resets the connection,
//     returns an unusable body, or answers 5xx, the request walks the
//     ring to the next owner at once. One dead daemon costs 1/N
//     capacity, not a hung key range.
//   - Hedged reads: with HedgeDelay set, a Run that has not answered
//     after that delay is raced against the next peer on the ring; the
//     first answer wins and the loser is canceled.
//
// Typed failures surface as *api.Error; inspect .Class or call
// .Temporary() to decide whether to retry at a higher level. Transport
// failures (connection refused/reset, malformed bodies) are typed as
// ClassUnavailable rather than leaking raw transport errors.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"spatial/api"
)

// Config parameterizes a Client. The zero value of every field selects
// a sensible default.
type Config struct {
	// Peers is the daemon set, as base URLs. One peer means no routing;
	// several mean consistent-hash routing by program key. Required.
	Peers []string
	// HTTPClient overrides the transport; nil means a dedicated client
	// with no overall timeout (use request contexts for deadlines).
	HTTPClient *http.Client
	// MaxRetries bounds retry attempts after a retriable failure; 0
	// means 4. Overload sheds back off on the same peer; peer faults
	// (unreachable, 5xx) fail over to the next owner immediately.
	MaxRetries int
	// BaseBackoff is the first retry's backoff; it doubles per attempt.
	// 0 means 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps every backoff sleep; 0 means 1s.
	MaxBackoff time.Duration
	// HedgeDelay enables hedged Run reads: if the owner has not answered
	// after HedgeDelay, a duplicate is raced to the next peer on the
	// ring. 0 means no hedging.
	HedgeDelay time.Duration
}

// Client is a cashd client; it is safe for concurrent use.
type Client struct {
	cfg  Config
	ring *api.Ring
	http *http.Client
}

// New builds a client for the given daemon set.
func New(cfg Config) (*Client, error) {
	ring := api.NewRing(cfg.Peers, 0)
	if ring == nil {
		return nil, fmt.Errorf("client: no peers configured")
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 4
	}
	if cfg.BaseBackoff == 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = time.Second
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{cfg: cfg, ring: ring, http: hc}, nil
}

// candidates returns p's full failover sequence: the owning peer first,
// then the ring walk every client agrees on.
func (c *Client) candidates(p api.Program) []string {
	return c.ring.Owners(p.Key(), len(c.ring.Nodes()))
}

// Compile compiles (and caches) a program on its owning shard without
// running it.
func (c *Client) Compile(ctx context.Context, p api.CompileRequest) (*api.CompileResponse, error) {
	var out api.CompileResponse
	if err := c.post(ctx, c.candidates(p), "/"+api.Version+"/compile", p, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Run executes one simulation on the program's owning shard, hedging to
// the next peer when configured.
func (c *Client) Run(ctx context.Context, r api.RunRequest) (*api.RunResponse, error) {
	var out api.RunResponse
	if err := c.hedgedPost(ctx, c.candidates(r.Program), "/"+api.Version+"/run", r, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Batch executes many simulations, partitioned across shards by each
// program's owner and reassembled in request order. A sub-batch that
// fails wholesale (transport error, rejected request) marks each of its
// items with the failure rather than failing the whole call.
func (c *Client) Batch(ctx context.Context, b api.BatchRequest) (*api.BatchResponse, error) {
	if len(b.Runs) == 0 {
		return &api.BatchResponse{Results: []api.BatchItem{}}, nil
	}
	// Partition run indices by owning peer, preserving relative order.
	parts := make(map[string][]int)
	for i, rr := range b.Runs {
		o := c.ring.Owner(rr.Program.Key())
		parts[o] = append(parts[o], i)
	}
	results := make([]api.BatchItem, len(b.Runs))
	var wg sync.WaitGroup
	for peer, idxs := range parts {
		wg.Add(1)
		go func(peer string, idxs []int) {
			defer wg.Done()
			sub := api.BatchRequest{Runs: make([]api.RunRequest, len(idxs))}
			for j, i := range idxs {
				sub.Runs[j] = b.Runs[i]
			}
			var out api.BatchResponse
			// The sub-batch fails over along its first run's ring walk,
			// which starts at the owner the runs share.
			err := c.post(ctx, c.candidates(sub.Runs[0].Program), "/"+api.Version+"/batch", sub, &out)
			if err == nil && len(out.Results) != len(idxs) {
				err = &api.Error{Class: api.ClassInternal,
					Message: fmt.Sprintf("client: peer %s returned %d results for %d runs", peer, len(out.Results), len(idxs))}
			}
			for j, i := range idxs {
				if err != nil {
					results[i] = api.BatchItem{Err: wireError(err)}
					continue
				}
				results[i] = out.Results[j]
			}
		}(peer, idxs)
	}
	wg.Wait()
	return &api.BatchResponse{Results: results}, nil
}

// Trace downloads a recorded Chrome trace into w. The trace store is
// per-daemon and the ID does not encode its owner, so each peer is asked
// in turn; a 404 everywhere reports not_found.
func (c *Client) Trace(ctx context.Context, id string, w io.Writer) error {
	var lastErr error
	for _, peer := range c.ring.Nodes() {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/"+api.Version+"/trace/"+id, nil)
		if err != nil {
			return err
		}
		resp, err := c.http.Do(req)
		if err != nil {
			lastErr = ctxError(ctx, err)
			continue
		}
		if resp.StatusCode == http.StatusOK {
			_, err = io.Copy(w, resp.Body)
			resp.Body.Close()
			return err
		}
		lastErr = decodeError(resp)
		drainBody(resp.Body)
		resp.Body.Close()
	}
	if lastErr == nil {
		lastErr = &api.Error{Class: api.ClassNotFound, Message: "client: no trace " + id}
	}
	return lastErr
}

// PeerHealth is one peer's health-check result.
type PeerHealth struct {
	Peer    string        `json:"peer"`
	OK      bool          `json:"ok"`
	Latency time.Duration `json:"latency"`
	// Err describes the failure when OK is false.
	Err string `json:"error,omitempty"`
}

// HealthReport is the typed result of Health: one entry per peer, in
// ring (sorted) order.
type HealthReport struct {
	Peers []PeerHealth `json:"peers"`
}

// Down returns the unhealthy peers.
func (r *HealthReport) Down() []PeerHealth {
	var out []PeerHealth
	for _, p := range r.Peers {
		if !p.OK {
			out = append(out, p)
		}
	}
	return out
}

// Health checks every peer's liveness endpoint. It returns the full
// per-peer report, plus a non-nil error naming the down peers when any
// check failed (so callers that only look at the error keep working).
func (c *Client) Health(ctx context.Context) (*HealthReport, error) {
	rep := &HealthReport{}
	var down []string
	for _, peer := range c.ring.Nodes() {
		ph := PeerHealth{Peer: peer}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/healthz", nil)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		resp, err := c.http.Do(req)
		ph.Latency = time.Since(start)
		if err != nil {
			ph.Err = err.Error()
		} else {
			drainBody(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				ph.Err = fmt.Sprintf("status %d", resp.StatusCode)
			} else {
				ph.OK = true
			}
		}
		rep.Peers = append(rep.Peers, ph)
		if !ph.OK {
			down = append(down, fmt.Sprintf("%s: %s", peer, ph.Err))
		}
	}
	if len(down) > 0 {
		return rep, fmt.Errorf("client: unhealthy peers: %s", strings.Join(down, "; "))
	}
	return rep, nil
}

// post sends one JSON request with the retry/failover loop, starting at
// cands[0]. Overload sheds back off on the same peer (capped
// exponential) and retry; peer faults (unreachable, reset, 5xx,
// malformed body) move to the next candidate without sleeping, and
// sweep the list again once every candidate has faulted. Permanent
// errors (compile, sim, bad request) return immediately. All sleeps
// respect ctx.
func (c *Client) post(ctx context.Context, cands []string, path string, body, out any) error {
	if ctx == nil {
		ctx = context.Background()
	}
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	next := 0
	for attempt := 0; ; attempt++ {
		fault, err := c.do(ctx, cands[next], path, data, out)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctxError(ctx, err)
		}
		var ae *api.Error
		if !errors.As(err, &ae) || attempt >= c.cfg.MaxRetries {
			return err
		}
		switch {
		case fault:
			// The peer misbehaved; walk to the next candidate at once.
			next = (next + 1) % len(cands)
		case ae.Temporary():
			// Overload shed: the peer is alive but busy; back off.
			t := time.NewTimer(backoffFor(attempt, c.cfg.BaseBackoff, c.cfg.MaxBackoff))
			select {
			case <-ctx.Done():
				t.Stop()
				return ctxError(ctx, ctx.Err())
			case <-t.C:
			}
		default:
			// Permanent for this request (compile, sim, bad_request,
			// not_found, server-side deadline).
			return err
		}
	}
}

// hedgedPost is post plus read hedging: when HedgeDelay is set and a
// second peer exists, a duplicate request races to the next candidate
// after the delay; the first success wins and the loser's context is
// canceled. Safe only for idempotent reads — Run is content-addressed
// and deterministic, so duplicates are free except for the wasted work.
func (c *Client) hedgedPost(ctx context.Context, cands []string, path string, body, out any) error {
	if c.cfg.HedgeDelay <= 0 || len(cands) < 2 {
		return c.post(ctx, cands, path, body, out)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type res struct {
		raw json.RawMessage
		err error
	}
	ch := make(chan res, 2)
	launch := func(seq []string) {
		var raw json.RawMessage
		err := c.post(hctx, seq, path, body, &raw)
		ch <- res{raw, err}
	}
	go launch(cands)
	launched := 1
	timer := time.NewTimer(c.cfg.HedgeDelay)
	defer timer.Stop()
	var firstErr error
	for done := 0; done < launched; {
		select {
		case <-timer.C:
			if launched == 1 {
				// The hedge leads with the next owner; the primary —
				// already being tried — goes last.
				alt := append(append(make([]string, 0, len(cands)), cands[1:]...), cands[0])
				go launch(alt)
				launched = 2
			}
		case r := <-ch:
			done++
			if r.err == nil {
				cancel() // release the loser immediately
				return json.Unmarshal(r.raw, out)
			}
			if firstErr == nil {
				firstErr = r.err
			}
		}
	}
	return firstErr
}

// maxResponseBytes bounds how much of a response body one attempt will
// buffer; traces stream through Trace, so service responses stay small.
const maxResponseBytes = 16 << 20

// drainBody consumes what remains of a response body (bounded) so the
// transport sees EOF and can return the connection to the keep-alive
// pool. Closing with bytes still unread discards the connection, so
// every partially-read response — an oversized body, a decoded error —
// would otherwise cost the next attempt a fresh connection setup.
func drainBody(r io.Reader) {
	io.Copy(io.Discard, io.LimitReader(r, maxResponseBytes))
}

// do performs one HTTP attempt against peer and reports whether a
// failure was the peer's fault, so post knows to try another peer.
func (c *Client) do(ctx context.Context, peer, path string, data []byte, out any) (fault bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+path, bytes.NewReader(data))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return false, ctxError(ctx, err)
		}
		return true, &api.Error{Class: api.ClassUnavailable,
			Message: fmt.Sprintf("client: %s unreachable: %v", peer, err),
			Status:  api.ClassUnavailable.HTTPStatus()}
	}
	if resp.StatusCode == http.StatusOK {
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
		if err == nil {
			drainBody(resp.Body)
		}
		resp.Body.Close()
		if err == nil {
			err = json.Unmarshal(body, out)
		}
		if err != nil {
			if ctx.Err() != nil {
				// Canceled mid-read: a losing hedge or the caller's own
				// budget, not a fault of the peer.
				return false, ctxError(ctx, err)
			}
			// A 200 with an unusable body is a peer fault (truncated or
			// corrupted response), never a wrong answer to the caller.
			return true, &api.Error{Class: api.ClassUnavailable,
				Message: fmt.Sprintf("client: %s returned a malformed response: %v", peer, err),
				Status:  api.ClassUnavailable.HTTPStatus()}
		}
		return false, nil
	}
	apiErr := decodeError(resp)
	drainBody(resp.Body)
	resp.Body.Close()
	switch apiErr.Class {
	case api.ClassInternal, api.ClassClosed, api.ClassUnavailable:
		// The peer (or a proxy in front of it) is unhealthy for this
		// request; a different peer may do better.
		return true, apiErr
	default:
		// Overload, deadline, or the request's own fault (4xx).
		return false, apiErr
	}
}

// backoffFor returns the sleep before retry `attempt` (0-based): the
// exponential schedule base·2^attempt, capped at max.
func backoffFor(attempt int, base, max time.Duration) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// decodeError turns a non-200 response into a *api.Error, synthesizing
// one from the status when the body is not a typed error (a proxy's
// plain-text 502, say).
func decodeError(resp *http.Response) *api.Error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var e api.Error
	if err := json.Unmarshal(body, &e); err == nil && e.Class != "" {
		if e.Status == 0 {
			e.Status = resp.StatusCode
		}
		return &e
	}
	return &api.Error{
		Class:   api.ClassForStatus(resp.StatusCode),
		Message: fmt.Sprintf("client: status %d: %s", resp.StatusCode, strings.TrimSpace(string(body))),
		Status:  resp.StatusCode,
	}
}

// ctxError prefers the context's own story over the transport's wrapped
// version of it, and types it for callers.
func ctxError(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return &api.Error{Class: api.ClassDeadline, Message: ctx.Err().Error(), Status: api.ClassDeadline.HTTPStatus()}
	}
	return err
}

// wireError coerces any error into the typed wire form for batch items.
func wireError(err error) *api.Error {
	var e *api.Error
	if errors.As(err, &e) {
		return e
	}
	return &api.Error{Class: api.ClassInternal, Message: err.Error(), Status: api.ClassInternal.HTTPStatus()}
}
