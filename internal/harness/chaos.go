package harness

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spatial/api"
	"spatial/client"
	"spatial/internal/cashd"
	"spatial/internal/netchaos"
	"spatial/internal/serve"
)

// ChaosRow is one fault schedule's outcome against a multi-peer cashd
// cluster. The resilience contract it records: every request either
// succeeds bit-identically to the fault-free reference, or fails with a
// typed *api.Error — never a hang, never a silent wrong answer, never a
// raw transport error leaked to the caller.
type ChaosRow struct {
	Schedule string
	Seed     int64
	Requests int
	OK       int // bit-identical successes
	Typed    int // failed, but with a typed api.Error
	Wrong    int
	Unclass  int // failed with an untyped error — a contract breach
	Hangs    int // no answer past deadline + grace — a contract breach

	AvailabilityPct float64 // OK over Requests
	P50NS           int64   // median OK latency under faults
	P99NS           int64

	Triggered int // injections that actually fired
}

// ChaosOptions parameterizes ChaosBattery. Zero values select defaults.
type ChaosOptions struct {
	Peers       int           // cluster size; 0 = 3
	Requests    int           // per schedule; 0 = 120
	Concurrency int           // parallel request streams; 0 = 4
	Deadline    time.Duration // per-request budget; 0 = 5s
	Seed        int64         // jitter seed; 0 = 1
	Schedules   []string      // nil = every schedule
}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.Peers <= 0 {
		o.Peers = 3
	}
	if o.Requests <= 0 {
		o.Requests = 120
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 4
	}
	if o.Deadline <= 0 {
		o.Deadline = 5 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// chaosSchedule names one deterministic fault plan, built fresh (the
// injector is stateful) for each battery pass.
type chaosSchedule struct {
	name  string
	build func(hosts []string, busiest string, seed int64) *netchaos.Injector
}

// chaosSchedules is the battery: each entry attacks one layer of the
// resilience machinery. Hosts are the cluster's listen addresses in the
// order of the peer list; busiest is the host owning the most chaosMix
// programs on the ring (see busiestHost).
func chaosSchedules() []chaosSchedule {
	return []chaosSchedule{
		{"peer-kill", func(hosts []string, busiest string, seed int64) *netchaos.Injector {
			// The busiest peer dies after its first arrival and never
			// comes back: every request it owned must fail over. Killing
			// the busiest owner, not a fixed index, makes the kill fire
			// whatever ports the cluster happened to listen on.
			return netchaos.New(netchaos.Plan{},
				netchaos.PeerWindow{Peer: busiest, From: 2})
		}},
		{"conn-reset", func(hosts []string, busiest string, seed int64) *netchaos.Injector {
			return netchaos.New(netchaos.Plan{Faults: []netchaos.Fault{
				{Op: netchaos.Reset, Path: "/v1/run", Nth: 1},
				{Op: netchaos.Reset, Path: "/v1/run", Nth: 4},
				{Op: netchaos.Reset, Peer: hosts[1], Nth: 7},
			}})
		}},
		{"corrupt", func(hosts []string, busiest string, seed int64) *netchaos.Injector {
			// Byte 0 is the opening brace of the JSON body: always
			// detectable, so a corrupted response must be retried, never
			// decoded into a wrong answer.
			return netchaos.New(netchaos.Plan{Faults: []netchaos.Fault{
				{Op: netchaos.Corrupt, Path: "/v1/run", Nth: 2},
				{Op: netchaos.Corrupt, Path: "/v1/run", Nth: 5},
			}})
		}},
		{"truncate", func(hosts []string, busiest string, seed int64) *netchaos.Injector {
			return netchaos.New(netchaos.Plan{Faults: []netchaos.Fault{
				{Op: netchaos.Truncate, Path: "/v1/run", Nth: 3},
				{Op: netchaos.Truncate, Path: "/v1/run", Nth: 6},
			}})
		}},
		{"flaky-5xx", func(hosts []string, busiest string, seed int64) *netchaos.Injector {
			return netchaos.New(netchaos.Plan{Faults: []netchaos.Fault{
				{Op: netchaos.Status, Code: 500, Nth: 1},
				{Op: netchaos.Status, Code: 502, Nth: 4},
				{Op: netchaos.Status, Code: 429, Nth: 7},
			}})
		}},
		{"delay", func(hosts []string, busiest string, seed int64) *netchaos.Injector {
			return netchaos.New(netchaos.Plan{Faults: []netchaos.Fault{
				{Op: netchaos.Delay, Latency: 50 * time.Millisecond, Nth: 2},
				{Op: netchaos.Delay, Latency: 30 * time.Millisecond, Nth: 5},
			}}).WithJitter(seed, 0.1, 10*time.Millisecond)
		}},
		{"blackhole", func(hosts []string, busiest string, seed int64) *netchaos.Injector {
			// One request is swallowed whole; the hedge must mask it well
			// before the request deadline would.
			return netchaos.New(netchaos.Plan{Faults: []netchaos.Fault{
				{Op: netchaos.Drop, Path: "/v1/run", Nth: 3},
			}})
		}},
	}
}

// chaosMix is the request set the battery cycles through: small distinct
// programs so several peers own traffic and the compile cache warms
// within the reference pass.
func chaosMix() []api.RunRequest {
	var mix []api.RunRequest
	for _, n := range []int{50, 90, 130, 170, 210, 250} {
		src := fmt.Sprintf(`
int f(void) {
  int i; int s = 0;
  for (i = 0; i < %d; i++) s += i;
  return s;
}`, n)
		mix = append(mix, api.RunRequest{
			Program: api.Program{Source: src, Level: api.LevelFull},
			Entry:   "f",
		})
	}
	return mix
}

// chaosCluster is an in-process multi-peer cashd cluster on loopback.
type chaosCluster struct {
	urls  []string
	hosts []string
	srvs  []*cashd.Server
	https []*http.Server
}

func startChaosCluster(n int) (*chaosCluster, error) {
	c := &chaosCluster{}
	lns := make([]net.Listener, 0, n)
	fail := func(err error) (*chaosCluster, error) {
		for _, ln := range lns {
			ln.Close()
		}
		c.stop()
		return nil, err
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		lns = append(lns, ln)
		c.urls = append(c.urls, "http://"+ln.Addr().String())
		c.hosts = append(c.hosts, ln.Addr().String())
	}
	for i := 0; i < n; i++ {
		srv, err := cashd.New(cashd.Config{
			Engine: serve.Config{Workers: 2, QueueDepth: 64, CacheEntries: 32},
		})
		if err != nil {
			return fail(err)
		}
		c.srvs = append(c.srvs, srv)
		hs := &http.Server{Handler: srv.Handler()}
		c.https = append(c.https, hs)
		go hs.Serve(lns[i])
	}
	return c, nil
}

// busiestHost returns the listen address of the peer that owns the most
// programs of mix on the routing ring (ties go to the earlier peer).
// Ownership hashes the peers' URLs, and the cluster listens on random
// loopback ports, so which index that is changes from run to run; with
// n peers and len(mix) programs the busiest one owns at least
// len(mix)/n of them.
func (c *chaosCluster) busiestHost(mix []api.RunRequest) string {
	ring := api.NewRing(c.urls, 0)
	owned := map[string]int{}
	for _, rr := range mix {
		owned[ring.Owner(rr.Program.Key())]++
	}
	best := 0
	for i, u := range c.urls {
		if owned[u] > owned[c.urls[best]] {
			best = i
		}
	}
	return c.hosts[best]
}

func (c *chaosCluster) stop() {
	for _, hs := range c.https {
		hs.Close()
	}
	for _, s := range c.srvs {
		s.Close()
	}
}

// chaosRef is the fault-free reference answer for one program.
type chaosRef struct {
	value int64
	stats api.Stats
}

// ChaosBattery drives a fresh in-process cluster through each fault
// schedule and reports one row per schedule. Before injecting anything
// it records a fault-free reference answer per program; under faults,
// every success must match its reference bit-for-bit.
func ChaosBattery(opts ChaosOptions) ([]ChaosRow, error) {
	opts = opts.withDefaults()
	mix := chaosMix()

	want := map[string]bool{}
	for _, s := range opts.Schedules {
		want[s] = true
	}
	var rows []ChaosRow
	for _, sched := range chaosSchedules() {
		if len(want) > 0 && !want[sched.name] {
			continue
		}
		row, err := runChaosSchedule(sched, mix, opts)
		if err != nil {
			return rows, fmt.Errorf("chaos: schedule %s: %w", sched.name, err)
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("chaos: no schedules selected from %v", opts.Schedules)
	}
	return rows, nil
}

func runChaosSchedule(sched chaosSchedule, mix []api.RunRequest, opts ChaosOptions) (ChaosRow, error) {
	cluster, err := startChaosCluster(opts.Peers)
	if err != nil {
		return ChaosRow{}, err
	}
	defer cluster.stop()

	// Reference pass: a plain client (no injector) records the expected
	// answer per program and warms every owner's compile cache.
	refCl, err := client.New(client.Config{Peers: cluster.urls})
	if err != nil {
		return ChaosRow{}, err
	}
	refs := map[string]chaosRef{}
	for _, rr := range mix {
		ctx, cancel := context.WithTimeout(context.Background(), opts.Deadline)
		resp, err := refCl.Run(ctx, rr)
		cancel()
		if err != nil {
			return ChaosRow{}, fmt.Errorf("reference pass: %w", err)
		}
		refs[rr.Program.Source] = chaosRef{value: resp.Value, stats: resp.Stats}
	}

	// Chaos pass: the same traffic through the fault-injecting transport.
	inj := sched.build(cluster.hosts, cluster.busiestHost(mix), opts.Seed)
	cl, err := client.New(client.Config{
		Peers:       cluster.urls,
		HTTPClient:  &http.Client{Transport: &netchaos.Transport{Inj: inj}},
		MaxRetries:  6,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
		HedgeDelay:  25 * time.Millisecond,
	})
	if err != nil {
		return ChaosRow{}, err
	}
	row := driveChaos(cl, refs, mix, opts)
	row.Schedule = sched.name
	row.Seed = opts.Seed
	row.Triggered = len(inj.Triggered())
	return row, nil
}

// driveChaos fires opts.Requests requests through cl from
// opts.Concurrency workers and classifies every outcome. A watchdog
// past the request deadline plus a grace period scores a hang — the one
// thing retries and hedging must never produce.
func driveChaos(cl *client.Client, refs map[string]chaosRef, mix []api.RunRequest, opts ChaosOptions) ChaosRow {
	row := ChaosRow{Requests: opts.Requests}
	var (
		mu   sync.Mutex
		lats []time.Duration
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= opts.Requests {
					return
				}
				rr := mix[i%len(mix)]
				ok, typed, wrong, unclass, hang, lat := oneChaosRequest(cl, rr, refs[rr.Program.Source], opts.Deadline)
				mu.Lock()
				row.OK += ok
				row.Typed += typed
				row.Wrong += wrong
				row.Unclass += unclass
				row.Hangs += hang
				if ok == 1 {
					lats = append(lats, lat)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	row.AvailabilityPct = 100 * float64(row.OK) / float64(row.Requests)
	if len(lats) > 0 {
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		row.P50NS = lats[len(lats)*50/100].Nanoseconds()
		p99 := len(lats) * 99 / 100
		if p99 >= len(lats) {
			p99 = len(lats) - 1
		}
		row.P99NS = lats[p99].Nanoseconds()
	}
	return row
}

func oneChaosRequest(cl *client.Client, rr api.RunRequest, ref chaosRef, deadline time.Duration) (ok, typed, wrong, unclass, hang int, lat time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	type result struct {
		resp *api.RunResponse
		err  error
	}
	ch := make(chan result, 1)
	start := time.Now()
	go func() {
		resp, err := cl.Run(ctx, rr)
		ch <- result{resp, err}
	}()
	select {
	case r := <-ch:
		lat = time.Since(start)
		if r.err != nil {
			var ae *api.Error
			if errors.As(r.err, &ae) {
				return 0, 1, 0, 0, 0, lat
			}
			return 0, 0, 0, 1, 0, lat
		}
		if r.resp.Value != ref.value || r.resp.Stats != ref.stats {
			return 0, 0, 1, 0, 0, lat
		}
		return 1, 0, 0, 0, 0, lat
	case <-time.After(deadline + 3*time.Second):
		// The client's own deadline handling should have answered long
		// ago; this is the harness-level hang detector.
		return 0, 0, 0, 0, 1, 0
	}
}

// ChaosGate enforces the battery's hard contract: no hangs, no wrong
// answers, no unclassified errors, and at least one success per
// schedule. Typed errors are allowed — shedding under attack is policy,
// lying or wedging is not.
func ChaosGate(rows []ChaosRow) error {
	for _, r := range rows {
		if r.Hangs > 0 || r.Wrong > 0 || r.Unclass > 0 {
			return fmt.Errorf("chaos gate: schedule %s: %d hangs, %d wrong answers, %d unclassified errors (want 0/0/0)",
				r.Schedule, r.Hangs, r.Wrong, r.Unclass)
		}
		if r.OK == 0 {
			return fmt.Errorf("chaos gate: schedule %s: no request succeeded", r.Schedule)
		}
	}
	return nil
}

// FormatChaos renders the battery as the experiments table.
func FormatChaos(opts ChaosOptions, rows []ChaosRow) string {
	opts = opts.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "cashd chaos battery (peers=%d, requests/schedule=%d, concurrency=%d, deadline=%s, seed=%d)\n",
		opts.Peers, opts.Requests, opts.Concurrency, opts.Deadline, opts.Seed)
	fmt.Fprintf(&b, "  %-10s %5s %5s %6s %6s %8s %6s %7s %10s %10s %7s\n",
		"schedule", "req", "ok", "typed", "wrong", "unclass", "hangs", "avail", "p50", "p99", "faults")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-10s %5d %5d %6d %6d %8d %6d %6.1f%% %10s %10s %7d\n",
			r.Schedule, r.Requests, r.OK, r.Typed, r.Wrong, r.Unclass, r.Hangs,
			r.AvailabilityPct,
			time.Duration(r.P50NS).Round(time.Microsecond),
			time.Duration(r.P99NS).Round(time.Microsecond),
			r.Triggered)
	}
	return b.String()
}
