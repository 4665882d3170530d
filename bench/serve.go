package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"spatial/api"
	"spatial/internal/cashd"
	"spatial/internal/core"
	"spatial/internal/memsys"
	"spatial/internal/opt"
	"spatial/internal/serve"
	"spatial/internal/workloads"
)

// The service workloads are open loops of one kind of request each:
// serve-hit sends only cache hits, serve-miss only compile misses. There
// are no production logs to take a hit/miss mix from, so neither metric
// depends on one. Each rate is about a third of the closed-loop
// saturation rate of its kind of request on the 2-CPU host README.md
// gives the measurements of.
const (
	hitRate  = 200
	missRate = 80
)

// hotPrograms are the small suite programs the service workloads request.
var hotPrograms = []string{"jpeg_e", "jpeg_d", "gsm_d", "mpeg2_d", "130.li", "mesa", "pegwit_e", "147.vortex"}

// server is an in-process cashd on a loopback port with a client capped
// at one connection per issuing goroutine.
type server struct {
	srv    *cashd.Server
	hs     *http.Server
	served chan struct{}
	client *http.Client
	url    string
	salt   int // next unused salt for cold programs
}

func startServer(conns int) (*server, error) {
	srv, err := cashd.New(cashd.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}},
		url:    "http://" + ln.Addr().String() + "/" + api.Version + "/run",
	}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// close shuts the HTTP server down, waits for it, and drains the engine.
func (s *server) close() {
	_ = s.hs.Shutdown(context.Background()) // no deadline: every request has returned
	<-s.served
	s.client.CloseIdleConnections()
	s.srv.Close()
}

// runBody marshals a run request for p; salted bodies append a unique
// unused global, which changes the cache key but not the value.
func (s *server) runBody(p probeProg, salted bool) []byte {
	src := p.src
	if salted {
		src += fmt.Sprintf("\nint bench_salt_%d;\n", s.salt)
		s.salt++
	}
	rr := api.RunRequest{Program: api.Program{Source: src, Level: api.Level(p.level), Backend: p.backend.String()}, Entry: entry}
	if p.mem.Kind == memsys.Realistic {
		rr.Sim = &api.SimConfig{Mem: &api.MemConfig{Kind: api.MemRealistic, Ports: p.mem.Ports}}
	}
	b, err := json.Marshal(rr)
	if err != nil {
		panic(err) // RunRequest holds only marshalable fields
	}
	return b
}

// post sends one run request and reads the whole response. In a traced
// scope it records the client's view as an http.request span, with the
// server's queue wait and execution, taken from the response, as
// synthetic children ending when the response arrived.
func (s *server) post(sc scope, tag string, body []byte) (*api.RunResponse, error) {
	t0 := time.Now()
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var rr api.RunResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		return nil, err
	}
	if tr := sc.tr; tr != nil {
		req := span{id: tr.newID(), parent: sc.parent, name: "http.request", tag: tag,
			start: tr.since(t0), end: tr.since(t1), round: sc.round, tid: sc.tid}
		exec := "serve.exec.miss"
		if rr.CacheHit {
			exec = "serve.exec.hit"
		}
		execStart := req.end - time.Duration(rr.TotalNS-rr.WaitNS)
		queueStart := execStart - time.Duration(rr.WaitNS)
		tr.record(req)
		tr.record(span{id: tr.newID(), parent: req.id, name: "serve.queue", tag: tag, start: queueStart, end: execStart,
			round: sc.round, tid: sc.tid, synthetic: true})
		tr.record(span{id: tr.newID(), parent: req.id, name: exec, tag: tag, start: execStart, end: req.end,
			round: sc.round, tid: sc.tid, synthetic: true})
	}
	return &rr, nil
}

// hotRef is a hot program's expected response.
type hotRef struct {
	value, cycles, events int64
}

// request is one scheduled request.
type request struct {
	body []byte
	prog int // index into serveState.progs
}

// serveState is a service workload after set-up: a warm server, the
// references, and the whole request schedule with its bodies already
// marshalled.
type serveState struct {
	*server
	cold  bool // every request is a compile miss
	rate  int  // requests per second
	progs []probeProg
	hot   []hotRef
	sched []request
	next  int // first request the next loop sends
}

// setupServe starts cashd, fills its cache with the hot programs (each
// checked against the oracle, then again as a cache hit), checks that a
// salted copy of each returns the same value, and marshals the seeded
// request schedule: hot requests, or with cold, salted ones.
func setupServe(o options, cold bool) (*state, error) {
	s, err := startServer(o.workers)
	if err != nil {
		return nil, err
	}
	ss := &serveState{server: s, cold: cold, rate: hitRate}
	if cold {
		ss.rate = missRate
	}
	st := &state{serve: ss}
	if err := ss.warm(o); err != nil {
		s.close()
		return nil, err
	}
	for i, p := range ss.progs {
		st.progs = append(st.progs, p)
		st.simCycles += ss.hot[i].cycles
	}
	return st, nil
}

func (ss *serveState) warm(o options) error {
	for _, name := range hotPrograms {
		w := workloads.ByName(name)
		if w == nil {
			return fmt.Errorf("no suite program %q", name)
		}
		p := probeProg{name: name + "/O3", src: w.Source, level: opt.Full, backend: core.BackendCompiled, mem: memsys.PerfectConfig()}
		var err error
		if p.oracle, err = oracle(p.src); err != nil {
			return fmt.Errorf("%s: oracle: %w", name, err)
		}
		body := ss.runBody(p, false)
		var ref hotRef
		for i, wantHit := range []bool{false, true} {
			rr, err := ss.post(scope{}, p.name, body)
			if err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
			got := hotRef{rr.Value, rr.Stats.Cycles, rr.Stats.Events}
			if i == 0 {
				ref = got
			}
			if rr.CacheHit != wantHit || got != ref || got.value != p.oracle {
				return fmt.Errorf("%s: warm-up response %+v (cache hit %t), oracle %d", p.name, got, rr.CacheHit, p.oracle)
			}
		}
		rr, err := ss.post(scope{}, p.name, ss.runBody(p, true))
		if err != nil {
			return fmt.Errorf("%s salted: %w", p.name, err)
		}
		if rr.Value != p.oracle {
			return fmt.Errorf("%s salted: value %d, oracle %d", p.name, rr.Value, p.oracle)
		}
		ss.progs = append(ss.progs, p)
		ss.hot = append(ss.hot, ref)
	}

	n := int(o.seconds*float64(ss.rate)) + 1
	if o.ops > 0 {
		n = 2 * traceChunks * o.ops // the most loops of o.ops a run sends
	}
	// The seed picks each request's program. Cold requests take every
	// program once in each len(progs) requests, in a seeded order, so each
	// program's class is the same size in every run and the cache ends
	// every run holding the same mix of programs.
	hotBodies := make([][]byte, len(ss.progs))
	for i, p := range ss.progs {
		hotBodies[i] = ss.runBody(p, false)
	}
	rng := rand.New(rand.NewSource(o.seed))
	ss.sched = make([]request, n)
	var order []int
	for i := range ss.sched {
		if !ss.cold {
			p := rng.Intn(len(ss.progs))
			ss.sched[i] = request{prog: p, body: hotBodies[p]}
			continue
		}
		if i%len(ss.progs) == 0 {
			order = rng.Perm(len(ss.progs))
		}
		p := order[i%len(ss.progs)]
		ss.sched[i] = request{prog: p, body: ss.runBody(ss.progs[p], true)}
	}
	return nil
}

// loop sends the next part of the schedule as an open loop: request i is
// due i/rate seconds after the loop starts, whatever happened to the
// ones before it, and its latency runs from its due time. l.workers
// goroutines, each with its own connection, send the requests; a request
// due while all are busy waits, and that wait is part of its latency.
// The generator's own lateness is how long after its due time, or after
// a sender took it if that was later, a request went out: timer and
// scheduling slip, not the wait for a free sender.
func (ss *serveState) loop(l loopSpec) *samples {
	n := int(l.dur.Seconds() * float64(ss.rate))
	if l.maxOps > 0 {
		n = l.maxOps
	}
	if rest := len(ss.sched) - ss.next; n > rest {
		n = rest
	}
	sched := ss.sched[ss.next : ss.next+n]
	ss.next += n
	interval := time.Second / time.Duration(ss.rate)

	var next atomic.Int64
	per := make([]samples, l.workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			s := &per[tid]
			for {
				i := next.Add(1) - 1
				if i >= int64(len(sched)) {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				taken := time.Now()
				time.Sleep(due.Sub(taken))
				sent := time.Now()
				sc := scope{tr: l.tr, round: i, tid: tid}
				if l.tr != nil {
					sc.parent = l.tr.newID()
				}
				err := ss.check(sc, sched[i])
				done := time.Now()
				if l.tr != nil {
					l.tr.record(span{id: sc.parent, name: "op", tag: ss.progs[sched[i].prog].name,
						start: l.tr.since(due), end: l.tr.since(done), round: i, tid: tid})
				}
				s.add(sched[i].prog, done.Sub(due), err)
				s.late = append(s.late, float64(sent.Sub(later(due, taken)))/1e3)
			}
		}(w)
	}
	wg.Wait()
	all := &samples{}
	for i := range per {
		all.merge(&per[i])
	}
	return all
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// check sends r and compares the response with the oracle and its cache
// verdict with the workload's kind and, for a hot request, with the
// cached run's cycles and events.
func (ss *serveState) check(sc scope, r request) error {
	p, ref := ss.progs[r.prog], ss.hot[r.prog]
	rr, err := ss.post(sc, p.name, r.body)
	if err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	if rr.Value != p.oracle {
		return fmt.Errorf("wrong answer: %s: value %d, oracle %d", p.name, rr.Value, p.oracle)
	}
	if rr.CacheHit == ss.cold {
		return fmt.Errorf("wrong answer: %s: cache hit %t, want %t", p.name, rr.CacheHit, !ss.cold)
	}
	if !ss.cold && (rr.Stats.Cycles != ref.cycles || rr.Stats.Events != ref.events) {
		return fmt.Errorf("wrong answer: %s: (cycles, events) = (%d, %d), reference (%d, %d)", p.name,
			rr.Stats.Cycles, rr.Stats.Events, ref.cycles, ref.events)
	}
	return nil
}

// statsDelta is the engine's counters since the previous call.
func (s *server) statsDelta(prev *serve.Stats) serve.Stats {
	now := s.srv.Engine().Stats()
	d := serve.Stats{
		CacheHits:      now.CacheHits - prev.CacheHits,
		CacheShared:    now.CacheShared - prev.CacheShared,
		CacheMisses:    now.CacheMisses - prev.CacheMisses,
		CacheEvictions: now.CacheEvictions - prev.CacheEvictions,
		Rejected:       now.Rejected - prev.Rejected,
		Canceled:       now.Canceled - prev.Canceled,
	}
	*prev = now
	return d
}

// addStats adds the counters statsDelta reports in d to sum.
func addStats(sum *serve.Stats, d serve.Stats) {
	sum.CacheHits += d.CacheHits
	sum.CacheShared += d.CacheShared
	sum.CacheMisses += d.CacheMisses
	sum.CacheEvictions += d.CacheEvictions
	sum.Rejected += d.Rejected
	sum.Canceled += d.Canceled
}
