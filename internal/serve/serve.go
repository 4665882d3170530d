// Package serve is the batch simulation service layer: it turns the
// one-program, one-run facade into an engine that handles many
// independent (program, input) requests at once.
//
// Two mechanisms carry the load:
//
//   - A content-addressed compile cache memoizes the full CASH pipeline
//     (CFG → hyperblocks → PSSA → Pegasus → memory optimizations). The
//     key is a SHA-256 digest of the source and every compile-time
//     parameter; the value is the immutable *core.Compiled with its
//     prebuilt per-graph structures. The cache is a bounded LRU with
//     single-flight: N concurrent requests for the same program compile
//     it exactly once.
//
//   - A fixed worker pool (default GOMAXPROCS) executes runs. Admission
//     is a bounded queue: when it is full the engine rejects with
//     ErrOverload instead of growing goroutines without bound, so an
//     overloaded service degrades by shedding load, not by dying.
//
// Requests are embarrassingly parallel — the paper's independence
// argument applied at the service level: each run owns its memory image,
// event queue, and memory system, and shares only immutable compiled
// structures (see DESIGN.md "Concurrency model").
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spatial/api"
	"spatial/internal/core"
	"spatial/internal/dataflow"
)

// Errors returned by the engine itself (run and compile failures come
// back classified by the core facade: core.ErrCompile / core.ErrSim).
var (
	// ErrOverload reports that the admission queue was full; the caller
	// should back off and retry.
	ErrOverload = errors.New("serve: overloaded, admission queue full")
	// ErrClosed reports a request submitted after Close.
	ErrClosed = errors.New("serve: engine closed")
)

// Config parameterizes an Engine. The zero value selects sensible
// defaults for every field.
type Config struct {
	// Workers is the number of goroutines executing runs; 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds the admission queue; a request arriving when the
	// queue is full is rejected with ErrOverload. 0 means 4×Workers.
	QueueDepth int
	// CacheEntries bounds the compile cache (distinct compiled programs
	// kept); 0 means 64.
	CacheEntries int
	// CacheDir, when non-empty, persists the compile cache to this
	// directory: every successful compile is written through (as its
	// wire-form inputs), hits refresh recency, evictions delete, and New
	// reloads — recompiling — the most recent CacheEntries programs so a
	// restarted engine answers its first request for a known program
	// with a cache hit. Empty means in-memory only.
	CacheDir string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 64
	}
	return c
}

// Request is one simulation to execute: a wire-form program
// (compile-time fields, which form the cache key) and an invocation
// (run-time fields, which do not).
//
// The compile-time half is api.Program — the same versioned wire type
// the cashd daemon decodes off the network — so the in-process and
// network paths serve one contract. The run-time half mirrors
// api.RunRequest (Entry/Args/TimeoutMS), with the timeout already
// lifted to a time.Duration.
//
// NOTE: TestRequestFieldInventory pins this struct's field set against
// the cache-key function; adding a field here requires deciding —
// there — whether it keys the cache.
type Request struct {
	// Program is the compile-time half: source, level, pass toggles,
	// simulator configuration. Its wire sim config is converted and
	// normalized before keying, so configs differing only in defaulted
	// fields share a cache entry.
	api.Program

	// Entry is the function to run ("main" when empty).
	Entry string
	// Args are the entry function's arguments.
	Args []int64
	// Deadline, when positive, bounds the request's total time in the
	// engine — queue wait plus run — via the run's context.
	Deadline time.Duration
}

// Response is the outcome of one request.
type Response struct {
	Value int64
	Stats dataflow.Stats
	// CacheHit reports whether compilation was served from the cache
	// (including joining a compile already in flight).
	CacheHit bool
	// Wait is the time the request spent queued before a worker took it.
	Wait time.Duration
	// Total is the request's full residence time in the engine.
	Total time.Duration
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	Completed uint64 // runs finished successfully
	Failed    uint64 // requests that ended in a compile or run error
	Rejected  uint64 // requests shed with ErrOverload
	Canceled  uint64 // requests abandoned while queued (never ran)

	CacheHits      uint64 // lookups served by a ready entry
	CacheShared    uint64 // lookups that joined an in-flight compile
	CacheMisses    uint64 // lookups that had to compile
	CacheEvictions uint64 // ready entries evicted by the LRU bound
	CacheEntries   int    // entries currently resident

	QueueLen        int // requests waiting for a worker right now
	QueueCap        int // admission queue bound (Config.QueueDepth)
	DiskLoaded      int // entries warmed from CacheDir at startup
	DiskQuarantined int // corrupt persisted entries quarantined at startup
}

// HitRate returns the fraction of lookups that avoided a compile.
func (s Stats) HitRate() float64 {
	total := s.CacheHits + s.CacheShared + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits+s.CacheShared) / float64(total)
}

// job is one queued request with its completion channel.
type job struct {
	req    Request
	ctx    context.Context
	cancel context.CancelFunc // releases ctx's deadline timer; nil without one
	queued time.Time
	done   chan jobResult
}

type jobResult struct {
	resp *Response
	err  error
}

// Engine is the batch simulation service. Create one with New, submit
// with Do or DoBatch from any number of goroutines, and Close it when
// done. All methods are safe for concurrent use.
type Engine struct {
	cfg   Config
	queue chan *job

	mu    sync.Mutex // guards cache
	cache *compileCache

	// disk is the persistent cache store; nil without Config.CacheDir.
	// All disk operations happen outside e.mu and are best-effort.
	disk            *diskStore
	diskLoaded      int
	diskQuarantined int

	// compileFn builds a Compiled for a request; tests swap it to count
	// and instrument pipeline executions.
	compileFn func(Request) (*core.Compiled, error)

	completed atomic.Uint64
	failed    atomic.Uint64
	rejected  atomic.Uint64
	canceled  atomic.Uint64

	closeMu sync.RWMutex
	closed  bool
	wg      sync.WaitGroup
}

// New starts an engine with cfg's worker pool and cache. With
// Config.CacheDir set it also opens the persistent store and warms the
// in-memory cache by recompiling the most recently used persisted
// programs (newest kept, LRU bound enforced across the restart); a
// persisted program the current compiler rejects is dropped from disk.
// New fails only on an unusable cache directory.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:       cfg,
		queue:     make(chan *job, cfg.QueueDepth),
		cache:     newCompileCache(cfg.CacheEntries),
		compileFn: compileRequest,
	}
	if cfg.CacheDir != "" {
		d, err := openDiskStore(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		e.disk = d
		entries, quarantined := d.load(cfg.CacheEntries)
		e.diskQuarantined = quarantined
		for _, ent := range entries {
			cp, err := e.compileFn(Request{Program: ent.prog})
			if err != nil {
				d.remove(ent.key)
				continue
			}
			e.cache.insert(ent.key, cp)
			e.diskLoaded++
		}
	}
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e, nil
}

// compileRequest runs the full pipeline for a request's compile-time
// fields, converting the wire program through the one api→internal
// mapping (wire.go).
func compileRequest(r Request) (*core.Compiled, error) {
	opts, err := coreOptions(r.Program)
	if err != nil {
		return nil, core.Classified(core.ErrCompile, err)
	}
	return core.CompileSource(r.Source, opts...)
}

// Close stops accepting requests, waits for queued and running work to
// drain, and returns. Close is idempotent.
func (e *Engine) Close() {
	e.closeMu.Lock()
	if e.closed {
		e.closeMu.Unlock()
		return
	}
	e.closed = true
	close(e.queue)
	e.closeMu.Unlock()
	e.wg.Wait()
}

// Do submits one request and blocks until it completes, fails, or ctx is
// done. A full admission queue rejects immediately with ErrOverload; a
// nil ctx means context.Background(). Do is safe to call from any number
// of goroutines.
func (e *Engine) Do(ctx context.Context, req Request) (*Response, error) {
	return e.submit(ctx, req, false)
}

// BatchResult pairs one batch item's response with its error.
type BatchResult struct {
	Resp *Response
	Err  error
}

// DoBatch submits every request and waits for all of them, returning
// results in request order. Unlike Do, admission blocks instead of
// rejecting, which makes DoBatch an all-or-errors bulk interface. The
// caller's goroutine admits the items one at a time, in order, and then
// collects their results in order, so a batch of any size adds no
// goroutines: at most QueueDepth items wait in the queue while the
// workers run the others. Every item's Deadline counts from the DoBatch
// call, so it bounds the item's whole time in the engine, including the
// time it waits behind earlier items.
func (e *Engine) DoBatch(ctx context.Context, reqs []Request) []BatchResult {
	start := time.Now()
	out := make([]BatchResult, len(reqs))
	jobs := make([]*job, len(reqs))
	for i, r := range reqs {
		jobs[i], out[i].Err = e.enqueue(ctx, r, start, true)
	}
	for i, j := range jobs {
		if j != nil {
			out[i].Resp, out[i].Err = j.wait()
		}
	}
	return out
}

// submit enqueues a job and waits for its result.
func (e *Engine) submit(ctx context.Context, req Request, block bool) (*Response, error) {
	j, err := e.enqueue(ctx, req, time.Now(), block)
	if err != nil {
		return nil, err
	}
	return j.wait()
}

// enqueue admits one request as a job that entered the engine at start;
// its context carries the request's deadline, counted from start. block
// selects the admission policy: false rejects with ErrOverload when the
// queue is full, true waits for a slot (DoBatch). The caller must wait on
// an admitted job, which releases its context.
func (e *Engine) enqueue(ctx context.Context, req Request, start time.Time, block bool) (*job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	j := &job{req: req, ctx: ctx, queued: start, done: make(chan jobResult, 1)}
	if req.Deadline > 0 {
		j.ctx, j.cancel = context.WithDeadline(ctx, start.Add(req.Deadline))
	}
	if err := e.admit(j, block); err != nil {
		j.release()
		return nil, err
	}
	return j, nil
}

func (e *Engine) admit(j *job, block bool) error {
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	if block {
		// Blocking admission: hold the RLock so Close cannot close the
		// queue mid-send; Close's Lock waits for us.
		select {
		case e.queue <- j:
			return nil
		case <-j.ctx.Done():
			return j.ctx.Err()
		}
	}
	select {
	case e.queue <- j:
		return nil
	default:
		e.rejected.Add(1)
		return fmt.Errorf("%w (depth %d)", ErrOverload, e.cfg.QueueDepth)
	}
}

// wait blocks until the job's result arrives or its context is done, then
// releases the context. A result that has already arrived wins over a
// context that is done too: DoBatch collects in order, so an item that
// finished in time is often collected after its deadline has passed.
func (j *job) wait() (*Response, error) {
	defer j.release()
	select {
	case r := <-j.done:
		return r.resp, r.err
	case <-j.ctx.Done():
	}
	select {
	case r := <-j.done:
		return r.resp, r.err
	default:
		// The worker will observe the canceled context and drop the job;
		// the buffered done channel never blocks it.
		return nil, j.ctx.Err()
	}
}

func (j *job) release() {
	if j.cancel != nil {
		j.cancel()
	}
}

// errAbandoned marks a job whose caller gave up while it was still
// queued: the work never ran, so it is neither a completion nor a
// failure. The caller's own context error is wrapped alongside.
var errAbandoned = errors.New("serve: request abandoned while queued")

func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.queue {
		resp, err := e.process(j)
		switch {
		case err == nil:
			e.completed.Add(1)
		case errors.Is(err, errAbandoned):
			e.canceled.Add(1)
		default:
			e.failed.Add(1)
		}
		j.done <- jobResult{resp: resp, err: err}
	}
}

// process executes one job on the calling worker: resolve the compiled
// program through the cache (compiling it here if this job is the
// flight's leader), then run it under the job's context.
func (e *Engine) process(j *job) (*Response, error) {
	wait := time.Since(j.queued)
	if err := j.ctx.Err(); err != nil {
		// Abandoned while queued (deadline or caller cancellation): the
		// run never starts, and Stats counts it apart from failures.
		return nil, fmt.Errorf("%w: %w", errAbandoned, err)
	}
	cp, hit, err := e.Resolve(j.ctx, j.req)
	if err != nil {
		return nil, err
	}
	entry := j.req.Entry
	if entry == "" {
		entry = "main"
	}
	res, err := cp.RunCtx(j.ctx, entry, j.req.Args)
	if err != nil {
		return nil, err
	}
	return &Response{
		Value:    res.Value,
		Stats:    res.Stats,
		CacheHit: hit,
		Wait:     wait,
		Total:    time.Since(j.queued),
	}, nil
}

// Resolve resolves the request's program through the compile cache
// without running it: it returns the immutable compiled program,
// compiling (and write-through persisting) it if absent. The second
// result reports whether the compilation was shared (a ready entry or a
// joined flight) rather than performed by this call. Resolve is what
// the daemon's /v1/compile endpoint and traced runs use; Do and DoBatch
// resolve through it on a worker.
func (e *Engine) Resolve(ctx context.Context, req Request) (*core.Compiled, bool, error) {
	key, err := req.key()
	if err != nil {
		return nil, false, core.Classified(core.ErrCompile, err)
	}
	e.mu.Lock()
	ent, leader := e.cache.lookup(key)
	e.mu.Unlock()
	if leader {
		cp, cerr := e.compileFn(req)
		e.mu.Lock()
		evicted := e.cache.finish(ent, cp, cerr)
		e.mu.Unlock()
		if e.disk != nil {
			if cerr == nil {
				_ = e.disk.put(key, req.Program) // best-effort: disk loss = cold cache
			}
			for _, k := range evicted {
				e.disk.remove(k)
			}
		}
		return cp, false, cerr
	}
	cp, werr := ent.wait(ctx)
	if werr == nil && e.disk != nil {
		e.disk.touch(key)
	}
	return cp, true, werr
}

// Stats snapshots the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	s := Stats{
		CacheHits:       e.cache.hits,
		CacheShared:     e.cache.shared,
		CacheMisses:     e.cache.misses,
		CacheEvictions:  e.cache.evictions,
		CacheEntries:    e.cache.lru.Len(),
		DiskLoaded:      e.diskLoaded,
		DiskQuarantined: e.diskQuarantined,
	}
	e.mu.Unlock()
	s.Completed = e.completed.Load()
	s.Failed = e.failed.Load()
	s.Rejected = e.rejected.Load()
	s.Canceled = e.canceled.Load()
	s.QueueLen = len(e.queue)
	s.QueueCap = e.cfg.QueueDepth
	return s
}
