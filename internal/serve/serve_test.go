package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatial/api"
	"spatial/internal/core"
)

// TestOverloadBackpressure fills the pool and the queue, then verifies
// the next request is shed with ErrOverload instead of waiting.
func TestOverloadBackpressure(t *testing.T) {
	e := newEngine(t, Config{Workers: 1, QueueDepth: 1, CacheEntries: 4})
	defer e.Close()

	gate := make(chan struct{})
	var once sync.Once
	e.compileFn = func(r Request) (*core.Compiled, error) {
		once.Do(func() { <-gate }) // first compile blocks the only worker
		return compileRequest(r)
	}

	req := testReq(srcLoop, api.LevelFull, "f", 10)
	first := make(chan error, 1)
	go func() {
		_, err := e.Do(context.Background(), req)
		first <- err
	}()
	// Wait until the worker is inside the gated compile.
	for e.Stats().CacheMisses == 0 {
		time.Sleep(time.Millisecond)
	}

	// Occupy the single queue slot.
	second := make(chan error, 1)
	go func() {
		_, err := e.Do(context.Background(), req)
		second <- err
	}()
	for len(e.queue) == 0 {
		time.Sleep(time.Millisecond)
	}

	// Queue full, worker busy: this one must be rejected immediately.
	if _, err := e.Do(context.Background(), req); !errors.Is(err, ErrOverload) {
		t.Fatalf("err = %v, want ErrOverload", err)
	}
	if s := e.Stats(); s.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", s.Rejected)
	}

	close(gate)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-second; err != nil {
		t.Fatal(err)
	}
}

// TestDeadline verifies a per-request deadline aborts a long run through
// the existing RunCtx cancellation path.
func TestDeadline(t *testing.T) {
	e := newEngine(t, Config{Workers: 1, CacheEntries: 4})
	defer e.Close()

	// ~10^8 iterations: far longer than a microsecond deadline.
	slow := `
int f(void) {
  int i; int s = 0;
  for (i = 0; i < 100000000; i++) s += i;
  return s;
}`
	req := testReq(slow, api.LevelNone, "f")
	req.Deadline = time.Microsecond
	_, err := e.Do(context.Background(), req)
	if err == nil {
		t.Fatal("expected a deadline error")
	}
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, core.ErrSim) {
		t.Fatalf("err = %v, want DeadlineExceeded or ErrSim class", err)
	}
}

// TestDoBatch checks order preservation and per-item results, with the
// batch larger than the queue (blocking admission).
func TestDoBatch(t *testing.T) {
	e := newEngine(t, Config{Workers: 2, QueueDepth: 2, CacheEntries: 4})
	defer e.Close()

	reqs := make([]Request, 9)
	for i := range reqs {
		reqs[i] = testReq(srcAdd, api.LevelFull, "f", int64(i), 100)
	}
	out := e.DoBatch(context.Background(), reqs)
	if len(out) != len(reqs) {
		t.Fatalf("got %d results, want %d", len(out), len(reqs))
	}
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		if want := int64(i + 100); r.Resp.Value != want {
			t.Fatalf("item %d = %d, want %d", i, r.Resp.Value, want)
		}
	}
	s := e.Stats()
	if s.Completed != uint64(len(reqs)) || s.CacheMisses != 1 {
		t.Fatalf("stats = completed %d misses %d, want %d/1", s.Completed, s.CacheMisses, len(reqs))
	}
}

// TestDoBatchBoundedGoroutines runs a batch far larger than the queue
// and requires every result in order while the goroutine count stays
// within a small constant of its value before the call: the batch admits
// its items from the caller's goroutine, not one goroutine per item.
func TestDoBatchBoundedGoroutines(t *testing.T) {
	e := newEngine(t, Config{Workers: 2, QueueDepth: 8, CacheEntries: 4})
	defer e.Close()
	reqs := make([]Request, 20000)
	for i := range reqs {
		reqs[i] = testReq(srcAdd, api.LevelFull, "f", int64(i), 1)
		reqs[i].Deadline = time.Minute
	}
	before := runtime.NumGoroutine()
	stop, peak := make(chan struct{}), make(chan int)
	go func() {
		high := 0
		for {
			if n := runtime.NumGoroutine(); n > high {
				high = n
			}
			select {
			case <-stop:
				peak <- high
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()
	out := e.DoBatch(context.Background(), reqs)
	close(stop)
	// The sampler itself is one goroutine above the baseline.
	if high := <-peak; high > before+3 {
		t.Errorf("goroutines peaked at %d during the batch, %d before it", high, before)
	}
	if len(out) != len(reqs) {
		t.Fatalf("got %d results, want %d", len(out), len(reqs))
	}
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		if want := int64(i + 1); r.Resp.Value != want {
			t.Fatalf("item %d = %d, want %d", i, r.Resp.Value, want)
		}
	}
}

// gatedBatchEngine returns a one-worker, one-slot engine whose compiles of
// srcLoop wait until gate closes after d, and warms its cache with srcAdd
// so srcAdd items run at once.
func gatedBatchEngine(t *testing.T, d time.Duration) *Engine {
	t.Helper()
	e := newEngine(t, Config{Workers: 1, QueueDepth: 1, CacheEntries: 4})
	if _, err := e.Do(context.Background(), testReq(srcAdd, api.LevelFull, "f", 0, 0)); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	time.AfterFunc(d, func() { close(gate) })
	e.compileFn = func(r Request) (*core.Compiled, error) {
		if r.Source == srcLoop {
			<-gate
		}
		return compileRequest(r)
	}
	return e
}

// TestDoBatchKeepsArrivedResults runs a batch whose first item finishes
// at once with a 50 ms deadline, while a slow item blocks admission of the
// rest for 80 ms, so collection reaches item 0 after its deadline. The
// result that arrived in time must win over the expired context on every
// repeat.
func TestDoBatchKeepsArrivedResults(t *testing.T) {
	for rep := 0; rep < 10; rep++ {
		e := gatedBatchEngine(t, 80*time.Millisecond)
		reqs := []Request{
			testReq(srcAdd, api.LevelFull, "f", 1, 2),
			testReq(srcLoop, api.LevelFull, "f", 4),   // holds the worker
			testReq(srcAdd, api.LevelFull, "f", 3, 4), // holds the queue slot
			testReq(srcAdd, api.LevelFull, "f", 5, 6), // admitted after the gate
		}
		reqs[0].Deadline = 50 * time.Millisecond
		start := time.Now()
		out := e.DoBatch(context.Background(), reqs)
		if elapsed := time.Since(start); elapsed < reqs[0].Deadline {
			t.Fatalf("batch took %v, not past item 0's deadline", elapsed)
		}
		for i, want := range []int64{3, 14, 7, 11} {
			if out[i].Err != nil {
				t.Fatalf("repeat %d, item %d: %v", rep, i, out[i].Err)
			}
			if out[i].Resp.Value != want {
				t.Fatalf("repeat %d, item %d = %d, want %d", rep, i, out[i].Resp.Value, want)
			}
		}
		e.Close()
	}
}

// TestDoBatchDeadlineFromCall checks that an item's deadline counts from
// the DoBatch call: the last item's 50 ms expire while a slow item holds
// the batch for 80 ms, although the item itself would run at once.
func TestDoBatchDeadlineFromCall(t *testing.T) {
	e := gatedBatchEngine(t, 80*time.Millisecond)
	defer e.Close()
	reqs := []Request{
		testReq(srcLoop, api.LevelFull, "f", 4),   // holds the worker
		testReq(srcAdd, api.LevelFull, "f", 1, 2), // holds the queue slot
		testReq(srcAdd, api.LevelFull, "f", 3, 4), // admitted after the gate
		testReq(srcAdd, api.LevelFull, "f", 5, 6),
	}
	reqs[3].Deadline = 50 * time.Millisecond
	out := e.DoBatch(context.Background(), reqs)
	for i := 0; i < 3; i++ {
		if out[i].Err != nil {
			t.Fatalf("item %d: %v", i, out[i].Err)
		}
	}
	if out[3].Resp != nil || !errors.Is(out[3].Err, context.DeadlineExceeded) {
		t.Fatalf("item 3 = %+v, %v; want no response and DeadlineExceeded", out[3].Resp, out[3].Err)
	}
}

// TestParallelDeterminism hammers the engine from many goroutines with a
// mix of programs and verifies every response is bit-identical to the
// serial reference — the service-level version of the simulator's
// determinism contract. Run under -race in CI.
func TestParallelDeterminism(t *testing.T) {
	e := newEngine(t, Config{Workers: 4, QueueDepth: 64, CacheEntries: 8})
	defer e.Close()

	mix := []Request{
		testReq(srcLoop, api.LevelFull, "f", 10),
		testReq(srcArr, api.LevelFull, "f", 3),
		testReq(srcLoop, api.LevelMedium, "f", 10),
	}
	refs := make([]*Response, len(mix))
	for i, r := range mix {
		resp, err := e.Do(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = resp
	}

	const goroutines = 8
	iters := 6
	if testing.Short() {
		iters = 2
	}
	var bad atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g + i) % len(mix)
				resp, err := e.Do(context.Background(), mix[k])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					bad.Add(1)
					return
				}
				ref := refs[k]
				if resp.Value != ref.Value || resp.Stats.Cycles != ref.Stats.Cycles || resp.Stats.Events != ref.Stats.Events {
					t.Errorf("goroutine %d req %d diverged: (%d,%d,%d) vs (%d,%d,%d)", g, k,
						resp.Value, resp.Stats.Cycles, resp.Stats.Events, ref.Value, ref.Stats.Cycles, ref.Stats.Events)
					bad.Add(1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if bad.Load() > 0 {
		t.FailNow()
	}
	s := e.Stats()
	if s.CacheMisses != uint64(len(mix)) {
		t.Fatalf("misses = %d, want %d (every repeat served from cache)", s.CacheMisses, len(mix))
	}
}

// TestClosed verifies post-Close submissions fail fast and Close is
// idempotent.
func TestClosed(t *testing.T) {
	e := newEngine(t, Config{Workers: 1})
	e.Close()
	e.Close()
	if _, err := e.Do(context.Background(), testReq(srcAdd, api.LevelNone, "f", 1, 2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestCanceledWhileQueued verifies a job abandoned by its caller is
// dropped by the worker rather than run.
func TestCanceledWhileQueued(t *testing.T) {
	e := newEngine(t, Config{Workers: 1, QueueDepth: 2, CacheEntries: 4})
	defer e.Close()

	gate := make(chan struct{})
	var once sync.Once
	e.compileFn = func(r Request) (*core.Compiled, error) {
		once.Do(func() { <-gate })
		return compileRequest(r)
	}

	req := testReq(srcLoop, api.LevelFull, "f", 10)
	first := make(chan error, 1)
	go func() {
		_, err := e.Do(context.Background(), req)
		first <- err
	}()
	for e.Stats().CacheMisses == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	second := make(chan error, 1)
	go func() {
		_, err := e.Do(ctx, req)
		second <- err
	}()
	for len(e.queue) == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-second; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	close(gate)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	// The canceled job must not have produced a completed run, and it is
	// counted as Canceled — distinct from Failed (it ran into no error;
	// it never ran) and from Rejected (it was admitted).
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Canceled == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never drained the abandoned job: %+v", e.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	s := e.Stats()
	if s.Completed != 1 {
		t.Fatalf("completed = %d, want 1", s.Completed)
	}
	if s.Canceled != 1 || s.Failed != 0 || s.Rejected != 0 {
		t.Fatalf("canceled/failed/rejected = %d/%d/%d, want 1/0/0", s.Canceled, s.Failed, s.Rejected)
	}
	// Close must drain cleanly with abandoned work in history — guard
	// against a wedge with a watchdog.
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close wedged after an abandoned-while-queued request")
	}
}
