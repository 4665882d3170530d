package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatial/api"
	"spatial/internal/core"
)

const srcAdd = `
int f(int a, int b) { return a + b; }
`

const srcLoop = `
int f(int n) {
  int i; int s = 0;
  for (i = 0; i < n; i++) s += i * i;
  return s;
}`

const srcArr = `
int a[16];
int f(int n) {
  int i;
  for (i = 0; i < 16; i++) a[i] = i * n;
  int s = 0;
  for (i = 0; i < 16; i++) s += a[i];
  return s;
}`

// TestKeyNormalization pins the content-address semantics: run-time
// fields do not key, defaulted simulator configs collapse onto the same
// key, and every compile-time field change produces a distinct key.
func TestKeyNormalization(t *testing.T) {
	base := testReq(srcLoop, api.LevelFull, "")
	k0, err := base.key()
	if err != nil {
		t.Fatal(err)
	}

	// Run-time fields are not part of the key.
	r := base
	r.Entry, r.Args, r.Deadline = "f", []int64{3}, 1<<20
	if k, _ := r.key(); k != k0 {
		t.Error("run-time fields changed the cache key")
	}

	// A nil Sim and an explicitly present-but-zero Sim normalize to one
	// key, as does spelling out a default explicitly.
	r = base
	r.Sim = &api.SimConfig{}
	if k, _ := r.key(); k != k0 {
		t.Error("nil Sim and empty SimConfig produced distinct keys")
	}
	r = base
	r.Sim = &api.SimConfig{EdgeCap: 1} // the default depth, spelled explicitly
	if k, _ := r.key(); k != k0 {
		t.Error("EdgeCap 0 and EdgeCap 1 (the default) produced distinct keys")
	}

	// The default backend and its explicit spelling collapse onto one key.
	r = base
	r.Backend = api.BackendInterp
	if k, _ := r.key(); k != k0 {
		t.Error(`Backend "" and Backend "interp" (the default) produced distinct keys`)
	}

	// The deprecated Partitions field is ignored: every value, even one
	// the removed partitioned mode rejected, keys like its absence.
	for _, n := range []int{1, 2, 4, -1, 1000} {
		r = base
		r.Partitions = n
		if k, err := r.key(); err != nil || k != k0 {
			t.Errorf("Partitions %d changed the key (err %v)", n, err)
		}
	}

	// Genuinely different compile-time fields key differently.
	distinct := []Request{
		testReq(srcAdd, api.LevelFull, ""),
		testReq(srcLoop, api.LevelMedium, ""),
		{Program: api.Program{Source: srcLoop, Level: api.LevelFull, Sim: &api.SimConfig{EdgeCap: 8}}},
		{Program: api.Program{Source: srcLoop, Level: api.LevelFull, Passes: &api.Passes{ConstFold: true, CSE: true, DCE: true}}},
		{Program: api.Program{Source: srcLoop, Level: api.LevelFull, Backend: api.BackendCompiled}},
	}
	seen := map[cacheKey]int{k0: -1}
	for i, r := range distinct {
		k, err := r.key()
		if err != nil {
			t.Fatalf("distinct[%d]: %v", i, err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("distinct[%d] collided with request %d", i, prev)
		}
		seen[k] = i
	}

	// Invalid configurations fail keying.
	r = base
	r.Sim = &api.SimConfig{EdgeCap: -1}
	if _, err := r.key(); err == nil {
		t.Error("negative EdgeCap keyed without error")
	}
	r = base
	r.Level = api.Level(99)
	if _, err := r.key(); err == nil {
		t.Error("out-of-range level keyed without error")
	}
	r = base
	r.Sim = &api.SimConfig{Mem: &api.MemConfig{Kind: "quantum"}}
	if _, err := r.key(); err == nil {
		t.Error("unknown memory kind keyed without error")
	}
	r = base
	r.Backend = "jit"
	if _, err := r.key(); err == nil {
		t.Error("unknown backend keyed without error")
	}
}

// TestCacheHitMissEviction drives the LRU through its full lifecycle and
// checks every counter.
func TestCacheHitMissEviction(t *testing.T) {
	e := newEngine(t, Config{Workers: 1, CacheEntries: 2})
	defer e.Close()

	do := func(src string, args ...int64) int64 {
		t.Helper()
		resp, err := e.Do(context.Background(), testReq(src, api.LevelFull, "f", args...))
		if err != nil {
			t.Fatal(err)
		}
		return resp.Value
	}

	if got := do(srcLoop, 10); got != 285 {
		t.Fatalf("srcLoop(10) = %d, want 285", got)
	}
	do(srcLoop, 10)  // hit
	do(srcArr, 2)    // miss, cache now {loop, arr}
	do(srcAdd, 0, 1) // miss, evicts loop (LRU)
	do(srcLoop, 10)  // miss again (was evicted); evicts arr

	s := e.Stats()
	if s.CacheMisses != 4 || s.CacheHits != 1 || s.CacheEvictions != 2 {
		t.Fatalf("stats = misses %d hits %d evictions %d, want 4/1/2", s.CacheMisses, s.CacheHits, s.CacheEvictions)
	}
	if s.CacheEntries != 2 {
		t.Fatalf("resident entries = %d, want 2 (bounded)", s.CacheEntries)
	}
	if s.Completed != 5 || s.Failed != 0 {
		t.Fatalf("completed %d failed %d, want 5/0", s.Completed, s.Failed)
	}

	// Recency: a hit refreshes the entry. Touch arr, insert add, loop
	// must be the eviction victim — arr must still be resident (a hit).
	e2 := newEngine(t, Config{Workers: 1, CacheEntries: 2})
	defer e2.Close()
	do2 := func(src string, args ...int64) {
		t.Helper()
		if _, err := e2.Do(context.Background(), testReq(src, api.LevelFull, "f", args...)); err != nil {
			t.Fatal(err)
		}
	}
	do2(srcLoop, 1)   // miss
	do2(srcArr, 1)    // miss       cache: {arr, loop}
	do2(srcLoop, 1)   // hit        cache: {loop, arr}
	do2(srcAdd, 1, 2) // miss, evicts arr
	do2(srcLoop, 1)   // must still be a hit
	s2 := e2.Stats()
	if s2.CacheHits != 2 || s2.CacheMisses != 3 {
		t.Fatalf("LRU recency broken: hits %d misses %d, want 2/3", s2.CacheHits, s2.CacheMisses)
	}
}

// TestSingleFlight pins the single-flight contract: N concurrent
// requests for the same program run the pipeline exactly once, and every
// request gets the result.
func TestSingleFlight(t *testing.T) {
	const callers = 8
	e := newEngine(t, Config{Workers: callers, QueueDepth: callers, CacheEntries: 4})
	defer e.Close()

	var compiles atomic.Int64
	gate := make(chan struct{})
	e.compileFn = func(r Request) (*core.Compiled, error) {
		compiles.Add(1)
		<-gate // hold every leader until all callers are submitted
		return compileRequest(r)
	}

	req := testReq(srcLoop, api.LevelFull, "f", 10)
	var wg sync.WaitGroup
	results := make([]int64, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := e.Do(context.Background(), req)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = resp.Value
		}(i)
	}
	// Let every request reach the cache before releasing the compile, so
	// all non-leaders join the in-flight entry rather than hitting a
	// ready one.
	for {
		s := e.Stats()
		if s.CacheMisses+s.CacheShared >= callers {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if n := compiles.Load(); n != 1 {
		t.Fatalf("pipeline ran %d times for %d concurrent identical requests, want 1", n, callers)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != 285 {
			t.Fatalf("caller %d got %d, want 285", i, results[i])
		}
	}
	s := e.Stats()
	if s.CacheMisses != 1 || s.CacheShared != callers-1 {
		t.Fatalf("stats = misses %d shared %d, want 1/%d", s.CacheMisses, s.CacheShared, callers-1)
	}
}

// TestCompileErrorNotCached verifies failures propagate to every waiter
// of the flight but are not memoized: a later identical request
// recompiles.
func TestCompileErrorNotCached(t *testing.T) {
	e := newEngine(t, Config{Workers: 2, CacheEntries: 4})
	defer e.Close()

	var compiles atomic.Int64
	e.compileFn = func(r Request) (*core.Compiled, error) {
		compiles.Add(1)
		return compileRequest(r)
	}

	bad := testReq("int f(void) { return", api.LevelFull, "f")
	for i := 0; i < 2; i++ {
		_, err := e.Do(context.Background(), bad)
		if !errors.Is(err, core.ErrCompile) {
			t.Fatalf("attempt %d: err = %v, want ErrCompile class", i, err)
		}
	}
	if n := compiles.Load(); n != 2 {
		t.Fatalf("failed compile was cached: pipeline ran %d times, want 2", n)
	}
	s := e.Stats()
	if s.Failed != 2 || s.CacheEntries != 0 {
		t.Fatalf("stats = failed %d entries %d, want 2/0", s.Failed, s.CacheEntries)
	}
}

// TestKeyStableOnDisk pins one cache key to its hex digest. Entries on
// disk are named by that digest and load quarantines any entry that no
// longer re-hashes to its name, so a change to programKey's hashed
// prefix (such as dropping the literal "parts=0") would quarantine every
// persisted entry at the next restart.
func TestKeyStableOnDisk(t *testing.T) {
	const want = "b634411219ad4f901dd664699474516bd48a27120ec31fef33ef479f7a9da33f"
	k, err := programKey(api.Program{Source: "int f(void){return 1;}", Level: api.LevelFull})
	if err != nil {
		t.Fatal(err)
	}
	if k.String() != want {
		t.Errorf("key = %s, want %s: persisted cache entries would stop re-hashing to their names", k, want)
	}
}
