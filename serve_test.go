package spatial_test

import (
	"context"
	"testing"

	"spatial"
	"spatial/api"
)

// TestPublicEngine exercises the batch service through the root facade:
// an engine, a cache-hitting request mix, the one-shot helper, and its
// optional configuration.
func TestPublicEngine(t *testing.T) {
	e := spatial.NewEngine(spatial.EngineConfig{Workers: 2, CacheEntries: 4})
	defer e.Close()

	const src = `
int f(int n) {
  int i; int s = 0;
  for (i = 0; i < n; i++) s += i;
  return s;
}`
	req := spatial.BatchRequest{
		Program: spatial.Program{Source: src, Level: api.LevelFull},
		Entry:   "f",
		Args:    []int64{10},
	}
	first, err := e.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Value != 45 {
		t.Fatalf("f(10) = %d, want 45", first.Value)
	}
	if first.CacheHit {
		t.Error("first request reported a cache hit")
	}

	out := e.DoBatch(context.Background(), []spatial.BatchRequest{req, req, req})
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("batch item %d: %v", i, r.Err)
		}
		if r.Resp.Value != first.Value || r.Resp.Stats.Cycles != first.Stats.Cycles {
			t.Fatalf("batch item %d diverged from the first run", i)
		}
		if !r.Resp.CacheHit {
			t.Errorf("batch item %d missed the cache", i)
		}
	}
	if s := e.Stats(); s.CacheMisses != 1 || s.Completed != 4 {
		t.Fatalf("stats = %+v, want 1 miss / 4 completed", s)
	}

	if _, err := spatial.Simulate(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	// The optional config variant: a single worker still serves the
	// request (a fresh engine per call, so no cache carry-over).
	if _, err := spatial.Simulate(context.Background(), req, spatial.EngineConfig{Workers: 1}); err != nil {
		t.Fatal(err)
	}
}
