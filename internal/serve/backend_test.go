package serve

import (
	"context"
	"testing"

	"spatial/api"
)

// TestBackendRoundTrip runs the same program through the engine on both
// execution backends: results and simulation statistics must be
// identical (the bit-identity contract), while the two requests must
// occupy distinct cache entries — a cached Compiled is pinned to its
// backend, so sharing one entry would silently serve the wrong engine.
func TestBackendRoundTrip(t *testing.T) {
	e := New(Config{Workers: 2, CacheEntries: 8})
	defer e.Close()

	interp := testReq(srcLoop, api.LevelFull, "f", 25)
	compiled := interp
	compiled.Backend = api.BackendCompiled

	ri, err := e.Do(context.Background(), interp)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := e.Do(context.Background(), compiled)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Value != rc.Value || ri.Stats != rc.Stats {
		t.Errorf("backends diverged:\n interp   value=%d stats=%+v\n compiled value=%d stats=%+v",
			ri.Value, ri.Stats, rc.Value, rc.Stats)
	}
	if rc.CacheHit {
		t.Error("compiled-backend request hit the interp-backend cache entry")
	}
	if s := e.Stats(); s.CacheMisses != 2 {
		t.Errorf("cache misses = %d, want 2 (one per backend)", s.CacheMisses)
	}

	// An unknown backend is a compile-class error, rejected before keying.
	bad := interp
	bad.Backend = "jit"
	if _, err := e.Do(context.Background(), bad); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestPartitionedRoundTrip pins the deprecated wire field
// api.Program.Partitions: it is accepted and ignored, so a request
// naming partitions hits the sequential cache entry and returns a
// bit-identical result.
func TestPartitionedRoundTrip(t *testing.T) {
	e := New(Config{Workers: 2, CacheEntries: 8})
	defer e.Close()

	seq := testReq(srcArr, api.LevelFull, "f", 3)
	part := seq
	part.Partitions = 4

	rs, err := e.Do(context.Background(), seq)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := e.Do(context.Background(), part)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Value != rp.Value || rs.Stats != rp.Stats {
		t.Errorf("partitions field changed the run:\n without value=%d stats=%+v\n with    value=%d stats=%+v",
			rs.Value, rs.Stats, rp.Value, rp.Stats)
	}
	if !rp.CacheHit {
		t.Error("request with partitions=4 missed the sequential cache entry")
	}
	if s := e.Stats(); s.CacheMisses != 1 {
		t.Errorf("cache misses = %d, want 1 (partitions does not key)", s.CacheMisses)
	}
}
