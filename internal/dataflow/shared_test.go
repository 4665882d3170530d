package dataflow

import (
	"sync"
	"testing"

	"spatial/internal/opt"
)

// sharedTestSrc exercises loops, a token generator, recursion (frame
// recycling through the allocator), and memory traffic — the paths that
// touch every piece of shared state: graphInfo lookups, the actState
// pool, and static-value memoization.
const sharedTestSrc = `
int a[40];
int rec(int n) {
  int pad[8];
  pad[0] = n * 3;
  if (n <= 0) return pad[0];
  return pad[0] + rec(n - 1);
}
int f(void) {
  int i;
  for (i = 0; i < 40; i++) a[i] = i;
  for (i = 0; i < 37; i++) a[i] = a[i+3] * 2;
  int s = rec(5);
  for (i = 0; i < 40; i++) s = s * 5 + a[i];
  return s & 0xffffff;
}`

// TestSharedCompiledParallel pins the concurrency contract of Shared:
// one prebuilt table (graphInfo structures plus their actState pools)
// driven by 8 goroutines at once must produce the serial result
// bit-identically on every stream. Run under -race, this is the
// regression test for concurrent access to the per-program graph table
// (formerly machine.infos) and the graphInfo sync.Pool.
func TestSharedCompiledParallel(t *testing.T) {
	p := optProgram(t, sharedTestSrc, opt.Full)
	sh := Prebuild(p)
	cfg := DefaultConfig()

	ref, err := sh.Run("f", nil, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	runsPer := 4
	if testing.Short() {
		runsPer = 2
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runsPer; i++ {
				res, err := sh.Run("f", nil, cfg)
				if err != nil {
					errs <- err
					return
				}
				if res.Value != ref.Value || res.Stats.Cycles != ref.Stats.Cycles || res.Stats.Events != ref.Stats.Events {
					t.Errorf("parallel run diverged from serial: (value %d, cycles %d, events %d) vs (%d, %d, %d)",
						res.Value, res.Stats.Cycles, res.Stats.Events, ref.Value, ref.Stats.Cycles, ref.Stats.Events)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSharedMatchesUnshared verifies that a run through a reused Shared
// table, its actState pools warm from an earlier run, is bit-identical to
// a run on a freshly built table, at every level.
func TestSharedMatchesUnshared(t *testing.T) {
	for _, lv := range []opt.Level{opt.None, opt.Basic, opt.Medium, opt.Full} {
		p := optProgram(t, sharedTestSrc, lv)
		sh := Prebuild(p)
		cfg := DefaultConfig()
		a, err := sh.Run("f", nil, cfg)
		if err != nil {
			t.Fatalf("@%s: %v", lv, err)
		}
		b, err := sh.Run("f", nil, cfg)
		if err != nil {
			t.Fatalf("@%s shared: %v", lv, err)
		}
		if a.Value != b.Value || a.Stats.Cycles != b.Stats.Cycles || a.Stats.Events != b.Stats.Events {
			t.Fatalf("@%s: shared run diverged: (%d,%d,%d) vs (%d,%d,%d)", lv,
				b.Value, b.Stats.Cycles, b.Stats.Events, a.Value, a.Stats.Cycles, a.Stats.Events)
		}
	}
}
