package core

import (
	"testing"

	"spatial/internal/memsys"
	"spatial/internal/opt"
)

// The e2e programs mirror the repository examples: quickstart's
// reduction, memopt's Section 2 kernel (driven through a checksum
// wrapper), and pipeline's producer/consumer loop. Regression programs
// follow. The first two returned wrong values on both engines while an
// edge could hold more than one value, because deliveries carry no wave
// tags: a nested loop whose inner entry value overtook the previous
// wave's loop-carried values (gsm_e's ltpSearch, reduced; 0 instead of
// 3), and a call inside a loop with several activations in flight (0
// instead of 4). call-overlap returned -1242946485 at -O medium and full
// while a call site could fire again before its activation returned: a
// later, shorter call returned first and its value paired with an
// earlier iteration. Now a busy call is refused, and call-unused pins
// the recheck at its return: its call's outputs have no consumers, so
// no consume rechecks it, and without the return's check it deadlocks.
// In call-unused-nested, mid returns before its unused call does, and
// that call's return to a finished caller panicked on both engines.
// const-cond deadlocked at -O none while a constant branch condition
// (11 + 0) became a static predicate, so the inner loop's entry eta
// fired once per activation instead of once per wave. const-cond-typed
// pins that the compile-time value of a condition follows C's typing
// as the graph does (an unsigned comparison, a pointer difference, void
// pointer arithmetic): when the two disagree, both sides run on every
// wave.
var e2ePrograms = []struct {
	name  string
	src   string
	entry string
	args  []int64
}{
	{
		name: "quickstart",
		src: `
int squares[64];

int sumOfSquares(int n) {
  int i;
  int s = 0;
  for (i = 0; i < n; i++) squares[i] = i * i;
  for (i = 0; i < n; i++) s += squares[i];
  return s;
}`,
		entry: "sumOfSquares",
		args:  []int64{64},
	},
	{
		name: "memopt",
		src: `
unsigned a[16];
unsigned x;

void f(unsigned *p, unsigned b[], int i) {
  if (p) b[i] += *p;
  else b[i] = 1;
  b[i] <<= b[i+1];
}

int bench(void) {
  int i;
  int s = 0;
  for (i = 0; i < 16; i++) a[i] = i * i + 1;
  x = 7;
  f(&x, a, 2);
  f(0, a, 5);
  for (i = 0; i < 16; i++) s += a[i];
  return s & 0x7fffffff;
}`,
		entry: "bench",
	},
	{
		name: "pipeline",
		src: `
int src[256];
int dst[256];

void fill(void) {
  int i;
  for (i = 0; i < 256; i++) src[i] = (i * 2654435761u) >> 16;
}

void transform(int n) {
  int i;
  for (i = 0; i < n; i++) {
    dst[i] = (src[i] * 3 + 1) >> 1;
  }
}

int bench(void) {
  int i;
  int s = 0;
  fill();
  transform(256);
  for (i = 0; i < 256; i++) s += dst[i];
  return s;
}`,
		entry: "bench",
	},
	{
		name: "nested-loop-waves",
		src: `
short din[64]; short dp[64];
int bench(void) {
  int i;
  for (i = 0; i < 64; i++) din[i] = (short)(((i * 29) & 255) - 128);
  for (i = 0; i < 64; i++) dp[i] = (short)(((i * 17) & 255) - 128);
  int lag; int bestLag = 0; int bestCorr = -1;
  for (lag = 0; lag < 4; lag++) {
    int corr = 0; int k;
    for (k = 0; k < 4; k++) corr += din[k] * dp[k + 8 - lag];
    if (corr > bestCorr) { bestCorr = corr; bestLag = lag; }
  }
  return bestLag;
}`,
		entry: "bench",
	},
	{
		name: "call-in-loop",
		src: `
int id(int x) { return x; }
int bench(void) {
  int v1 = 14; int i0;
  for (i0 = 0; i0 < 5; i0++) v1 = id(i0);
  return v1;
}`,
		entry: "bench",
	},
	{
		name: "call-overlap",
		src: `
int a[8];
int slow(int x) { int k; int s = 0; for (k = 0; k < x; k++) s += k; return s; }
int bench(void) {
  int i; int c = 0;
  for (i = 0; i < 8; i++) { if (i < 100) { int x = slow(40 - 5 * i); if (i < 50) a[i] = x; } }
  for (i = 0; i < 8; i++) c = c * 31 + a[i];
  return c;
}`,
		entry: "bench",
	},
	{
		name: "call-unused",
		src: `
int sum(int x) { int k; int s = 0; for (k = 0; k < x; k++) s += k; return s; }
int bench(void) { int i; int t = 0; for (i = 0; i < 5; i++) { sum(i); t = t + i; } return t; }`,
		entry: "bench",
	},
	{
		name: "call-unused-nested",
		src: `
int sum(int x) { int k; int s = 0; for (k = 0; k < x; k++) s += k; return s; }
int mid(int n) { sum(n + 20); return n + 1; }
int bench(void) {
  int i; int t = 0;
  for (i = 0; i < 5; i++) t = t + mid(i);
  for (i = 0; i < 300; i++) t = t + i;
  return t;
}`,
		entry: "bench",
	},
	{
		name: "const-cond",
		src: `
int bench(void) {
  int i0; int i1; int s = 0;
  for (i0 = 0; i0 < 3; i0++) {
    for (i1 = 0; i1 < 2; i1++) s = s + 1;
    if (11 + 0) { for (i1 = 0; i1 < 2; i1++) s = s + 2; }
  }
  return s;
}`,
		entry: "bench",
	},
	{
		name: "const-cond-typed",
		src: `
int bench(void) {
  int i0; int i1; int s = 0;
  for (i0 = 0; i0 < 3; i0++) {
    for (i1 = 0; i1 < 2; i1++) s = s + 1;
    if ((unsigned)-1 > 0) { for (i1 = 0; i1 < 2; i1++) s = s + 2; } else s = s + 100;
    if ((int *)8 - (int *)0 == 2) { for (i1 = 0; i1 < 2; i1++) s = s + 1000; } else s = s + 10000;
    if ((void *)8 + 1 == (void *)9) { for (i1 = 0; i1 < 2; i1++) s = s + 100000; } else s = s + 1000000;
  }
  return s + ((void *)8 + 1 - (void *)0);
}`,
		entry: "bench",
	},
}

// TestExamplesAllLevels checks both execution engines against the
// sequential oracle on every example program at every optimization
// level, and that each compiled graph still verifies after optimization.
func TestExamplesAllLevels(t *testing.T) {
	levels := []opt.Level{opt.None, opt.Basic, opt.Medium, opt.Full}
	for _, p := range e2ePrograms {
		t.Run(p.name, func(t *testing.T) {
			var want int64
			for i, lv := range levels {
				for _, be := range []Backend{BackendInterpreted, BackendCompiled} {
					cp, err := CompileSource(p.src, WithLevel(lv), WithBackend(be))
					if err != nil {
						t.Fatalf("level %v: %v", lv, err)
					}
					if err := cp.Verify(); err != nil {
						t.Fatalf("level %v: verify: %v", lv, err)
					}
					res, err := cp.Run(p.entry, p.args)
					if err != nil {
						t.Fatalf("level %v %v: spatial: %v", lv, be, err)
					}
					seq, err := cp.RunSequential(p.entry, p.args)
					if err != nil {
						t.Fatalf("level %v: sequential: %v", lv, err)
					}
					if res.Value != seq.Value {
						t.Errorf("level %v %v: spatial %d != sequential %d",
							lv, be, res.Value, seq.Value)
					}
					if i == 0 && be == BackendInterpreted {
						want = res.Value
					} else if res.Value != want {
						t.Errorf("level %v %v: value %d differs from unoptimized %d",
							lv, be, res.Value, want)
					}
				}
			}
		})
	}
}

// TestExamplesFunctionalOptions exercises the option forms on the same
// program: a level preset must be exactly its expanded pass set.
func TestExamplesFunctionalOptions(t *testing.T) {
	p := e2ePrograms[0]
	preset, err := CompileSource(p.src,
		WithLevel(opt.Full), WithMemory(PaperMemory(2)))
	if err != nil {
		t.Fatal(err)
	}
	expanded, err := CompileSource(p.src, WithPasses(opt.LevelOptions(opt.Full)))
	if err != nil {
		t.Fatal(err)
	}
	a, err := preset.Run(p.entry, p.args)
	if err != nil {
		t.Fatal(err)
	}
	b, err := expanded.Run(p.entry, p.args)
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != b.Value {
		t.Errorf("level preset %d != expanded pass set %d", a.Value, b.Value)
	}
	if preset.Sim.Mem == (memsys.Config{}) {
		t.Error("WithMemory not recorded in Compiled.Sim")
	}
}
