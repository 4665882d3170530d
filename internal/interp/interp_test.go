package interp

import (
	"strings"
	"testing"

	"spatial/internal/build"
	"spatial/internal/cminor"
	"spatial/internal/memsys"
	"spatial/internal/pegasus"
)

func setup(t *testing.T, src string) *pegasus.Program {
	t.Helper()
	prog, err := cminor.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := cminor.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	p, err := build.Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func run(t *testing.T, src, entry string, args ...int64) *Result {
	t.Helper()
	p := setup(t, src)
	m := New(p, memsys.PerfectConfig())
	res, err := m.Run(entry, args)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	return res
}

func TestArith(t *testing.T) {
	res := run(t, "int f(int a, int b) { return (a + b) * (a - b) / 2; }", "f", 7, 3)
	if res.Value != 20 {
		t.Errorf("got %d, want 20", res.Value)
	}
}

func TestControlFlow(t *testing.T) {
	src := `
int collatz(int n) {
  int steps = 0;
  while (n != 1) {
    if (n & 1) n = 3 * n + 1;
    else n = n / 2;
    steps++;
  }
  return steps;
}`
	res := run(t, src, "collatz", 27)
	if res.Value != 111 {
		t.Errorf("collatz(27) = %d, want 111", res.Value)
	}
}

func TestGlobalInitializers(t *testing.T) {
	src := `
int weights[4] = {10, 20, 30, 40};
int bias = 5;
int f(void) {
  int i;
  int s = bias;
  for (i = 0; i < 4; i++) s += weights[i];
  return s;
}`
	res := run(t, src, "f")
	if res.Value != 105 {
		t.Errorf("got %d, want 105", res.Value)
	}
}

func TestStringLiterals(t *testing.T) {
	src := `
int strlen0(const char *s) {
  int n = 0;
  while (s[n]) n++;
  return n;
}
int f(void) { return strlen0("hello"); }`
	res := run(t, src, "f")
	if res.Value != 5 {
		t.Errorf("strlen = %d", res.Value)
	}
}

func TestAddressTakenLocal(t *testing.T) {
	src := `
void bump(int *p, int by) { *p = *p + by; }
int f(void) {
  int x = 10;
  bump(&x, 5);
  bump(&x, 7);
  return x;
}`
	res := run(t, src, "f")
	if res.Value != 22 {
		t.Errorf("got %d, want 22", res.Value)
	}
}

func TestRecursionAndFrames(t *testing.T) {
	src := `
int ack(int m, int n) {
  if (m == 0) return n + 1;
  if (n == 0) return ack(m - 1, 1);
  return ack(m - 1, ack(m, n - 1));
}`
	res := run(t, src, "ack", 2, 3)
	if res.Value != 9 {
		t.Errorf("ack(2,3) = %d, want 9", res.Value)
	}
}

func TestCharSignedness(t *testing.T) {
	src := `
char sc[2];
unsigned char uc[2];
int f(void) {
  sc[0] = (char)200;
  uc[0] = (unsigned char)200;
  return sc[0] * 1000 + uc[0];
}`
	res := run(t, src, "f")
	// signed char 200 → -56; -56*1000 + 200 = -55800
	if res.Value != -55800 {
		t.Errorf("got %d, want -55800", res.Value)
	}
}

func TestCountsAndCycles(t *testing.T) {
	src := `
int a[8];
int f(void) {
  int i;
  int s = 0;
  for (i = 0; i < 8; i++) a[i] = i;
  for (i = 0; i < 8; i++) s += a[i];
  return s;
}`
	res := run(t, src, "f")
	if res.Loads != 8 || res.Stores != 8 {
		t.Errorf("loads=%d stores=%d, want 8/8", res.Loads, res.Stores)
	}
	if res.Instrs == 0 || res.SeqCycles <= res.Instrs {
		t.Errorf("implausible cost model: instrs=%d cycles=%d", res.Instrs, res.SeqCycles)
	}
}

func TestShortCircuitSkipsRHS(t *testing.T) {
	// Unlike the speculating dataflow machine, the interpreter models a
	// sequential CPU: the RHS load must not be counted when p is null.
	src := `
int f(int *p) {
  if (p && *p) return 1;
  return 0;
}
int run(void) { return f((int*)0); }`
	res := run(t, src, "run")
	if res.Value != 0 {
		t.Errorf("got %d", res.Value)
	}
	if res.Loads != 0 {
		t.Errorf("RHS load executed despite short circuit: %d loads", res.Loads)
	}
}

func TestStepLimit(t *testing.T) {
	src := `
void f(void) { for (;;) {} }`
	p := setup(t, src)
	m := New(p, memsys.PerfectConfig())
	m.maxSteps = 1000
	if _, err := m.Run("f", nil); err == nil {
		t.Error("infinite loop not caught by the step limit")
	}
}

func TestBadEntry(t *testing.T) {
	p := setup(t, "int f(void) { return 1; }")
	m := New(p, memsys.PerfectConfig())
	if _, err := m.Run("g", nil); err == nil {
		t.Error("missing entry accepted")
	}
	if _, err := m.Run("f", []int64{1}); err == nil {
		t.Error("wrong arity accepted")
	}
}

func TestMemoryInspection(t *testing.T) {
	src := `
int out[2];
void f(void) { out[0] = 11; out[1] = 22; }`
	p := setup(t, src)
	m := New(p, memsys.PerfectConfig())
	if _, err := m.Run("f", nil); err != nil {
		t.Fatal(err)
	}
	var addr uint32
	for _, o := range p.Alias.Objects {
		if o.Name == "out" {
			addr, _ = p.Layout.AddressOfObject(o.ID)
		}
	}
	if m.ReadWord(addr) != 11 || m.ReadWord(addr+4) != 22 {
		t.Errorf("memory = %d, %d", m.ReadWord(addr), m.ReadWord(addr+4))
	}
	if b := m.ReadBytes(addr, 4); b[0] != 11 {
		t.Errorf("bytes = %v", b)
	}
}

// TestReadBytesPastMemSize reads a range that runs past the end of
// simulated memory: the bytes beyond it read as 0 instead of panicking.
func TestReadBytesPastMemSize(t *testing.T) {
	p := setup(t, `int f(void) { return 1; }`)
	m := New(p, memsys.PerfectConfig())
	if _, err := m.Run("f", nil); err != nil {
		t.Fatal(err)
	}
	b := m.ReadBytes(p.Layout.MemSize-2, 8)
	if len(b) != 8 {
		t.Fatalf("ReadBytes returned %d bytes, want 8", len(b))
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, v)
		}
	}
}

// TestStackOverflowAtMemSize pins the overflow check to the layout's
// memory size, not to how much of the image a run has stored: the
// deepest recursion whose frames fit below MemSize runs, one more frame
// overflows.
func TestStackOverflowAtMemSize(t *testing.T) {
	src := `
int deep(int n) {
  int pad[256];
  pad[0] = n;
  if (n == 0) return 0;
  return deep(n - 1) + pad[0] - n + 1;
}`
	p := setup(t, src)
	frame := (p.Layout.FrameSize[p.Source.Func("deep")] + 7) &^ 7
	fit := int64((p.Layout.MemSize - p.Layout.StackBase) / frame) // frames that fit
	// deep(n) uses n+1 frames.
	res, err := New(p, memsys.PerfectConfig()).Run("deep", []int64{fit - 1})
	if err != nil {
		t.Fatalf("deep(%d) with %d frames of %d bytes: %v", fit-1, fit, frame, err)
	}
	if res.Value != fit-1 {
		t.Fatalf("deep(%d) = %d", fit-1, res.Value)
	}
	if _, err := New(p, memsys.PerfectConfig()).Run("deep", []int64{fit}); err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Fatalf("deep(%d) needs %d frames past MemSize; err = %v, want stack overflow", fit, fit+1, err)
	}
}

func TestDoWhileAndTernary(t *testing.T) {
	src := `
int f(int n) {
  int s = 0;
  do {
    s += n > 5 ? 2 : 1;
    n--;
  } while (n > 0);
  return s;
}`
	res := run(t, src, "f", 8)
	// n=8,7,6 → +2 each; n=5..1 → +1 each = 6 + 5 = 11
	if res.Value != 11 {
		t.Errorf("got %d, want 11", res.Value)
	}
}

func TestPointerDifferenceAndTernary(t *testing.T) {
	src := `
int a[16];
int f(int i, int j) {
  int *p = &a[i];
  int *q = &a[j];
  int d = p - q;
  return d > 0 ? d : -d;
}`
	res := run(t, src, "f", 10, 3)
	if res.Value != 7 {
		t.Errorf("pointer difference = %d, want 7", res.Value)
	}
	res = run(t, src, "f", 3, 10)
	if res.Value != 7 {
		t.Errorf("abs pointer difference = %d, want 7", res.Value)
	}
}

func TestUnsignedComparisonSemantics(t *testing.T) {
	src := `
int f(unsigned a, int b) {
  /* -1 as unsigned is huge */
  unsigned ub = (unsigned)b;
  if (a < ub) return 1;
  return 0;
}`
	res := run(t, src, "f", 5, -1)
	if res.Value != 1 {
		t.Errorf("5 < (unsigned)-1 should be true")
	}
}

func TestGlobalPointerInitializerRuns(t *testing.T) {
	src := `
int target = 9;
int *gp = &target;
int f(void) { *gp = *gp + 1; return target; }`
	res := run(t, src, "f")
	if res.Value != 10 {
		t.Errorf("got %d, want 10", res.Value)
	}
}
