package dataflow

import (
	"testing"

	"spatial/internal/build"
	"spatial/internal/cminor"
	"spatial/internal/interp"
	"spatial/internal/memsys"
	"spatial/internal/pegasus"
)

func compileProgram(t *testing.T, src string) *pegasus.Program {
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

// runBoth executes entry(args) on the dataflow simulator and the AST
// interpreter and requires identical results.
func runBoth(t *testing.T, src, entry string, args []int64) (*Result, *interp.Result) {
	t.Helper()
	p := compileProgram(t, src)
	dfRes, err := Run(p, entry, args, DefaultConfig())
	if err != nil {
		t.Fatalf("dataflow: %v\n%s", err, p.Graph(entry).Dump())
	}
	it := interp.New(p, memsys.PerfectConfig())
	itRes, err := it.Run(entry, args)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	if dfRes.Value != itRes.Value {
		t.Fatalf("dataflow=%d interp=%d for %s(%v)\n%s", dfRes.Value, itRes.Value, entry, args, p.Graph(entry).Dump())
	}
	return dfRes, itRes
}

func TestSimStraightLine(t *testing.T) {
	res, _ := runBoth(t, "int f(int a, int b) { return a * b + 2; }", "f", []int64{6, 7})
	if res.Value != 44 {
		t.Errorf("value = %d, want 44", res.Value)
	}
	if res.Stats.Cycles <= 0 {
		t.Error("no cycles elapsed")
	}
}

func TestSimIfElse(t *testing.T) {
	src := `
int f(int a) {
  int r;
  if (a > 0) r = a * 2; else r = -a;
  return r;
}`
	res, _ := runBoth(t, src, "f", []int64{21})
	if res.Value != 42 {
		t.Errorf("f(21) = %d", res.Value)
	}
	res, _ = runBoth(t, src, "f", []int64{-5})
	if res.Value != 5 {
		t.Errorf("f(-5) = %d", res.Value)
	}
}

func TestSimLoop(t *testing.T) {
	src := `
int f(int n) {
  int s = 0;
  int i;
  for (i = 1; i <= n; i++) s += i;
  return s;
}`
	res, _ := runBoth(t, src, "f", []int64{10})
	if res.Value != 55 {
		t.Errorf("sum(1..10) = %d", res.Value)
	}
	runBoth(t, src, "f", []int64{0})
	runBoth(t, src, "f", []int64{1})
}

func TestSimFibonacciWhile(t *testing.T) {
	// The Figure 2 program.
	src := `
int fib(int k) {
  int a = 0;
  int b = 1;
  while (k) {
    int tmp = a;
    a = b;
    b = b + tmp;
    k--;
  }
  return a;
}`
	res, _ := runBoth(t, src, "fib", []int64{10})
	if res.Value != 55 {
		t.Errorf("fib(10) = %d, want 55", res.Value)
	}
	runBoth(t, src, "fib", []int64{0})
	runBoth(t, src, "fib", []int64{1})
}

func TestSimGlobalArrays(t *testing.T) {
	src := `
int a[16];
int sum(void) {
  int s = 0;
  int i;
  for (i = 0; i < 16; i++) { a[i] = i * 3; }
  for (i = 0; i < 16; i++) { s += a[i]; }
  return s;
}`
	res, _ := runBoth(t, src, "sum", nil)
	if res.Value != 360 {
		t.Errorf("sum = %d, want 360", res.Value)
	}
	if res.Stats.DynStores != 16 {
		t.Errorf("dynamic stores = %d, want 16", res.Stats.DynStores)
	}
	if res.Stats.DynLoads != 16 {
		t.Errorf("dynamic loads = %d, want 16", res.Stats.DynLoads)
	}
}

func TestSimSection2Example(t *testing.T) {
	src := `
unsigned val = 5;
unsigned a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
void f(unsigned *p, unsigned *a2, int i) {
  if (p) a2[i] += *p;
  else a2[i] = 1;
  a2[i] <<= a2[i+1];
}
unsigned run(int usep) {
  if (usep) f(&val, a, 2);
  else f((unsigned*)0, a, 2);
  return a[2];
}`
	// with p: a[2] = (3+5) << a[3] = 8 << 4 = 128
	res, _ := runBoth(t, src, "run", []int64{1})
	if res.Value != 128 {
		t.Errorf("run(1) = %d, want 128", res.Value)
	}
	// without p: a[2] = 1 << 4 = 16
	res, _ = runBoth(t, src, "run", []int64{0})
	if res.Value != 16 {
		t.Errorf("run(0) = %d, want 16", res.Value)
	}
}

func TestSimCalls(t *testing.T) {
	src := `
int sq(int x) { return x * x; }
int f(int n) { return sq(n) + sq(n + 1); }
`
	res, _ := runBoth(t, src, "f", []int64{3})
	if res.Value != 25 {
		t.Errorf("f(3) = %d, want 25", res.Value)
	}
}

func TestSimRecursion(t *testing.T) {
	src := `
int fact(int n) {
  if (n < 2) return 1;
  return n * fact(n - 1);
}`
	res, _ := runBoth(t, src, "fact", []int64{6})
	if res.Value != 720 {
		t.Errorf("fact(6) = %d, want 720", res.Value)
	}
}

func TestSimPointerParams(t *testing.T) {
	src := `
int x[4] = {10, 20, 30, 40};
int y[4];
void copy4(int *dst, int *src) {
  int i;
  for (i = 0; i < 4; i++) dst[i] = src[i];
}
int run(void) {
  copy4(y, x);
  return y[0] + y[3];
}`
	res, _ := runBoth(t, src, "run", nil)
	if res.Value != 50 {
		t.Errorf("run() = %d, want 50", res.Value)
	}
}

func TestSimCharShortTypes(t *testing.T) {
	src := `
char buf[8];
int f(int v) {
  buf[0] = (char)v;
  buf[1] = (char)(v >> 8);
  unsigned char u = buf[0];
  short s = (short)(v * 3);
  return u + s + buf[1];
}`
	runBoth(t, src, "f", []int64{300})
	runBoth(t, src, "f", []int64{-1})
	runBoth(t, src, "f", []int64{127})
	runBoth(t, src, "f", []int64{128})
}

func TestSimDoWhileBreakContinue(t *testing.T) {
	src := `
int f(int n) {
  int s = 0;
  int i = 0;
  do {
    i++;
    if (i == 3) continue;
    if (i > n) break;
    s += i;
  } while (i < 100);
  return s;
}`
	runBoth(t, src, "f", []int64{7})
	runBoth(t, src, "f", []int64{0})
	runBoth(t, src, "f", []int64{2})
}

func TestSimShortCircuit(t *testing.T) {
	src := `
int g;
int f(int *p, int x) {
  if (p && *p > 3) g = 1; else g = 2;
  return g + (x > 0 || x < -10);
}`
	p := compileProgram(t, src+`
int v = 9;
int run(int usep, int x) { if (usep) return f(&v, x); return f((int*)0, x); }`)
	for _, tc := range [][2]int64{{1, 5}, {0, 5}, {1, -20}, {0, 0}} {
		dfRes, err := Run(p, "run", tc[:], DefaultConfig())
		if err != nil {
			t.Fatalf("dataflow run(%v): %v", tc, err)
		}
		it := interp.New(p, memsys.PerfectConfig())
		itRes, err := it.Run("run", tc[:])
		if err != nil {
			t.Fatalf("interp: %v", err)
		}
		if dfRes.Value != itRes.Value {
			t.Errorf("run(%v): dataflow=%d interp=%d", tc, dfRes.Value, itRes.Value)
		}
	}
}

func TestSimUnsignedOps(t *testing.T) {
	src := `
unsigned f(unsigned a, unsigned b) {
  unsigned q = a / b;
  unsigned r = a % b;
  unsigned s = a >> 3;
  int lt = a < b;
  return q + r + s + lt;
}`
	runBoth(t, src, "f", []int64{100, 7})
	// 0xFFFFFFF0 as canonical sign-extended form.
	runBoth(t, src, "f", []int64{int64(int32(-16)), 3})
}

func TestSimDivByZeroYieldsZero(t *testing.T) {
	src := `int f(int a, int b) { return a / b; }`
	res, _ := runBoth(t, src, "f", []int64{5, 0})
	if res.Value != 0 {
		t.Errorf("5/0 = %d, want 0 (hardware semantics)", res.Value)
	}
}

func TestSimNestedLoops(t *testing.T) {
	src := `
int m[6][6];
int f(int n) {
  int i;
  int j;
  int s = 0;
  for (i = 0; i < n; i++)
    for (j = 0; j < n; j++)
      m[i][j] = i * 10 + j;
  for (i = 0; i < n; i++)
    for (j = 0; j < n; j++)
      s += m[i][j];
  return s;
}`
	runBoth(t, src, "f", []int64{6})
	runBoth(t, src, "f", []int64{1})
}

func TestSimStringData(t *testing.T) {
	src := `
int strsum(const char *s, int n) {
  int i;
  int t = 0;
  for (i = 0; i < n; i++) t += s[i];
  return t;
}
int run(void) { return strsum("AB", 2); }`
	res, _ := runBoth(t, src, "run", nil)
	if res.Value != 'A'+'B' {
		t.Errorf("strsum = %d", res.Value)
	}
}

func TestSimMemoryInspection(t *testing.T) {
	src := `
int out[4];
void f(void) {
  int i;
  for (i = 0; i < 4; i++) out[i] = (i + 1) * 11;
}`
	p := compileProgram(t, src)
	_, m, err := Prebuild(p).run("f", nil, DefaultConfig(), Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	var outObj uint32
	for _, o := range p.Alias.Objects {
		if o.Name == "out" {
			outObj, _ = p.Layout.AddressOfObject(o.ID)
		}
	}
	for i := 0; i < 4; i++ {
		got := m.mem.Load(outObj+uint32(4*i), 4, true)
		if got != int64((i+1)*11) {
			t.Errorf("out[%d] = %d, want %d", i, got, (i+1)*11)
		}
	}
}

func TestSimRealisticMemorySlower(t *testing.T) {
	// Cold reads so the realistic hierarchy actually misses (a store
	// loop first would warm the L1 and hide the difference).
	src := `
int a[1024];
int f(void) {
  int i;
  int s = 0;
  for (i = 0; i < 1024; i++) s += a[i];
  return s;
}`
	p := compileProgram(t, src)
	fast, err := Run(p, "f", nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	slowCfg := DefaultConfig()
	slowCfg.Mem = memsys.PaperConfig(2)
	slow, err := Run(p, "f", nil, slowCfg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Value != fast.Value {
		t.Errorf("values differ across memory systems: %d vs %d", slow.Value, fast.Value)
	}
	if slow.Stats.Cycles <= fast.Stats.Cycles {
		t.Errorf("realistic memory (%d cycles) not slower than perfect (%d)", slow.Stats.Cycles, fast.Stats.Cycles)
	}
	if slow.Stats.Mem.L1Misses == 0 {
		t.Error("no L1 misses on a 1KB array walk?")
	}
}

func TestSimSquashedMemOps(t *testing.T) {
	src := `
int g;
int f(int c) {
  if (c) g = 5;
  return 1;
}`
	p := compileProgram(t, src)
	res, err := Run(p, "f", []int64{0}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DynStores != 0 {
		t.Errorf("store executed despite false predicate (DynStores=%d)", res.Stats.DynStores)
	}
	if res.Stats.NullMem == 0 {
		t.Error("no squashed memory op counted")
	}
}

func TestSimLoopPipelineBeatsSequentialShape(t *testing.T) {
	// A loop over a large array with independent iterations should
	// execute in far fewer cycles on the dataflow machine than the
	// in-order interpreter model (the headline spatial-computation
	// claim, in shape).
	src := `
int a[512];
int b[512];
void f(void) {
  int i;
  for (i = 0; i < 512; i++) b[i] = a[i] * 3 + 1;
}`
	p := compileProgram(t, src)
	df, err := Run(p, "f", nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	it := interp.New(p, memsys.PerfectConfig())
	seq, err := it.Run("f", nil)
	if err != nil {
		t.Fatal(err)
	}
	if df.Stats.Cycles >= seq.SeqCycles {
		t.Errorf("dataflow (%d cycles) not faster than sequential (%d)", df.Stats.Cycles, seq.SeqCycles)
	}
}

func TestRunProfiled(t *testing.T) {
	src := `
int a[32];
int f(void) {
  int i;
  int s = 0;
  for (i = 0; i < 32; i++) a[i] = i;
  for (i = 0; i < 32; i++) s += a[i];
  return s;
}`
	p := compileProgram(t, src)
	res, prof, err := profileRun(p, "f", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 496 {
		t.Errorf("value = %d", res.Value)
	}
	if prof.ByKind["load"] == 0 || prof.ByKind["store"] == 0 {
		t.Errorf("profile missing memory ops: %v", prof.ByKind)
	}
	hot := prof.Hot(5)
	if len(hot) != 5 {
		t.Fatalf("hot = %d entries", len(hot))
	}
	// The hottest node should have fired around once per loop iteration.
	if hot[0].Count < 30 {
		t.Errorf("hottest node fired only %d times", hot[0].Count)
	}
	if out := prof.Format(3); len(out) == 0 {
		t.Error("empty profile output")
	}
	// Total profiled fires must equal the OpsFired statistic.
	var total int64
	for _, c := range prof.ByKind {
		total += c
	}
	if total != res.Stats.OpsFired {
		t.Errorf("profile total %d != OpsFired %d", total, res.Stats.OpsFired)
	}
}
