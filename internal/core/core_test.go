package core

import (
	"context"
	"strings"
	"testing"

	"spatial/internal/memsys"
	"spatial/internal/opt"
)

const demo = `
int data[32];
int process(int n) {
  int i;
  int s = 0;
  for (i = 0; i < n; i++) data[i] = i * 2;
  for (i = 0; i < n; i++) s += data[i];
  return s;
}`

func TestCompileAndRun(t *testing.T) {
	cp, err := CompileSource(demo, WithLevel(opt.Full))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cp.Run("process", []int64{32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 992 {
		t.Errorf("process(32) = %d, want 992", res.Value)
	}
	seq, err := cp.RunSequential("process", []int64{32})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Value != res.Value {
		t.Errorf("sequential %d != spatial %d", seq.Value, res.Value)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := CompileSource("int f( {"); err == nil {
		t.Error("parse error not reported")
	}
	if _, err := CompileSource("int f(void) { return g; }"); err == nil {
		t.Error("check error not reported")
	}
}

func TestCustomPasses(t *testing.T) {
	passes := opt.LevelOptions(opt.Full)
	passes.LoadAfterStore = false
	cp, err := CompileSource(`int g; int f(int x) { g = x; return g; }`,
		WithPasses(passes))
	if err != nil {
		t.Fatal(err)
	}
	loads, _ := cp.StaticMemOps()
	if loads != 1 {
		t.Errorf("load-after-store disabled but load count = %d", loads)
	}
	res, err := cp.Run("f", []int64{9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 9 {
		t.Errorf("f(9) = %d", res.Value)
	}
}

func TestDumpAndDot(t *testing.T) {
	cp, err := CompileSource(demo, WithLevel(opt.Medium))
	if err != nil {
		t.Fatal(err)
	}
	d, err := cp.Dump("process")
	if err != nil || !strings.Contains(d, "hyper") {
		t.Errorf("dump: %v\n%s", err, d)
	}
	dot, err := cp.Dot("process")
	if err != nil || !strings.Contains(dot, "digraph") {
		t.Errorf("dot: %v", err)
	}
	if _, err := cp.Dump("missing"); err == nil {
		t.Error("missing function accepted")
	}
}

func TestRunWithMemoryConfigs(t *testing.T) {
	cp, err := CompileSource(demo, WithLevel(opt.Full), WithMemory(PaperMemory(1)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cp.Run("process", []int64{32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 992 {
		t.Errorf("value = %d", res.Value)
	}
}

func TestVerifyPost(t *testing.T) {
	cp, err := CompileSource(demo, WithLevel(opt.Full))
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Verify(); err != nil {
		t.Error(err)
	}
}

func TestRunTraced(t *testing.T) {
	cp, err := CompileSource(demo,
		WithLevel(opt.Full), WithMemory(PaperMemory(2)), WithTrace(TraceConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	res, tr, err := cp.RunTraced(context.Background(), "process", []int64{32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 992 {
		t.Errorf("traced process(32) = %d, want 992", res.Value)
	}
	cp2 := tr.CriticalPath()
	if cp2 == nil {
		t.Fatal("no critical path")
	}
	if cp2.Length <= 0 || cp2.Length > res.Stats.Cycles {
		t.Errorf("path length %d outside (0, %d]", cp2.Length, res.Stats.Cycles)
	}
	if len(tr.Mem) == 0 {
		t.Error("no memory events recorded under realistic memory")
	}
}

func TestCompiledSimIsNormalized(t *testing.T) {
	// A partial WithSim must be normalized at compile time so the
	// recorded Config matches what runs (previously the raw zero-filled
	// struct was stored while Run silently applied defaults).
	cp, err := CompileSource(demo, WithSim(SimConfig{MaxCycles: 123456}))
	if err != nil {
		t.Fatal(err)
	}
	if cp.Sim.MaxCycles != 123456 {
		t.Errorf("MaxCycles = %d, want 123456", cp.Sim.MaxCycles)
	}
	if cp.Sim.MaxActivations <= 0 {
		t.Errorf("activation limit not defaulted: %+v", cp.Sim)
	}
	if cp.Sim.Mem == (memsys.Config{}) {
		t.Error("memory config not defaulted")
	}
	if cp.Sim != cp.Sim.Normalized() {
		t.Errorf("recorded config is not a fixed point of normalization: %+v", cp.Sim)
	}
}
