package spatial_test

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"spatial"
)

// TestPublicAPI exercises the root package exactly as the README does.
func TestPublicAPI(t *testing.T) {
	cp, err := spatial.Compile(`
int squares[64];
int sumOfSquares(int n) {
  int i; int s = 0;
  for (i = 0; i < n; i++) squares[i] = i * i;
  for (i = 0; i < n; i++) s += squares[i];
  return s;
}`, spatial.WithLevel(spatial.OptFull))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cp.Run("sumOfSquares", []int64{64})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for i := int64(0); i < 64; i++ {
		want += i * i
	}
	if res.Value != want {
		t.Errorf("sumOfSquares(64) = %d, want %d", res.Value, want)
	}
	seq, err := cp.RunSequential("sumOfSquares", []int64{64})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Value != want {
		t.Errorf("sequential = %d, want %d", seq.Value, want)
	}
	if res.Stats.Cycles >= seq.SeqCycles {
		t.Logf("note: spatial %d cycles vs sequential %d", res.Stats.Cycles, seq.SeqCycles)
	}
}

// TestFunctionalOptions exercises the redesigned option API and the
// wider re-exported surface: hardware estimates, profiled runs, graph
// dumps, and the workload registry.
func TestFunctionalOptions(t *testing.T) {
	w := spatial.WorkloadByName("mesa")
	if w == nil {
		t.Fatal("workload mesa missing")
	}
	cp, err := spatial.Compile(w.Source,
		spatial.WithLevel(spatial.OptFull),
		spatial.WithMemory(spatial.PaperMemory(2)))
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Verify(); err != nil {
		t.Fatal(err)
	}
	res, prof, err := cp.RunProfiled(w.Entry, nil)
	if err != nil {
		t.Fatal(err)
	}
	if prof == nil || res.Stats.Cycles == 0 {
		t.Errorf("profiled run: cycles=%d prof=%v", res.Stats.Cycles, prof)
	}
	seq, err := cp.RunSequential(w.Entry, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != seq.Value {
		t.Errorf("spatial %d != sequential %d under PaperMemory(2)", res.Value, seq.Value)
	}
	var area int64
	for _, r := range spatial.EstimateHardware(cp) {
		area += r.Area
	}
	if area <= 0 {
		t.Errorf("hardware area = %d", area)
	}
	if len(spatial.Workloads()) == 0 {
		t.Error("empty workload registry")
	}
	passes := spatial.LevelPasses(spatial.OptFull)
	if !passes.LoadAfterStore {
		t.Error("LevelPasses(OptFull) misses LoadAfterStore")
	}
}

func TestPublicAPILevels(t *testing.T) {
	src := `int g; int f(int x) { g = x; g = g + 1; return g; }`
	for name, lv := range map[string]spatial.Level{
		"none":   spatial.OptNone,
		"basic":  spatial.OptBasic,
		"medium": spatial.OptMedium,
		"full":   spatial.OptFull,
	} {
		cp, err := spatial.Compile(src, spatial.WithLevel(lv))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := cp.Run("f", []int64{41})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Value != 42 {
			t.Errorf("%s: f(41) = %d, want 42", name, res.Value)
		}
	}
}

// TestPublicAPIRobustness exercises the hardened surface: typed error
// classes, fault injection, and diagnosed deadlocks — all from the root
// package, the way an embedding application would use them.
func TestPublicAPIRobustness(t *testing.T) {
	if _, err := spatial.Compile(`int f( {`); !errors.Is(err, spatial.ErrCompile) {
		t.Fatalf("syntax error not classed spatial.ErrCompile: %v", err)
	}

	cp, err := spatial.Compile(`
int a[16];
int f(void) {
  int i; int s = 0;
  for (i = 0; i < 16; i++) a[i] = i;
  for (i = 0; i < 16; i++) s += a[i];
  return s;
}`)
	if err != nil {
		t.Fatal(err)
	}

	// Jitter must be absorbed: identical value under injected delays.
	clean, err := cp.Run("f", nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cp.RunFaulted(context.Background(), "f", nil, spatial.NewJitterInjector(7, 0.3, 5))
	if err != nil || res.Value != clean.Value {
		t.Fatalf("jitter not absorbed: %v, %v (want %d)", res, err, clean.Value)
	}

	// A dropped memory-dependence token must end in a diagnosed stall.
	inj := spatial.NewInjector(spatial.FaultPlan{Faults: []spatial.Fault{
		{Op: spatial.FaultDrop, Node: -1, Edge: -1, Token: true, Nth: 1},
	}})
	_, err = cp.RunFaulted(context.Background(), "f", nil, inj)
	if err == nil {
		t.Fatal("dropped token absorbed silently")
	}
	if !errors.Is(err, spatial.ErrSim) {
		t.Fatalf("fault not classed spatial.ErrSim: %v", err)
	}
	var de *spatial.DeadlockError
	var le *spatial.LivelockError
	switch {
	case errors.As(err, &de):
		if de.Report == nil || len(de.Report.Blocked) == 0 || de.Report.Render() == "" {
			t.Fatalf("deadlock without a usable report: %v", err)
		}
	case errors.As(err, &le):
		if le.Report == nil {
			t.Fatalf("livelock without a report: %v", err)
		}
	default:
		t.Fatalf("want a typed deadlock/livelock, got %v", err)
	}
}

func TestPublicAPITracing(t *testing.T) {
	src := `
int v[16];
int f(int n) {
  int i;
  int s = 0;
  for (i = 0; i < n; i++) v[i] = i + 1;
  for (i = 0; i < n; i++) s += v[i];
  return s;
}`
	cp, err := spatial.Compile(src,
		spatial.WithLevel(spatial.OptFull),
		spatial.WithTrace(spatial.DefaultTrace()))
	if err != nil {
		t.Fatal(err)
	}
	res, tr, err := cp.RunTraced(context.Background(), "f", []int64{16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 136 {
		t.Errorf("f(16) = %d, want 136", res.Value)
	}
	crit := tr.CriticalPath()
	if crit == nil {
		t.Fatal("no critical path")
	}
	if crit.Length <= 0 || crit.Length > res.Stats.Cycles {
		t.Errorf("critical path %d outside (0, %d]", crit.Length, res.Stats.Cycles)
	}
	var buf strings.Builder
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(buf.String())) {
		t.Error("Chrome export is not valid JSON")
	}
}
