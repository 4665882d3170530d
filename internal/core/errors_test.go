package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"spatial/internal/dataflow"
	"spatial/internal/pegasus"
)

// longLoopSrc runs long enough that the simulator's periodic context poll
// (every ~1k events) fires many times.
const longLoopSrc = `
int g;
int f(void) {
  int i;
  for (i = 0; i < 10000000; i++) { g = g + 1; }
  return g;
}`

// badInitSources hold brace initializers the checker must reject: on
// non-array globals and locals (unchecked, these panic in the layout or
// store the second element into the next global), past an array's end,
// and on an array of arrays.
var badInitSources = []string{
	`int A = {0};`,
	`int bench(void){ int x = {5}; return x; }`,
	`int *p = {0, 7}; int q; int bench(void){ return q; }`,
	`int bench(void){ int a[1] = {1, 7}; int b[1]; return b[0]; }`,
	`int A[2][2] = {1, 2}; int bench(void){ return A[0][1]; }`,
}

// badLayoutSources declare objects, or a frame, larger than the
// simulated memory; each must fail with ErrCompile. Their sizes must not
// wrap: cut to 32 bits, a[1073741824] is 0 bytes (read as an unsized
// extern's 4 KiB, so a[1024] aliases b) and a[2147483647] fits.
var badLayoutSources = []string{
	`int a[1073741824]; int b; int f(void) { b = 7; a[1024] = 3; return b; }`,
	`int f(void) { int a[1073741824]; int b; b = 7; a[1024] = 3; return b; }`,
	`int a[2147483647]; int f(void) { return 0; }`,
	`int a[4294967296][4294967296]; int f(void) { return 0; }`,
	`int f(void) { int a[700000]; int b[700000]; a[0] = 1; b[0] = 2; return a[0] + b[0]; }`,
}

// TestErrorClasses: every failure out of the facade carries exactly one
// of the three sentinel classes, matchable with errors.Is.
func TestErrorClasses(t *testing.T) {
	if _, err := CompileSource(`int f( { return; }`); !errors.Is(err, ErrCompile) {
		t.Fatalf("syntax error not classed ErrCompile: %v", err)
	}
	if _, err := CompileSource(`int f(void) { return 1; }`, WithSim(SimConfig{MaxCycles: -1})); !errors.Is(err, ErrCompile) {
		t.Fatalf("invalid sim config not classed ErrCompile: %v", err)
	}
	for _, src := range append(badInitSources, badLayoutSources...) {
		if _, err := CompileSource(src); !errors.Is(err, ErrCompile) {
			t.Fatalf("%q: not classed ErrCompile: %v", src, err)
		}
	}

	cp, err := CompileSource(`
int g;
int f(void) {
  int i;
  for (i = 0; i < 100000; i++) { g = g + 1; }
  return g;
}`, WithSim(SimConfig{MaxCycles: 2000}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = cp.Run("f", nil)
	if !errors.Is(err, ErrSim) {
		t.Fatalf("livelock not classed ErrSim: %v", err)
	}
	var le *LivelockError
	if !errors.As(err, &le) || le.Report == nil {
		t.Fatalf("classed error lost its typed detail: %v", err)
	}
	if errors.Is(err, ErrCompile) || errors.Is(err, ErrInternal) {
		t.Fatalf("error carries more than one class: %v", err)
	}
}

// TestPanicBecomesErrInternal: corrupt a compiled graph so the simulator
// panics; the facade must recover it into ErrInternal carrying a
// PanicError with a stack, never let it escape.
func TestPanicBecomesErrInternal(t *testing.T) {
	cp, err := CompileSource(`int f(int a) { return a + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	g := cp.Program.Graph("f")
	for _, n := range g.Nodes {
		if !n.Dead && n.Kind == pegasus.KBinOp {
			n.Kind = pegasus.Kind(250) // no such kind: the evaluator panics
		}
	}
	_, err = cp.Run("f", []int64{1})
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("panic not classed ErrInternal: %v", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("no PanicError in chain: %v", err)
	}
	if pe.Value == nil || len(pe.Stack) == 0 {
		t.Fatalf("PanicError missing detail: %+v", pe)
	}
}

// TestRunCtxCancellation: a canceled context aborts a long run with
// ErrCanceled under ErrSim.
func TestRunCtxCancellation(t *testing.T) {
	cp, err := CompileSource(longLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = cp.RunCtx(ctx, "f", nil)
	if !errors.Is(err, dataflow.ErrCanceled) {
		t.Fatalf("pre-canceled ctx: want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, ErrSim) {
		t.Fatalf("cancellation not classed ErrSim: %v", err)
	}
}

// TestWithDeadline: the wall-clock budget set at compile time cuts off
// every Run, including the plain context-free entry point.
func TestWithDeadline(t *testing.T) {
	cp, err := CompileSource(longLoopSrc, WithDeadline(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = cp.Run("f", nil)
	if !errors.Is(err, dataflow.ErrCanceled) {
		t.Fatalf("want ErrCanceled from deadline, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not cut the run off promptly: %v", elapsed)
	}
}

// TestRunFaultedSmoke: the facade fault entry point works end to end
// with both a planned injector and a nil one.
func TestRunFaultedSmoke(t *testing.T) {
	cp, err := CompileSource(`int f(int a) { return a * 2; }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cp.RunFaulted(context.Background(), "f", []int64{21}, nil)
	if err != nil || res.Value != 42 {
		t.Fatalf("nil injector run = %v, %v", res, err)
	}
	inj := NewJitterInjector(1, 0.5, 4)
	res, err = cp.RunFaulted(context.Background(), "f", []int64{21}, inj)
	if err != nil || res.Value != 42 {
		t.Fatalf("jitter run = %v, %v", res, err)
	}
	inj2 := NewInjector(FaultPlan{Faults: []Fault{
		{Op: FaultDrop, Node: -1, Edge: -1, Token: true, Nth: 1},
	}})
	if _, err := cp.RunFaulted(context.Background(), "f", []int64{21}, inj2); err != nil {
		if !errors.Is(err, ErrSim) {
			t.Fatalf("detected fault not classed ErrSim: %v", err)
		}
	}
}
