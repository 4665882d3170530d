package codegen_test

// Differential identity against the interpreter — the compiled backend's
// core contract. Every comparison here is full-struct (Value plus every
// Stats field, including memory-system counters), not just the checksum:
// the compiled VM replays the interpreter's event algebra exactly, so any
// drift is a bug, not noise.

import (
	"errors"
	"testing"

	"spatial/internal/codegen"
	"spatial/internal/core"
	"spatial/internal/dataflow"
	"spatial/internal/memsys"
	"spatial/internal/opt"
	"spatial/internal/workloads"
)

var allLevels = []opt.Level{opt.None, opt.Basic, opt.Medium, opt.Full}

// TestResultIdentity runs every suite program at every optimization
// level on both engines and requires bit-identical results, on perfect
// memory and on the paper's two-port memory system. Under -short (the
// race job) it checks O3 only; the codegen-diff job runs every level.
func TestResultIdentity(t *testing.T) {
	levels := allLevels
	if testing.Short() {
		levels = []opt.Level{opt.Full}
	}
	var cfgs []dataflow.Config
	for _, mem := range []memsys.Config{memsys.PerfectConfig(), memsys.PaperConfig(2)} {
		cfg := dataflow.DefaultConfig()
		cfg.Mem = mem
		cfgs = append(cfgs, cfg)
	}
	for _, w := range workloads.All() {
		for _, lvl := range levels {
			cp, err := core.CompileSource(w.Source, core.WithLevel(lvl))
			if err != nil {
				t.Fatal(err)
			}
			sh, mod := dataflow.Prebuild(cp.Program), codegen.Compile(cp.Program)
			for _, cfg := range cfgs {
				want, err := sh.Run(w.Entry, nil, cfg)
				if err != nil {
					t.Fatalf("%s O%d mem %+v: %v", w.Name, lvl, cfg.Mem, err)
				}
				got, err := mod.Run(w.Entry, nil, cfg)
				if err != nil {
					t.Fatalf("%s O%d mem %+v: %v", w.Name, lvl, cfg.Mem, err)
				}
				if *got != *want {
					t.Errorf("%s O%d mem %+v mismatch:\n got %+v\nwant %+v", w.Name, lvl, cfg.Mem, got, want)
				}
			}
		}
	}
}

// streamPrograms are the programs whose event streams must match: two
// suite programs, and call-overlap, whose call site waits for each
// activation to return (a busy call is refused, and its return rechecks
// it) before it fires again.
var streamPrograms = []struct{ name, src, entry string }{
	{"adpcm_e", workloads.ByName("adpcm_e").Source, workloads.ByName("adpcm_e").Entry},
	{"g721_e", workloads.ByName("g721_e").Source, workloads.ByName("g721_e").Entry},
	{"call-overlap", `
int a[8];
int slow(int x) { int k; int s = 0; for (k = 0; k < x; k++) s += k; return s; }
int bench(void) {
  int i; int c = 0;
  for (i = 0; i < 8; i++) { if (i < 100) { int x = slow(40 - 5 * i); if (i < 50) a[i] = x; } }
  for (i = 0; i < 8; i++) c = c * 31 + a[i];
  return c;
}`, "bench"},
}

// TestEventStreamIdentity compares the two engines' full event streams —
// every processed event's (time, seq, act, node) in execution order, not
// just the end-of-run statistics. This exercises the VM's total-order
// spill path, where every event carries its global sequence number.
func TestEventStreamIdentity(t *testing.T) {
	type ev struct {
		time, seq int64
		act, node int
	}
	for _, p := range streamPrograms {
		name := p.name
		cp, err := core.CompileSource(p.src, core.WithLevel(opt.Full))
		if err != nil {
			t.Fatal(err)
		}
		var want []ev
		if _, err := dataflow.Prebuild(cp.Program).RunHooks(p.entry, nil, dataflow.DefaultConfig(), dataflow.Hooks{
			Events: func(time, seq int64, act, node int) {
				want = append(want, ev{time, seq, act, node})
			}}); err != nil {
			t.Fatal(err)
		}
		i, diverged := 0, false
		_, err = codegen.Compile(cp.Program).RunHooks(p.entry, nil, dataflow.DefaultConfig(), dataflow.Hooks{
			Events: func(time, seq int64, act, node int) {
				if diverged {
					return
				}
				if i >= len(want) || want[i] != (ev{time, seq, act, node}) {
					diverged = true
					if i < len(want) {
						t.Errorf("%s: event %d: got %+v want %+v", name, i, ev{time, seq, act, node}, want[i])
					} else {
						t.Errorf("%s: event %d past interpreter stream end: %+v", name, i, ev{time, seq, act, node})
					}
					return
				}
				i++
			}})
		if err != nil {
			t.Fatal(err)
		}
		if !diverged && i != len(want) {
			t.Errorf("%s: compiled stream ended at %d events, interpreter produced %d", name, i, len(want))
		}
	}
}

// TestLivelockIdentity cuts every suite program at O3 off at three cycle
// budgets and requires both engines to fail with the same error text,
// rendered stuck report included: each cut catches the engines mid-run,
// with calls, latches and occupied edges in flight, so the VM's state
// must mirror the interpreter's at arbitrary points, not only at the end.
// Six programs finish within 3000 cycles; there the Results must match.
func TestLivelockIdentity(t *testing.T) {
	reports := 0
	for _, w := range workloads.All() {
		cp, err := core.CompileSource(w.Source, core.WithLevel(opt.Full))
		if err != nil {
			t.Fatal(err)
		}
		sh, mod := dataflow.Prebuild(cp.Program), codegen.Compile(cp.Program)
		for _, maxCycles := range []int64{50, 777, 3000} {
			cfg := dataflow.DefaultConfig()
			cfg.MaxCycles = maxCycles
			want, errI := sh.Run(w.Entry, nil, cfg)
			got, errC := mod.Run(w.Entry, nil, cfg)
			var le *dataflow.LivelockError
			switch {
			case errI == nil && errC == nil:
				if *got != *want {
					t.Errorf("%s at %d cycles: result diverged:\n got %+v\nwant %+v", w.Name, maxCycles, got, want)
				}
			case !errors.As(errI, &le):
				t.Errorf("%s at %d cycles: interpreter err = %v, want a livelock", w.Name, maxCycles, errI)
			case errC == nil || errI.Error() != errC.Error():
				t.Errorf("%s at %d cycles: outcome diverged:\n interp   %v\n compiled %v", w.Name, maxCycles, errI, errC)
			default:
				reports++
			}
		}
	}
	if reports < 50 {
		t.Errorf("compared %d livelock reports, want at least 50", reports)
	}
}
