package codegen_test

// Differential identity against the interpreter — the compiled backend's
// core contract. Every comparison here is full-struct (Value plus every
// Stats field, including memory-system counters), not just the checksum:
// the compiled VM replays the interpreter's event algebra exactly, so any
// drift is a bug, not noise.

import (
	"testing"

	"spatial/internal/codegen"
	"spatial/internal/core"
	"spatial/internal/dataflow"
	"spatial/internal/faultsim"
	"spatial/internal/memsys"
	"spatial/internal/opt"
	"spatial/internal/workloads"
)

var allLevels = []opt.Level{opt.None, opt.Basic, opt.Medium, opt.Full}

// TestResultIdentity runs every suite program at every optimization
// level on both engines and requires bit-identical results, on perfect
// memory and on the paper's two-port memory system.
func TestResultIdentity(t *testing.T) {
	var cfgs []dataflow.Config
	for _, mem := range []memsys.Config{memsys.PerfectConfig(), memsys.PaperConfig(2)} {
		cfg := dataflow.DefaultConfig()
		cfg.Mem = mem
		cfgs = append(cfgs, cfg)
	}
	for _, w := range workloads.All() {
		for _, lvl := range allLevels {
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

// TestEventStreamIdentity compares the two engines' full event streams —
// every processed event's (time, seq, act, node) in execution order, not
// just the end-of-run statistics. This exercises the VM's total-order
// spill path, where every event carries its global sequence number.
func TestEventStreamIdentity(t *testing.T) {
	type ev struct {
		time, seq int64
		act, node int
	}
	for _, name := range []string{"adpcm_e", "g721_e"} {
		w := workloads.ByName(name)
		cp, err := core.CompileSource(w.Source, core.WithLevel(opt.Full))
		if err != nil {
			t.Fatal(err)
		}
		var want []ev
		if _, err := dataflow.Prebuild(cp.Program).RunHooks(w.Entry, nil, dataflow.DefaultConfig(), dataflow.Hooks{
			Events: func(time, seq int64, act, node int) {
				want = append(want, ev{time, seq, act, node})
			}}); err != nil {
			t.Fatal(err)
		}
		i, diverged := 0, false
		_, err = codegen.Compile(cp.Program).RunHooks(w.Entry, nil, dataflow.DefaultConfig(), dataflow.Hooks{
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

// TestFaultedIdentity replays the same seeded faults through both engines
// (fresh injector each, since injectors are stateful) and requires the
// identical outcome — identical Result when both complete, identical
// error text (including the rendered stuck report) when both abort, and
// identical triggered-fault logs either way.
func TestFaultedIdentity(t *testing.T) {
	w := workloads.ByName("adpcm_e")
	cp, err := core.CompileSource(w.Source, core.WithLevel(opt.Full))
	if err != nil {
		t.Fatal(err)
	}
	sh, mod := dataflow.Prebuild(cp.Program), codegen.Compile(cp.Program)
	cfg := dataflow.DefaultConfig()
	cfg.MaxCycles = 1 << 22 // cut livelocks off fast
	mk := []struct {
		name string
		inj  func() *faultsim.Injector
	}{
		{"jitter", func() *faultsim.Injector { return faultsim.NewJitter(42, 0.05, 8) }},
		{"freeze", func() *faultsim.Injector {
			return faultsim.New(faultsim.Plan{Faults: []faultsim.Fault{
				{Op: faultsim.Freeze, Node: -1, Edge: -1, Nth: 17, Cycles: 40}}})
		}},
		{"drop-value", func() *faultsim.Injector {
			return faultsim.New(faultsim.Plan{Faults: []faultsim.Fault{
				{Op: faultsim.Drop, Node: -1, Edge: -1, Nth: 99}}})
		}},
		{"dup-value", func() *faultsim.Injector {
			return faultsim.New(faultsim.Plan{Faults: []faultsim.Fault{
				{Op: faultsim.Duplicate, Node: -1, Edge: -1, Nth: 55}}})
		}},
		{"mem-stretch", func() *faultsim.Injector {
			return faultsim.New(faultsim.Plan{Faults: []faultsim.Fault{
				{Op: faultsim.MemStretch, Node: -1, Edge: -1, Nth: 5, Cycles: 64}}})
		}},
		{"mem-fail", func() *faultsim.Injector {
			return faultsim.New(faultsim.Plan{Faults: []faultsim.Fault{
				{Op: faultsim.MemFail, Node: -1, Edge: -1, Nth: 3}}})
		}},
	}
	for _, fr := range mk {
		injI, injC := fr.inj(), fr.inj()
		want, errI := sh.RunHooks(w.Entry, nil, cfg, dataflow.Hooks{Inject: injI})
		got, errC := mod.RunHooks(w.Entry, nil, cfg, dataflow.Hooks{Inject: injC})
		switch {
		case (errI == nil) != (errC == nil):
			t.Errorf("%s: outcome diverged: interp err=%v, compiled err=%v", fr.name, errI, errC)
		case errI != nil:
			if errI.Error() != errC.Error() {
				t.Errorf("%s: error text diverged:\n interp  %v\n compiled %v", fr.name, errI, errC)
			}
		case *want != *got:
			t.Errorf("%s: result diverged:\n got %+v\nwant %+v", fr.name, got, want)
		}
		ti, tc := injI.Triggered(), injC.Triggered()
		if len(ti) != len(tc) {
			t.Errorf("%s: triggered-fault logs diverged: interp %v, compiled %v", fr.name, ti, tc)
		}
	}
}
