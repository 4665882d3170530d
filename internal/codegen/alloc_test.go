package codegen_test

// Allocation gates. Steady state: after a warm-up run has filled the
// per-graph activation-state pools, repeat runs of a compiled program
// must allocate (almost) nothing per event, on either engine — the hot
// loop touches no allocator. Each run builds a fresh VM or machine,
// whose event-queue slab, frame lists, activation arena and memory image
// grow in a handful of allocations, so the budget is per *run*, not per
// event: a fixed few are fine, anything that scales with events is not.
// Fresh runs: with every pool emptied, a run pays only for the state it
// touches, on both engines. Footprint: a lowered module keeps its rules
// and their tables, and nothing else.

import (
	"runtime"
	"testing"

	"spatial/internal/codegen"
	"spatial/internal/core"
	"spatial/internal/dataflow"
	"spatial/internal/opt"
	"spatial/internal/pegasus"
	"spatial/internal/workloads"
)

// TestSteadyStateAllocs holds the engines to a fixed handful of
// allocations per run and none per event, counted over whole runs after
// a warm-up: both engines on mesa and epic_e (the two smallest suite
// programs) at every level, and the VM on g721_e at O3, where the
// interpreter reads about 290 allocations per run. Every repeat must
// return the warm-up's Result exactly.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting measures the race detector, not the engines")
	}
	all := []opt.Level{opt.None, opt.Basic, opt.Medium, opt.Full}
	inputs := []struct {
		name   string
		levels []opt.Level
		vmOnly bool
	}{{"g721_e", []opt.Level{opt.Full}, true}, {"mesa", all, false}, {"epic_e", all, false}}
	cfg := dataflow.DefaultConfig()
	for _, in := range inputs {
		w := workloads.ByName(in.name)
		for _, level := range in.levels {
			cp, err := core.CompileSource(w.Source, core.WithLevel(level))
			if err != nil {
				t.Fatal(err)
			}
			sh, mod := dataflow.Prebuild(cp.Program), codegen.Compile(cp.Program)
			for _, eng := range []struct {
				name string
				run  func() (*dataflow.Result, error)
			}{
				{"interpreter", func() (*dataflow.Result, error) { return sh.Run(w.Entry, nil, cfg) }},
				{"vm", func() (*dataflow.Result, error) { return mod.Run(w.Entry, nil, cfg) }},
			} {
				if in.vmOnly && eng.name != "vm" {
					continue
				}
				ref, err := eng.run() // warm-up sizes every pool
				if err != nil {
					t.Fatalf("%s @%s [%s]: %v", w.Name, level, eng.name, err)
				}
				perRun := testing.AllocsPerRun(10, func() {
					res, err := eng.run()
					if err != nil {
						t.Fatalf("%s @%s [%s]: %v", w.Name, level, eng.name, err)
					}
					if *res != *ref {
						t.Fatalf("%s @%s [%s]: repeat diverged from the warm-up:\n got %+v\nwant %+v", w.Name, level, eng.name, res, ref)
					}
				})
				// A per-event allocation regression reads >= 1.0 per event;
				// 0.001 leaves room only for the fixed per-run handful.
				if perEvent := perRun / float64(ref.Stats.Events); perEvent > 0.001 {
					t.Errorf("%s @%s [%s]: %.1f allocs/run = %.4f allocs/event (budget 0.001)", w.Name, level, eng.name, perRun, perEvent)
				}
				if perRun > 64 {
					t.Errorf("%s @%s [%s]: %.1f allocs/run (budget 64 fixed)", w.Name, level, eng.name, perRun)
				}
			}
		}
	}
}

// TestFreshRunAllocs runs a small suite program once on each engine right
// after two GCs, which empty every sync.Pool, so nothing is reused. A run
// stores only the memory it touches (a few KB of the 4 MiB address
// space) and grows its event queue in O(log peak) allocations, so it
// must allocate well under 1 MiB.
func TestFreshRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting measures the race detector, not the engines")
	}
	w := workloads.ByName("gsm_d")
	cp, err := core.CompileSource(w.Source, core.WithLevel(opt.Full))
	if err != nil {
		t.Fatal(err)
	}
	mod := codegen.Compile(cp.Program)
	sh := dataflow.Prebuild(cp.Program)
	cfg := dataflow.DefaultConfig()
	for _, eng := range []struct {
		name string
		run  func() (*dataflow.Result, error)
	}{
		{"interpreter", func() (*dataflow.Result, error) { return sh.Run(w.Entry, nil, cfg) }},
		{"vm", func() (*dataflow.Result, error) { return mod.Run(w.Entry, nil, cfg) }},
	} {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := eng.run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", eng.name, err)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b >= 1<<20 {
			t.Errorf("%s: fresh run of %s allocated %d bytes (%d objects), budget 1 MiB",
				eng.name, w.Name, b, after.Mallocs-before.Mallocs)
		}
	}
}

// TestModuleFootprint lowers the 22 suite programs at O3 and bounds the
// heap the modules retain, read after two GCs like TestFreshRunAllocs.
// cashd keeps the module of every cached program it has run, so this is
// paid per cached program. Rules are 128 bytes over per-graph operand,
// port-list and consumer tables sized exactly at lowering, and nothing
// spans the node-ID range; the budget sits about 10% above the 1,123 KB
// measured when it was set (EXPERIMENTS.md, "Compact cached programs").
func TestModuleFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting measures the race detector, not the engines")
	}
	ws := workloads.All()
	progs := make([]*pegasus.Program, len(ws))
	for i, w := range ws {
		cp, err := core.CompileSource(w.Source, core.WithLevel(opt.Full))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		progs[i] = cp.Program
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	mods := make([]*codegen.Module, len(progs))
	for i, p := range progs {
		mods[i] = codegen.Compile(p)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(mods)
	const budget = 1240 << 10
	if b := int64(after.HeapAlloc) - int64(before.HeapAlloc); b > budget {
		t.Errorf("the 22 suite modules at O3 retain %d KB, budget %d KB", b>>10, budget>>10)
	}
}
