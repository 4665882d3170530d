package codegen_test

// Allocation gates. Steady state: after a warm-up run has filled the
// per-graph activation-state pools, repeat runs of a compiled Module must
// allocate (almost) nothing per event — the whole point of the
// flat-bytecode engine is that the hot loop touches no allocator. Each
// run builds a fresh VM, whose event-queue slab, frame lists, activation
// arena and memory image grow in a handful of allocations, so the budget
// is per *run*, not per event: a fixed few are fine, anything that
// scales with events is not. Fresh runs: with every pool emptied, a run
// pays only for the state it touches, on both engines.

import (
	"runtime"
	"testing"

	"spatial/internal/codegen"
	"spatial/internal/core"
	"spatial/internal/dataflow"
	"spatial/internal/opt"
	"spatial/internal/workloads"
)

func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting measures the race detector, not the VM")
	}
	w := workloads.ByName("g721_e")
	cp, err := core.CompileSource(w.Source, core.WithLevel(opt.Full))
	if err != nil {
		t.Fatal(err)
	}
	mod := codegen.Compile(cp.Program)
	cfg := dataflow.DefaultConfig()
	res, err := mod.Run(w.Entry, nil, cfg) // warm-up sizes every pool
	if err != nil {
		t.Fatal(err)
	}
	events := float64(res.Stats.Events)
	perRun := testing.AllocsPerRun(10, func() {
		if _, err := mod.Run(w.Entry, nil, cfg); err != nil {
			t.Error(err)
		}
	})
	// The harness bench gate allows 0.05 allocs/event; hold the engine
	// itself to far less — a fixed handful per run, none per event.
	if perEvent := perRun / events; perEvent > 0.001 {
		t.Errorf("steady-state allocations: %.1f allocs/run = %.4f allocs/event (budget 0.001)", perRun, perEvent)
	}
	if perRun > 64 {
		t.Errorf("steady-state allocations: %.1f allocs/run (budget 64 fixed)", perRun)
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
