package codegen_test

// Spill-heap stress: the event queue's calendar ring (internal/evq) only
// spans 512 cycles, so injected delays larger than that force deliveries
// off the ring into the (time, seq) spill heap. These schedules are the
// asynchrony-heavy worst case for the queue, and the VM must still replay
// the interpreter bit for bit.

import (
	"testing"

	"spatial/internal/codegen"
	"spatial/internal/core"
	"spatial/internal/dataflow"
	"spatial/internal/faultsim"
	"spatial/internal/opt"
	"spatial/internal/workloads"
)

func TestSpillHeapStress(t *testing.T) {
	w := workloads.ByName("adpcm_e")
	cp, err := core.CompileSource(w.Source, core.WithLevel(opt.Full))
	if err != nil {
		t.Fatal(err)
	}
	sh, mod := dataflow.Prebuild(cp.Program), codegen.Compile(cp.Program)
	cfg := dataflow.DefaultConfig()
	cfg.MaxCycles = 1 << 24 // delays of thousands of cycles stretch the run
	mk := []struct {
		name string
		inj  func() *faultsim.Injector
	}{
		// Every ~10th delivery is pushed 0–4095 cycles out: far past the
		// 512-cycle ring horizon, so most delayed events take the spill
		// path instead of a bucket.
		{"huge-jitter", func() *faultsim.Injector { return faultsim.NewJitter(7, 0.1, 4096) }},
		// Repeatedly stretch memory completions by 2000 cycles — the
		// realistic source of far-future events (slow memory), likewise
		// past the ring horizon.
		{"mem-stretch-2000", func() *faultsim.Injector {
			return faultsim.New(faultsim.Plan{Faults: []faultsim.Fault{
				{Op: faultsim.MemStretch, Node: -1, Edge: -1, Nth: 4, Cycles: 2000},
				{Op: faultsim.MemStretch, Node: -1, Edge: -1, Nth: 9, Cycles: 3000}}})
		}},
		// Jitter with delays straddling the horizon: some events land at
		// the ring's edge, some just past it, exercising the boundary.
		{"horizon-jitter", func() *faultsim.Injector { return faultsim.NewJitter(99, 0.2, 600) }},
	}
	for _, fr := range mk {
		injI := fr.inj()
		want, errI := sh.RunHooks(w.Entry, nil, cfg, dataflow.Hooks{Inject: injI})
		if errI != nil {
			t.Fatalf("%s: interpreter aborted: %v", fr.name, errI)
		}
		inj := fr.inj()
		got, err := mod.RunHooks(w.Entry, nil, cfg, dataflow.Hooks{Inject: inj})
		if err != nil {
			t.Errorf("%s: aborted: %v", fr.name, err)
			continue
		}
		if *got != *want {
			t.Errorf("%s: result diverged:\n got %+v\nwant %+v", fr.name, got, want)
		}
		if len(injI.Triggered()) != len(inj.Triggered()) {
			t.Errorf("%s: triggered-fault logs diverged: interp %d, vm %d",
				fr.name, len(injI.Triggered()), len(inj.Triggered()))
		}
	}
}
