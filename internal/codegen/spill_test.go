package codegen_test

// Spill-heap stress: the event queue's calendar ring (internal/evq) only
// spans 512 cycles, so a memory slower than that schedules every load's
// value past the ring's horizon, into the (time, seq) spill heap. These
// schedules are the asynchrony-heavy worst case for the queue, and the VM
// must still replay the interpreter bit for bit.

import (
	"testing"

	"spatial/internal/codegen"
	"spatial/internal/core"
	"spatial/internal/dataflow"
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
	// Load latencies just inside, at and past the 512-cycle horizon, and
	// far past it.
	for _, lat := range []int64{511, 512, 600, 2000, 4096} {
		cfg := dataflow.DefaultConfig()
		cfg.Mem.PerfectLatency = lat
		want, err := sh.Run(w.Entry, nil, cfg)
		if err != nil {
			t.Fatalf("latency %d: interpreter aborted: %v", lat, err)
		}
		got, err := mod.Run(w.Entry, nil, cfg)
		if err != nil {
			t.Errorf("latency %d: aborted: %v", lat, err)
			continue
		}
		if *got != *want {
			t.Errorf("latency %d: result diverged:\n got %+v\nwant %+v", lat, got, want)
		}
	}
}
