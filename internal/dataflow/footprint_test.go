package dataflow

import (
	"runtime"
	"testing"
	"unsafe"

	"spatial/internal/opt"
	"spatial/internal/pegasus"
	"spatial/internal/workloads"
)

// TestSharedFootprint prebuilds the 22 suite programs at O3 and bounds
// the heap their tables retain, read after two GCs as codegen's
// TestModuleFootprint reads it. The interpreter is cashd's default
// engine, so cashd keeps these tables for every cached program it has
// run. Only the roles, the port bases and the consumer-edge offsets span
// the node-ID range; the budget sits about 10% above the 249 KB measured
// when it was set (926 KB before the tables were made flat;
// EXPERIMENTS.md, "Compact interpreter tables"). The test also pins what
// the hot path moves per delivery: an event and a consumer edge.
func TestSharedFootprint(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size > 40 {
		t.Errorf("event is %d bytes, want at most 40", size)
	}
	if size := unsafe.Sizeof(edge{}); size != 16 {
		t.Errorf("edge is %d bytes, want 16", size)
	}
	if raceEnabled {
		t.Skip("heap readings under -race measure the race detector")
	}
	ws := workloads.All()
	progs := make([]*pegasus.Program, len(ws))
	for i, w := range ws {
		progs[i] = compileProgram(t, w.Source)
		if err := opt.OptimizeAt(progs[i], opt.Full); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	shared := make([]*Shared, len(progs))
	for i, p := range progs {
		shared[i] = Prebuild(p)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(shared)
	const budget = 275 << 10
	if b := int64(after.HeapAlloc) - int64(before.HeapAlloc); b > budget {
		t.Errorf("the 22 suite programs' interpreter tables at O3 retain %d KB, budget %d KB", b>>10, budget>>10)
	}
}
