package core

import (
	"runtime"
	"testing"

	"spatial/internal/codegen"
	"spatial/internal/opt"
	"spatial/internal/workloads"
)

// TestCompileAllocs budgets the allocations of one CompileSource and of
// one codegen.Compile of its result. Pass scratch is reused from round
// to round, builder snapshots are slices and alias sets are walked in
// place, so a compile allocates little beyond the graph it returns;
// lowering sizes each graph's tables before it fills them, so it
// allocates a fixed handful of objects per graph. Each budget sits about
// 10% above the count measured when it was set (EXPERIMENTS.md, "Compile
// allocations" and "Compact lowered modules"), so a new per-round map,
// per-edge copy or per-rule slice fails it.
func TestCompileAllocs(t *testing.T) {
	for _, c := range []struct {
		name          string
		level         opt.Level
		budget, lower float64
	}{
		{"mesa", opt.None, 2580, 87},
		{"mesa", opt.Full, 4160, 87},
		{"g721_e", opt.None, 2880, 105},
		{"g721_e", opt.Full, 6230, 105},
		{"129.compress", opt.None, 2480, 64},
		{"129.compress", opt.Full, 3240, 64},
	} {
		src := workloads.ByName(c.name).Source
		var cp *Compiled
		got := testing.AllocsPerRun(10, func() {
			var err error
			if cp, err = CompileSource(src, WithLevel(c.level)); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.budget {
			t.Errorf("%s at %v: %.0f allocations, budget %.0f", c.name, c.level, got, c.budget)
		}
		got = testing.AllocsPerRun(10, func() { codegen.Compile(cp.Program) })
		if got > c.lower {
			t.Errorf("%s at %v: lowering made %.0f allocations, budget %.0f", c.name, c.level, got, c.lower)
		}
	}
}

// TestProgramFootprint compiles the 22 suite programs at O3 and bounds
// the heap the compiled programs retain, read after two GCs as
// codegen's TestModuleFootprint reads it. cashd caches up to 64
// compiled programs, and their optimized graphs are most of what one
// keeps, so this is paid per cached program. The budget sits about 10%
// above the 1,852 KB measured when it was set (EXPERIMENTS.md, "Compact
// cached programs").
func TestProgramFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap readings under -race measure the race detector")
	}
	ws := workloads.All()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	cps := make([]*Compiled, len(ws))
	for i, w := range ws {
		cp, err := CompileSource(w.Source, WithLevel(opt.Full))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		cps[i] = cp
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(cps)
	const budget = 2040 << 10
	if b := int64(after.HeapAlloc) - int64(before.HeapAlloc); b > budget {
		t.Errorf("the 22 suite programs at O3 retain %d KB, budget %d KB", b>>10, budget>>10)
	}
}
