package core

import (
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
