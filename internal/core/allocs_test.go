package core

import (
	"testing"

	"spatial/internal/opt"
	"spatial/internal/workloads"
)

// TestCompileAllocs budgets the allocations of one CompileSource: pass
// scratch is reused from round to round and builder snapshots are
// slices, so a compile allocates little beyond the graph it returns.
// Each budget sits about 10% above the count measured when it was set
// (EXPERIMENTS.md, "Compile allocations"), so a new per-round map or
// per-edge copy fails it.
func TestCompileAllocs(t *testing.T) {
	for _, c := range []struct {
		name   string
		level  opt.Level
		budget float64
	}{
		{"mesa", opt.None, 2660},
		{"mesa", opt.Full, 4240},
		{"g721_e", opt.None, 2970},
		{"g721_e", opt.Full, 6320},
		{"129.compress", opt.None, 2530},
		{"129.compress", opt.Full, 3290},
	} {
		src := workloads.ByName(c.name).Source
		got := testing.AllocsPerRun(10, func() {
			if _, err := CompileSource(src, WithLevel(c.level)); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.budget {
			t.Errorf("%s at %v: %.0f allocations, budget %.0f", c.name, c.level, got, c.budget)
		}
	}
}
