package difftest

// Backend bit-identity over the benchmark set (the five suite programs
// the root go-test benchmarks use) and over every archived fuzzer
// reproducer. Check itself performs the dual-backend comparison
// at all four optimization levels; these tests drive it over the two
// corpora the project treats as canon: the MediaBench/SPEC workload set
// and testdata/crashers/ (programs that once broke an engine are exactly
// the programs most likely to break the next one).

import (
	"path/filepath"
	"testing"

	"spatial/internal/progen"
	"spatial/internal/workloads"
)

func TestBackendIdentityBenchSet(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-set sweep")
	}
	for _, name := range []string{"adpcm_e", "epic_e", "g721_e", "mesa", "129.compress"} {
		w := workloads.ByName(name)
		if w.Entry != Entry {
			t.Fatalf("%s: entry %q, difftest drives %q", name, w.Entry, Entry)
		}
		if err := Check(w.Source, 0); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestBackendIdentityCrashers(t *testing.T) {
	paths, err := filepath.Glob("testdata/crashers/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Skip("no archived crashers")
	}
	for _, path := range paths {
		c, err := ReadCrasher(path)
		if err != nil {
			t.Fatal(err)
		}
		src := progen.Generate(c.Config)
		if err := Check(src, 0); err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
			continue
		}
		if c.Faults {
			if _, err := CheckFaults(src, c.Seed, 0); err != nil {
				t.Errorf("%s (faulted): %v", filepath.Base(path), err)
			}
		}
	}
}
