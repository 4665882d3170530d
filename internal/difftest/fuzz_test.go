package difftest

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spatial/internal/progen"
)

// FuzzDifferential is the differential fuzz target: each input seed
// becomes a generated program that must produce the oracle checksum at
// every optimization level, clean and under the injected-fault battery.
// Run a short budget with:
//
//	go test -fuzz=FuzzDifferential -fuzztime=30s -run '^$' ./internal/difftest
//
// Under -short (the race job) the corpus is seeds 1–2 instead of 1–8.
func FuzzDifferential(f *testing.F) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 2
	}
	for s := int64(1); s <= seeds; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		cfg := progen.DefaultConfig(seed)
		src := progen.Generate(cfg)
		if err := Check(src, 0); err != nil {
			t.Fatalf("seed %d: %v\nsource:\n%s", seed, err, src)
		}
		if _, err := CheckFaults(src, seed, 0); err != nil {
			t.Fatalf("seed %d: %v\nsource:\n%s", seed, err, src)
		}
	})
}

// regressionSeeds are progen seeds that once failed: 258 and 1921 have
// constant branch conditions that deadlocked at -O none while the
// builder turned them into static predicates. 1420 deadlocks at -O none
// if the not-taken side of a constant condition, (49 == 40) inside a
// loop, gets a static false predicate: the pure call with a constant
// argument on that side then fires once per activation. 1872 failed to
// compile at -O full: §5.1 memory merging installed an existing OR node
// that depended on one of the merged ops, closing a cycle.
var regressionSeeds = []int64{258, 1420, 1872, 1921}

// TestDifferentialSeeds is the deterministic slice of the fuzz target
// that runs under plain `go test`: clean equivalence on a spread of
// seeds and the regression seeds, plus the full fault battery on a few.
// Under -short (the race job) it checks seeds 1–4 and the regression
// seeds clean and seed 1 under faults.
func TestDifferentialSeeds(t *testing.T) {
	clean, faulted := int64(12), int64(3)
	if testing.Short() {
		clean, faulted = 4, 1
	}
	seeds := append([]int64{}, regressionSeeds...)
	for seed := int64(1); seed <= clean; seed++ {
		seeds = append(seeds, seed)
	}
	for _, seed := range seeds {
		src := progen.Generate(progen.DefaultConfig(seed))
		if err := Check(src, 0); err != nil {
			t.Fatalf("seed %d: %v\nsource:\n%s", seed, err, src)
		}
	}
	for seed := int64(1); seed <= faulted; seed++ {
		src := progen.Generate(progen.DefaultConfig(seed))
		rep, err := CheckFaults(src, seed, 0)
		if err != nil {
			t.Fatalf("seed %d: %v\nsource:\n%s", seed, err, src)
		}
		if rep.Absorbed == 0 {
			t.Fatalf("seed %d: fault battery absorbed nothing: %v", seed, rep)
		}
	}
}

func TestShrinkMinimizes(t *testing.T) {
	// A synthetic failure predicate: "fails" while Stmts >= 3 or
	// MaxDepth >= 2. Shrink must land on the boundary, preserving the
	// seed.
	start := progen.Config{Arrays: 3, Scalars: 3, Stmts: 8, MaxDepth: 3, Seed: 42}
	got := Shrink(start, func(c progen.Config) bool {
		return c.Stmts >= 3 || c.MaxDepth >= 2
	})
	if got.Seed != 42 {
		t.Fatalf("Shrink changed the seed: %+v", got)
	}
	// Minimal failing configs under this predicate keep exactly one of
	// the two conditions alive at its floor.
	if !(got.Stmts >= 3 || got.MaxDepth >= 2) {
		t.Fatalf("Shrink returned a passing config: %+v", got)
	}
	if got.Stmts > 3 || got.Arrays != 1 || got.Scalars != 0 {
		t.Fatalf("Shrink left slack: %+v", got)
	}
}

func TestCrasherRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := Crasher{Config: progen.DefaultConfig(7), Seed: 7, Faults: true, Reason: "checksum mismatch at O3"}
	srcPath, err := WriteCrasher(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(srcPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "int bench(void)") {
		t.Fatalf("crasher source missing entry function:\n%s", src)
	}
	got, err := ReadCrasher(filepath.Join(dir, "crasher_seed7.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, c)
	}
	// The JSON is the replay contract: it must carry the full generator
	// config so cashfuzz -replay regenerates the identical program.
	raw, _ := os.ReadFile(filepath.Join(dir, "crasher_seed7.json"))
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["config"]; !ok {
		t.Fatalf("crasher JSON missing config: %s", raw)
	}
}
