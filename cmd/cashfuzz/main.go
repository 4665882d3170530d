// Command cashfuzz is the differential fuzzing driver: it generates
// random cMinor programs, runs each on the dataflow simulator at every
// optimization level — clean and, with -faults, under a battery of
// injected faults — and checks every result against the sequential
// interpreter oracle.
//
// Usage:
//
//	cashfuzz [-n 200] [-seed 1] [-faults] [-maxcycles n]
//	         [-out testdata/crashers] [-v]
//	cashfuzz -replay crasher_seed7.json
//
// On a failure it greedily shrinks the generator configuration to a
// minimal reproducer and writes the source plus a JSON replay record
// (config, seed, fault flag, reason) into -out, then exits 1. A clean
// sweep prints a summary and exits 0.
package main

import (
	"flag"
	"fmt"
	"os"

	"spatial/internal/difftest"
	"spatial/internal/progen"
)

func main() {
	n := flag.Int("n", 200, "number of programs to generate")
	seed := flag.Int64("seed", 1, "first generator seed (programs use seed..seed+n-1)")
	faults := flag.Bool("faults", false, "also replay each program under the injected-fault battery")
	maxCycles := flag.Int64("maxcycles", 0, "cycle budget per run (0 = default)")
	out := flag.String("out", "testdata/crashers", "directory for shrunk reproducers")
	replay := flag.String("replay", "", "replay a crasher JSON instead of fuzzing")
	verbose := flag.Bool("v", false, "print each seed as it is checked")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: cashfuzz [flags]")
		flag.Usage()
		os.Exit(2)
	}

	if *replay != "" {
		os.Exit(replayCrasher(*replay, *maxCycles))
	}

	var absorbed, detected int
	for i := 0; i < *n; i++ {
		s := *seed + int64(i)
		cfg := progen.DefaultConfig(s)
		if *verbose {
			fmt.Printf("seed %d...\n", s)
		}
		reason := checkOne(cfg, *faults, *maxCycles, &absorbed, &detected)
		if reason == "" {
			continue
		}
		fmt.Fprintf(os.Stderr, "FAIL seed %d: %s\n", s, reason)
		min := difftest.Shrink(cfg, func(c progen.Config) bool {
			return difftest.Failing(c, *faults, *maxCycles)
		})
		path, err := difftest.WriteCrasher(*out, difftest.Crasher{
			Config: min, Seed: s, Faults: *faults, Reason: reason,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cashfuzz: writing reproducer: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "reproducer written to %s (shrunk to %+v)\n", path, min)
		}
		os.Exit(1)
	}
	fmt.Printf("cashfuzz: %d programs x %d levels clean", *n, len(difftest.Levels))
	if *faults {
		fmt.Printf("; fault battery: %d absorbed, %d detected", absorbed, detected)
	}
	fmt.Println()
}

// checkOne runs the differential checks for one config and returns a
// failure reason, or "" on success.
func checkOne(cfg progen.Config, faults bool, maxCycles int64, absorbed, detected *int) string {
	src := progen.Generate(cfg)
	b, err := difftest.Check(src, maxCycles)
	if err != nil {
		return err.Error()
	}
	if faults {
		rep, err := difftest.CheckFaults(src, b, cfg.Seed)
		*absorbed += rep.Absorbed
		*detected += rep.Detected
		if err != nil {
			return err.Error()
		}
	}
	return ""
}

// replayCrasher re-runs a written reproducer and reports whether it still
// fails.
func replayCrasher(path string, maxCycles int64) int {
	c, err := difftest.ReadCrasher(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cashfuzz: %v\n", err)
		return 2
	}
	fmt.Printf("replaying %s: config %+v\n", path, c.Config)
	if c.Reason != "" {
		fmt.Printf("original failure: %s\n", c.Reason)
	}
	var absorbed, detected int
	if reason := checkOne(c.Config, c.Faults, maxCycles, &absorbed, &detected); reason != "" {
		fmt.Fprintf(os.Stderr, "still failing: %s\n", reason)
		return 1
	}
	fmt.Println("no longer failing")
	return 0
}
