// Command experiments regenerates the paper's tables and figures from
// the workload suite. Each experiment prints the corresponding table; see
// EXPERIMENTS.md for the recorded paper-vs-measured comparison.
//
// Usage:
//
//	experiments [-exp section2|table1|table2|fig18|fig19|ablation|spatial|irsize|area|all]
//	            [-bench name[,name...]] [-quick] [-cpuprofile FILE]
//
// -cpuprofile writes a runtime/pprof CPU profile of the experiment to
// FILE (read it with go tool pprof). Any other -exp name, including the
// retired bench, serve, load and chaos, is an error that lists the
// valid ones.
//
// Simulator and service throughput and latency are measured by the
// benchmark in bench/ (see bench/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"slices"
	"strings"

	"spatial/internal/core"
	"spatial/internal/harness"
	"spatial/internal/memsys"
	"spatial/internal/opt"
	"spatial/internal/workloads"
)

// paperExps are the paper's tables and figures, in the order -exp all
// prints them. Each runs on the workloads -bench selects; only fig19
// reads -quick.
var paperExps = []struct {
	name string
	run  func(ws []*workloads.Workload, quick bool) error
}{
	{"section2", func([]*workloads.Workload, bool) error { return section2() }},
	{"table1", func([]*workloads.Workload, bool) error {
		rows, err := harness.Table1("")
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatTable1(rows))
		pkgs, err := harness.PackageLOC("")
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(harness.FormatPackageLOC(pkgs))
		return nil
	}},
	{"table2", func(ws []*workloads.Workload, _ bool) error {
		rows, err := harness.Table2(ws)
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatTable2(rows))
		return nil
	}},
	{"fig18", func(ws []*workloads.Workload, _ bool) error {
		rows, err := harness.Fig18(ws)
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatFig18(rows))
		return nil
	}},
	{"fig19", func(ws []*workloads.Workload, quick bool) error {
		levels := []opt.Level{opt.None, opt.Medium, opt.Full}
		mems := harness.MemSystems()
		if quick {
			mems = []memsys.Config{memsys.PerfectConfig(), memsys.PaperConfig(2)}
		}
		rows, err := harness.Fig19(ws, levels, mems)
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatFig19(rows))
		return nil
	}},
	{"ablation", func(ws []*workloads.Workload, _ bool) error {
		rows, err := harness.Ablation(ws)
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatAblation(rows))
		n, err := harness.DecouplingApplicability(workloads.All())
		if err != nil {
			return err
		}
		fmt.Printf("loop decoupling applicable: %d loops across the suite\n", n)
		return nil
	}},
	{"spatial", func(ws []*workloads.Workload, _ bool) error {
		rows, err := harness.SpatialVsSeq(ws, opt.Full)
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatSpatial(rows, opt.Full))
		return nil
	}},
	{"irsize", func(ws []*workloads.Workload, _ bool) error {
		rows, err := harness.IRSize(ws)
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatIRSize(rows))
		return nil
	}},
	{"area", func(ws []*workloads.Workload, _ bool) error {
		rows, err := harness.Area(ws)
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatArea(rows))
		return nil
	}},
}

// expNames lists every valid -exp value: the paper experiments and all.
func expNames() []string {
	var names []string
	for _, e := range paperExps {
		names = append(names, e.name)
	}
	return append(names, "all")
}

func main() {
	exp := flag.String("exp", "all", "experiment: "+strings.Join(expNames(), ", "))
	bench := flag.String("bench", "", "restrict to a comma-separated benchmark list")
	quick := flag.Bool("quick", false, "use a reduced sweep for fig19")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
	flag.Parse()
	if !slices.Contains(expNames(), *exp) {
		fatal(fmt.Errorf("unknown experiment %q (want one of: %s)", *exp, strings.Join(expNames(), ", ")))
	}
	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		stopProfile = stop
		defer stop()
	}

	ws := workloads.All()
	if *bench != "" {
		ws = nil
		for _, name := range strings.Split(*bench, ",") {
			w := workloads.ByName(name)
			if w == nil {
				fatal(fmt.Errorf("unknown benchmark %q", name))
			}
			ws = append(ws, w)
		}
	}

	for _, e := range paperExps {
		if *exp != "all" && *exp != e.name {
			continue
		}
		if err := e.run(ws, *quick); err != nil {
			fatal(fmt.Errorf("%s: %w", e.name, err))
		}
		fmt.Println()
	}
}

// section2 reproduces the paper's opening comparison: the number of
// memory operations left in the motivating example by a naive compilation
// versus CASH's optimizations.
func section2() error {
	const src = `
void f(unsigned *p, unsigned a[], int i) {
  if (p) a[i] += *p;
  else a[i] = 1;
  a[i] <<= a[i+1];
}`
	fmt.Println("Section 2: memory operations in the motivating example")
	fmt.Println("  void f(unsigned*p, unsigned a[], int i)")
	for _, lv := range []opt.Level{opt.None, opt.Full} {
		cp, err := core.CompileSource(src, core.WithLevel(lv))
		if err != nil {
			return err
		}
		loads, stores := cp.StaticMemOps()
		label := "naive (like the 5 compilers that keep the temp)"
		if lv == opt.Full {
			label = "CASH (removes two stores and one load)"
		}
		fmt.Printf("  %-48s loads=%d stores=%d\n", label, loads, stores)
	}
	return nil
}

// stopProfile ends -cpuprofile; fatal calls it because os.Exit skips
// deferred calls.
var stopProfile = func() {}

// startCPUProfile profiles the rest of the command into path and
// returns the function that stops the profile and closes the file.
func startCPUProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: -cpuprofile:", err)
		}
	}, nil
}

func fatal(err error) {
	stopProfile()
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
