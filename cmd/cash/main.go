// Command cash is the compiler driver: it compiles a cMinor source file
// to Pegasus dataflow graphs and prints them (text or Graphviz), along
// with static statistics.
//
// Usage:
//
//	cash [-O none|basic|medium|full] [-dot] [-func name] [-stats] file.c
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"spatial/internal/core"
	"spatial/internal/hw"
	"spatial/internal/opt"
)

func main() {
	level := flag.String("O", "full", "optimization level: none, basic, medium, full")
	dot := flag.Bool("dot", false, "emit Graphviz instead of text")
	fn := flag.String("func", "", "print only this function")
	stats := flag.Bool("stats", false, "print static statistics only")
	area := flag.Bool("area", false, "print the hardware cost estimate")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cash [flags] file.c")
		flag.Usage()
		os.Exit(2)
	}
	lv, err := opt.ParseLevel(*level)
	if err != nil {
		fatal(err)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	cp, err := core.CompileSource(string(src), core.WithLevel(lv))
	if err != nil {
		fatal(err)
	}
	if *area {
		fmt.Print(hw.Format(hw.EstimateProgram(cp.Program)))
		return
	}
	if *stats {
		loads, stores := cp.StaticMemOps()
		nodes := 0
		for _, g := range cp.Program.Funcs {
			nodes += g.NumLive()
		}
		fmt.Printf("functions: %d\nnodes: %d\nloads: %d\nstores: %d\n",
			len(cp.Program.Funcs), nodes, loads, stores)
		return
	}
	names := []string{}
	for name := range cp.Program.Funcs {
		if *fn == "" || *fn == name {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("no function %q", *fn))
	}
	sort.Strings(names)
	for _, name := range names {
		var out string
		var err error
		if *dot {
			out, err = cp.Dot(name)
		} else {
			out, err = cp.Dump(name)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cash:", err)
	os.Exit(1)
}
