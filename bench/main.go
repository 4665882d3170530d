// Command bench is the repository benchmark. It drives the compiler, both
// simulation engines, the memory system and the cashd service through
// their public Go functions, checks every output against a reference
// computed during set-up, and prints end-to-end metrics (untraced pass)
// or per-layer metrics (traced pass). The last line of standard output
// is one JSON object per workload run. See README.md for the workloads,
// the metrics and their bounds.
//
//	bash bench/run.sh --workload sim-vm --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -compare results/a results/b
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
	// workers is how many goroutines, and HTTP connections, send the
	// service workloads' requests: runtime.NumCPU(), so no more issue
	// work than there are CPUs. Tests set it lower. The closed loops
	// always issue from one goroutine.
	workers int
	// ops, when positive, ends each loop after that many operations
	// instead of after seconds; tests use it for fixed tiny runs.
	ops int
}

func (o options) dur() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs the selected workloads and returns the exit code:
// 0 when every operation succeeded with a correct output, 1 when any
// operation failed (a wrong answer or an error) or a set-up failed, 2 on
// bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{workers: runtime.NumCPU()}
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed for generated programs, run order and request order")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per workload")
	traceLevel := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1, write the recorded spans to this file as Chrome trace-event JSON")
	compare := fs.Bool("compare", false, "compare two result directories written by collect.sh against the bounds in BENCHMARK.json: -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result directories")
			return 2
		}
		agree, err := compareSets(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if !agree {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	switch *traceLevel {
	case 0:
	case 1:
		o.trace = true
	default:
		fmt.Fprintf(stderr, "bench: -trace %d: want 0 or 1\n", *traceLevel)
		return 2
	}
	ws, err := o.check()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return runAll(ws, o, stdout, stderr)
}

// runAll runs and reports each workload in turn and returns the exit
// code: 1 when a set-up or any operation failed, else 0.
func runAll(ws []workload, o options, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range ws {
		res, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		report(stdout, w.name, o, res)
		if res.firstErr != nil {
			fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed; first: %v\n", w.name, res.failed, res.attempted, res.firstErr)
		}
		if !res.correct {
			code = 1
		}
	}
	return code
}

// check validates the options and returns the workloads they select.
func (o options) check() ([]workload, error) {
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds %g: want > 0", o.seconds)
	}
	if o.spans != "" && !o.trace {
		return nil, fmt.Errorf("-spans needs -trace 1")
	}
	if o.workload == "all" {
		return allWorkloads, nil
	}
	for _, w := range allWorkloads {
		if w.name == o.workload {
			return []workload{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", o.workload, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string {
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return names
}

// report prints the run's settings, every metric with its unit and
// sample count, any validity flags, and finally the result as one JSON
// line.
func report(w io.Writer, name string, o options, res *result) {
	fmt.Fprintf(w, "== %s seed=%d seconds=%g trace=%t closed-loop-issuers=1 service-connections=%d gomaxprocs=%d numcpu=%d go=%s\n",
		name, o.seed, o.seconds, o.trace, o.workers, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	for _, m := range res.list {
		val := "missing"
		if m.valid() {
			val = fmt.Sprintf("%.6g", m.value)
		}
		samples := "exact"
		if m.n > 0 {
			samples = fmt.Sprintf("n=%d", m.n)
		}
		fmt.Fprintf(w, "  %-28s %14s %-9s %s\n", m.name, val, m.unit, samples)
	}
	for _, note := range res.notes {
		fmt.Fprintf(w, "  %s\n", note)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%t\n", res.attempted, res.failed, res.correct)
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // metric values are finite or null by construction
	}
	fmt.Fprintf(w, "%s\n", b)
}
