// Command spatialsim compiles a cMinor program and executes a function on
// the self-timed dataflow simulator, printing the result and execution
// statistics. It can also run the sequential interpreter baseline for
// comparison, bound the run by a wall-clock timeout, and inject faults to
// probe the circuit's robustness.
//
// Usage:
//
//	spatialsim [-O level] [-entry name] [-mem perfect|real1|real2|real4]
//	           [-backend interp|compiled] [-seq]
//	           [-profile] [-topk n] [-trace out.json]
//	           [-timeout d] [-jitter seed] [-drop n] [-droptok n] [-memfail n]
//	           [-cpuprofile file]
//	           file.c [args...]
//
// -backend selects the execution engine: the event-driven interpreter
// (the default) or the compiled flat-bytecode VM, which produces
// bit-identical results several times faster. Traced, profiled and
// faulted runs (-trace, -profile, -jitter, -drop, -droptok, -memfail)
// interpret whatever the backend.
//
// -trace records the full event stream, writes a Chrome trace-event file
// (loadable in about://tracing or Perfetto), and prints the trace summary
// and dynamic critical path.
//
// -cpuprofile writes a runtime/pprof CPU profile of the compile and the
// run to the given file (read it with go tool pprof). Throughput is
// measured by the benchmark in bench/, not here.
//
// Exit codes distinguish the failure class so scripts can triage without
// parsing messages:
//
//	0  success
//	1  other error (I/O, internal)
//	2  usage
//	3  compile error
//	4  deadlock (the stuck report is printed to stderr)
//	5  livelock (cycle budget exceeded)
//	6  detected fault (corrupted memory response)
//	7  wall-clock timeout
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"

	"spatial/internal/core"
	"spatial/internal/dataflow"
	"spatial/internal/memsys"
	"spatial/internal/opt"
)

func main() {
	level := flag.String("O", "full", "optimization level: none, basic, medium, full")
	entry := flag.String("entry", "main", "entry function")
	mem := flag.String("mem", "perfect", "memory system: perfect, real1, real2, real4")
	backend := flag.String("backend", "interp", "execution engine: interp or compiled (bit-identical); traced, profiled and faulted runs interpret")
	seq := flag.Bool("seq", false, "also run the sequential baseline")
	profile := flag.Bool("profile", false, "print per-operator firing profile")
	topK := flag.Int("topk", 10, "entries in profile and critical-path reports")
	traceOut := flag.String("trace", "", "trace the run and write Chrome trace JSON to this file")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the run (0 = unbounded)")
	jitter := flag.Int64("jitter", 0, "inject seeded random edge/memory delays (must be absorbed)")
	drop := flag.Int("drop", 0, "drop the n-th value delivery (expect a diagnosed deadlock)")
	dropTok := flag.Int("droptok", 0, "drop the n-th token delivery (expect a diagnosed deadlock)")
	memFail := flag.Int("memfail", 0, "corrupt the n-th memory response (expect a detected fault)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the compile and run to this file")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: spatialsim [flags] file.c [args...]")
		flag.Usage()
		os.Exit(2)
	}
	lv, err := opt.ParseLevel(*level)
	if err != nil {
		fatal(err)
	}
	mcfg, err := memsys.Named(*mem)
	if err != nil {
		fatal(err)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	var args []int64
	for _, a := range flag.Args()[1:] {
		v, err := strconv.ParseInt(a, 0, 64)
		if err != nil {
			fatal(fmt.Errorf("bad argument %q: %v", a, err))
		}
		args = append(args, v)
	}
	inj, err := buildInjector(*jitter, *drop, *dropTok, *memFail)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spatialsim:", err)
		os.Exit(2)
	}
	be, err := core.ParseBackend(*backend)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spatialsim:", err)
		os.Exit(2)
	}
	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		stopProfile = stop
		defer stop()
	}
	cfg := core.DefaultSim()
	cfg.Mem = mcfg
	cp, err := core.CompileSource(string(src), core.WithLevel(lv),
		core.WithSim(cfg), core.WithDeadline(*timeout), core.WithBackend(be))
	if err != nil {
		fatal(err)
	}
	var res *core.SimResult
	switch {
	case *traceOut != "":
		var tr *core.Trace
		res, tr, err = cp.RunTraced(context.Background(), *entry, args)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := tr.WriteChrome(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		defer func() {
			fmt.Print(tr.Summary())
			if crit := tr.CriticalPath(); crit != nil {
				fmt.Print(crit.Format(*topK))
			}
			fmt.Printf("wrote %s\n", *traceOut)
		}()
	case *profile:
		var prof *core.Profile
		res, prof, err = cp.RunProfiled(*entry, args)
		if err != nil {
			fatal(err)
		}
		defer fmt.Print(prof.Format(*topK))
	case inj != nil:
		res, err = cp.RunFaulted(nil, *entry, args, inj)
		if err != nil {
			for _, t := range inj.Triggered() {
				fmt.Fprintln(os.Stderr, "injected:", t)
			}
			fatal(err)
		}
		fmt.Printf("faults absorbed: %d injected, result unchanged below\n", len(inj.Triggered()))
	default:
		res, err = cp.Run(*entry, args)
		if err != nil {
			fatal(err)
		}
	}
	fmt.Printf("result:    %d\n", res.Value)
	fmt.Printf("cycles:    %d\n", res.Stats.Cycles)
	fmt.Printf("events:    %d\n", res.Stats.Events)
	fmt.Printf("ops fired: %d\n", res.Stats.OpsFired)
	fmt.Printf("loads:     %d (+%d squashed)\n", res.Stats.DynLoads, res.Stats.NullMem)
	fmt.Printf("stores:    %d\n", res.Stats.DynStores)
	fmt.Printf("calls:     %d\n", res.Stats.Calls)
	m := res.Stats.Mem
	fmt.Printf("memory:    L1 %d/%d hits, L2 %d hits, TLB misses %d\n",
		m.L1Hits, m.L1Hits+m.L1Misses, m.L2Hits, m.TLBMisses)
	if *seq {
		sres, err := cp.RunSequential(*entry, args)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("sequential: result %d, cycles %d (spatial speedup %.2fx)\n",
			sres.Value, sres.SeqCycles, float64(sres.SeqCycles)/float64(res.Stats.Cycles))
		if sres.Value != res.Value {
			fatal(fmt.Errorf("MISMATCH: spatial %d vs sequential %d", res.Value, sres.Value))
		}
	}
}

// buildInjector assembles the fault injector the flags describe, or nil
// when no fault flag is set.
func buildInjector(jitter int64, drop, dropTok, memFail int) (*core.FaultInjector, error) {
	var plan core.FaultPlan
	if drop > 0 {
		plan.Faults = append(plan.Faults, core.Fault{Op: core.FaultDrop, Node: -1, Edge: -1, Nth: drop})
	}
	if dropTok > 0 {
		plan.Faults = append(plan.Faults, core.Fault{Op: core.FaultDrop, Node: -1, Edge: -1, Token: true, Nth: dropTok})
	}
	if memFail > 0 {
		plan.Faults = append(plan.Faults, core.Fault{Op: core.FaultMemFail, Node: -1, Edge: -1, Nth: memFail})
	}
	if jitter != 0 {
		if len(plan.Faults) > 0 {
			return nil, errors.New("-jitter cannot be combined with planned faults (-drop/-droptok/-memfail)")
		}
		return core.NewJitterInjector(jitter, 0.05, 8), nil
	}
	if len(plan.Faults) == 0 {
		return nil, nil
	}
	return core.NewInjector(plan), nil
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
			fmt.Fprintln(os.Stderr, "spatialsim: -cpuprofile:", err)
		}
	}, nil
}

// fatal prints the error and exits with a code identifying its class.
func fatal(err error) {
	stopProfile()
	fmt.Fprintln(os.Stderr, "spatialsim:", err)
	os.Exit(exitCode(err))
}

func exitCode(err error) int {
	var de *core.DeadlockError
	var le *core.LivelockError
	switch {
	case errors.As(err, &de):
		return 4
	case errors.As(err, &le):
		return 5
	case errors.Is(err, dataflow.ErrMemFault):
		return 6
	case errors.Is(err, dataflow.ErrCanceled):
		return 7
	case errors.Is(err, core.ErrCompile):
		return 3
	default:
		return 1
	}
}
