// Command spatialsim compiles a cMinor program and executes a function on
// the self-timed dataflow simulator, printing the result and execution
// statistics. It can also run the sequential interpreter baseline for
// comparison, bound the run by a wall-clock timeout, and inject faults to
// probe the circuit's robustness.
//
// Usage:
//
//	spatialsim [-O level] [-entry name] [-mem perfect|real1|real2|real4]
//	           [-backend interp|compiled] [-seq] [-edgecap n]
//	           [-profile] [-topk n] [-trace out.json]
//	           [-timeout d] [-jitter seed] [-drop n] [-droptok n] [-memfail n]
//	           [-parallel n] [-repeat m]
//	           file.c [args...]
//
// -backend selects the execution engine: the event-driven interpreter
// (the default) or the compiled flat-bytecode VM, which produces
// bit-identical results several times faster. -trace and -profile hook
// the interpreter's machinery and reject -backend compiled.
//
// -repeat runs the program m times and -parallel spreads the repeats
// over n concurrent streams sharing one compilation; every repeat must
// reproduce the first run bit-identically (value, cycles, events) or
// the command fails. The aggregate throughput is printed after the
// usual statistics. These flags cannot be combined with -trace,
// -profile, -seq, or fault injection, which are single-run modes.
//
// -trace records the full event stream, writes a Chrome trace-event file
// (loadable in about://tracing or Perfetto), and prints the trace summary
// and dynamic critical path.
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
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spatial/internal/core"
	"spatial/internal/dataflow"
	"spatial/internal/memsys"
	"spatial/internal/opt"
)

func main() {
	level := flag.String("O", "full", "optimization level: none, basic, medium, full")
	entry := flag.String("entry", "main", "entry function")
	mem := flag.String("mem", "perfect", "memory system: perfect, real1, real2, real4")
	backend := flag.String("backend", "interp", "execution engine: interp or compiled (bit-identical)")
	seq := flag.Bool("seq", false, "also run the sequential baseline")
	edgeCap := flag.Int("edgecap", 1, "dataflow edge buffer depth")
	profile := flag.Bool("profile", false, "print per-operator firing profile")
	topK := flag.Int("topk", 10, "entries in profile and critical-path reports")
	traceOut := flag.String("trace", "", "trace the run and write Chrome trace JSON to this file")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the run (0 = unbounded)")
	jitter := flag.Int64("jitter", 0, "inject seeded random edge/memory delays (must be absorbed)")
	drop := flag.Int("drop", 0, "drop the n-th value delivery (expect a diagnosed deadlock)")
	dropTok := flag.Int("droptok", 0, "drop the n-th token delivery (expect a diagnosed deadlock)")
	memFail := flag.Int("memfail", 0, "corrupt the n-th memory response (expect a detected fault)")
	parallel := flag.Int("parallel", 1, "concurrent simulation streams for -repeat")
	repeat := flag.Int("repeat", 1, "total number of runs (all must be bit-identical)")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: spatialsim [flags] file.c [args...]")
		flag.Usage()
		os.Exit(2)
	}
	lv, err := parseLevel(*level)
	if err != nil {
		fatal(err)
	}
	mcfg, err := parseMem(*mem)
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
	be, err := parseBackend(*backend)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spatialsim:", err)
		os.Exit(2)
	}
	if be == core.BackendCompiled && (*traceOut != "" || *profile) {
		fmt.Fprintln(os.Stderr, "spatialsim: -trace and -profile observe the interpreter and cannot be combined with -backend compiled")
		os.Exit(2)
	}
	cfg := core.DefaultSim()
	cfg.Mem = mcfg
	cfg.EdgeCap = *edgeCap
	cp, err := core.CompileSource(string(src), core.WithLevel(lv),
		core.WithSim(cfg), core.WithDeadline(*timeout), core.WithBackend(be))
	if err != nil {
		fatal(err)
	}
	var res *core.SimResult
	switch {
	case *parallel > 1 || *repeat > 1:
		if *traceOut != "" || *profile || inj != nil || *seq {
			fmt.Fprintln(os.Stderr, "spatialsim: -parallel/-repeat cannot be combined with -trace, -profile, -seq, or fault injection")
			os.Exit(2)
		}
		if *parallel < 1 || *repeat < 1 {
			fmt.Fprintln(os.Stderr, "spatialsim: -parallel and -repeat must be >= 1")
			os.Exit(2)
		}
		res, err = runRepeated(cp, *entry, args, *parallel, *repeat)
		if err != nil {
			fatal(err)
		}
	case *traceOut != "":
		var tr *core.Trace
		res, tr, err = cp.RunTraced(*entry, args)
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

// runRepeated executes the compiled program `repeat` times across up to
// `parallel` concurrent streams sharing one compilation. The first run
// is the reference; every other run must reproduce its value, cycle
// count, and event count exactly, or the whole command fails — repeated
// execution doubles as a determinism check. Prints the aggregate
// throughput and returns the reference result.
func runRepeated(cp *core.Compiled, entry string, args []int64, parallel, repeat int) (*core.SimResult, error) {
	start := time.Now()
	ref, err := cp.Run(entry, args)
	if err != nil {
		return nil, err
	}
	remaining := repeat - 1
	if parallel > remaining {
		parallel = remaining
	}
	if parallel < 1 {
		parallel = 1
	}
	var next, bad atomic.Int64
	errc := make(chan error, parallel)
	var wg sync.WaitGroup
	for i := 0; i < parallel && remaining > 0; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := next.Add(1)
				if n > int64(remaining) || bad.Load() != 0 {
					return
				}
				res, err := cp.Run(entry, args)
				if err != nil {
					bad.Store(1)
					errc <- err
					return
				}
				if res.Value != ref.Value || res.Stats.Cycles != ref.Stats.Cycles || res.Stats.Events != ref.Stats.Events {
					bad.Store(1)
					errc <- fmt.Errorf("run %d diverged from the first: got (value %d, cycles %d, events %d), want (%d, %d, %d)",
						n+1, res.Value, res.Stats.Cycles, res.Stats.Events,
						ref.Value, ref.Stats.Cycles, ref.Stats.Events)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errc:
		return nil, err
	default:
	}
	fmt.Printf("parallel:  %d runs on %d streams in %s (%.2f runs/sec), all bit-identical\n",
		repeat, parallel, elapsed.Round(time.Millisecond), float64(repeat)/elapsed.Seconds())
	return ref, nil
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

func parseLevel(s string) (opt.Level, error) {
	switch s {
	case "none":
		return opt.None, nil
	case "basic":
		return opt.Basic, nil
	case "medium":
		return opt.Medium, nil
	case "full":
		return opt.Full, nil
	}
	return 0, fmt.Errorf("unknown optimization level %q", s)
}

func parseBackend(s string) (core.Backend, error) {
	switch s {
	case "interp":
		return core.BackendInterpreted, nil
	case "compiled":
		return core.BackendCompiled, nil
	}
	return 0, fmt.Errorf("unknown backend %q (want interp or compiled)", s)
}

func parseMem(s string) (memsys.Config, error) {
	switch s {
	case "perfect":
		return memsys.PerfectConfig(), nil
	case "real1":
		return memsys.PaperConfig(1), nil
	case "real2":
		return memsys.PaperConfig(2), nil
	case "real4":
		return memsys.PaperConfig(4), nil
	}
	return memsys.Config{}, fmt.Errorf("unknown memory system %q", s)
}

// fatal prints the error and exits with a code identifying its class.
func fatal(err error) {
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
