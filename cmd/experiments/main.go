// Command experiments regenerates the paper's tables and figures from
// the workload suite. Each experiment prints the corresponding table; see
// EXPERIMENTS.md for the recorded paper-vs-measured comparison.
//
// Usage:
//
//	experiments [-exp table1|table2|fig18|fig19|ablation|spatial|section2|all]
//	            [-bench name[,name...]] [-quick]
//	experiments -exp bench [-bench name[,name...]] [-benchtime 200ms]
//	            [-benchout BENCH.json] [-allocbudget 0.01]
//	experiments -exp serve [-bench name[,name...]] [-benchtime 200ms]
//	experiments -exp load [-url http://host:port] [-rates 25,50,100,200,400]
//	            [-loaddur 2s] [-short] [-benchout BENCH.json]
//	experiments -exp chaos [-seed 1] [-short] [-benchout BENCH.json]
//
// Every form takes -cpuprofile FILE, which writes a runtime/pprof CPU
// profile of the experiment to FILE (read it with go tool pprof).
//
// -exp load drives a cashd daemon with an open-loop generator and
// records the offered load vs latency/shed curve (EXPERIMENTS.md
// documents the protocol). With no -url it starts an in-process daemon
// on loopback. -short is the CI smoke variant: one modest rate for ten
// seconds, failing on any non-2xx response or any shed request.
// -benchout merges the curve into the existing BENCH.json report.
//
// -exp chaos drives an in-process multi-peer cashd cluster through the
// deterministic fault schedules of internal/netchaos (peer kill,
// connection resets, corrupted and truncated responses, flaky 5xx,
// delays, a black hole) and fails unless every request either succeeds
// bit-identically to the fault-free reference or fails with a typed
// error — no hangs, no silent wrong answers. -short is the CI smoke
// variant (fewer requests, the three sharpest schedules). -benchout
// merges the availability/latency-under-faults rows into BENCH.json.
//
// -exp serve measures the batch simulation service: the worker scaling
// curve (runs/sec and per-stream ns/event at 1/2/4/8 workers, with
// per-stream determinism verified against the serial run) and the
// compile cache (hit rate and throughput for a request mix that repeats
// each program many times).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"spatial/api"
	"spatial/internal/cashd"
	"spatial/internal/core"
	"spatial/internal/harness"
	"spatial/internal/memsys"
	"spatial/internal/opt"
	"spatial/internal/serve"
	"spatial/internal/workloads"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1, table2, fig18, fig19, ablation, spatial, irsize, area, section2, bench, serve, load, chaos, all")
	bench := flag.String("bench", "", "restrict to a comma-separated benchmark list")
	quick := flag.Bool("quick", false, "use a reduced sweep for fig19")
	benchTime := flag.Duration("benchtime", 200*time.Millisecond, "minimum timed duration per (workload, level) for -exp bench")
	benchOut := flag.String("benchout", "", "merge the -exp bench/load/chaos rows into this JSON report")
	allocBudget := flag.Float64("allocbudget", -1, "fail -exp bench if any allocs/event exceeds this (negative disables)")
	backend := flag.String("backend", "both", "-exp bench: engines to measure: both, interp, compiled")
	loadURL := flag.String("url", "", "-exp load: target daemon base URL (empty starts one in-process)")
	loadRates := flag.String("rates", "", "-exp load: comma-separated offered rates in req/s")
	loadDur := flag.Duration("loaddur", 2*time.Second, "-exp load: duration per offered rate")
	short := flag.Bool("short", false, "-exp load/chaos: CI smoke variant")
	seed := flag.Int64("seed", 1, "-exp chaos: jitter seed")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
	flag.Parse()
	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		stopProfile = stop
		defer stop()
	}

	ws := workloads.All()
	var benchNames []string
	if *bench != "" {
		for _, name := range strings.Split(*bench, ",") {
			if workloads.ByName(name) == nil {
				fatal(fmt.Errorf("unknown benchmark %q", name))
			}
			benchNames = append(benchNames, name)
		}
		ws = nil
		for _, name := range benchNames {
			ws = append(ws, workloads.ByName(name))
		}
	}

	// The throughput baseline is explicitly requested, never part of
	// "all": it is a perf measurement, not a paper table, and it wants a
	// quiet machine.
	if *exp == "bench" {
		backends, err := benchBackends(*backend)
		if err != nil {
			fatal(err)
		}
		if err := runBench(benchNames, *benchTime, *benchOut, *allocBudget, backends); err != nil {
			fatal(err)
		}
		return
	}
	if *exp == "serve" {
		if err := runServe(benchNames, *benchTime); err != nil {
			fatal(err)
		}
		return
	}
	if *exp == "load" {
		if err := runLoad(*loadURL, *loadRates, *loadDur, *short, *benchOut); err != nil {
			fatal(err)
		}
		return
	}
	if *exp == "chaos" {
		if err := runChaos(*seed, *short, *benchOut); err != nil {
			fatal(err)
		}
		return
	}

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := f(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Println()
	}

	run("section2", func() error { return section2() })
	run("table1", func() error {
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
	})
	run("table2", func() error {
		rows, err := harness.Table2(ws)
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatTable2(rows))
		return nil
	})
	run("fig18", func() error {
		rows, err := harness.Fig18(ws)
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatFig18(rows))
		return nil
	})
	run("fig19", func() error {
		levels := []opt.Level{opt.None, opt.Medium, opt.Full}
		mems := harness.MemSystems()
		if *quick {
			mems = []memsys.Config{memsys.PerfectConfig(), memsys.PaperConfig(2)}
		}
		rows, err := harness.Fig19(ws, levels, mems)
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatFig19(rows))
		return nil
	})
	run("ablation", func() error {
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
	})
	run("spatial", func() error {
		rows, err := harness.SpatialVsSeq(ws, opt.Full)
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatSpatial(rows, opt.Full))
		return nil
	})
	run("irsize", func() error {
		rows, err := harness.IRSize(ws)
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatIRSize(rows))
		return nil
	})
	run("area", func() error {
		rows, err := harness.Area(ws)
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatArea(rows))
		return nil
	})
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

// benchBackends maps the -backend flag onto the harness backend names.
func benchBackends(flagVal string) ([]string, error) {
	switch flagVal {
	case "", "both":
		return nil, nil // harness default: interp then codegen
	case "interp":
		return []string{harness.BackendInterp}, nil
	case "compiled":
		return []string{harness.BackendCodegen}, nil
	default:
		return nil, fmt.Errorf("invalid -backend %q (want both, interp, or compiled)", flagVal)
	}
}

// runBench measures simulator throughput over the baseline workload set
// at every optimization level on the selected backends (default both,
// paired so each codegen row carries its same-run speedup), plus the
// batch-parallel scaling curve, prints the table plus
// benchstat-comparable lines, optionally merges the rows into BENCH.json,
// and enforces the allocs/event budget and — on multi-core machines
// only — the scaling assertion (the CI smoke gate). Rows measured with
// GOMAXPROCS=1 are flagged degenerate and exempt from the speedup
// check: time-slicing one core cannot scale.
func runBench(names []string, benchTime time.Duration, out string, allocBudget float64, backends []string) error {
	if len(names) == 0 {
		names = harness.BenchSet
	}
	rep, err := harness.Bench(names, benchTime, backends)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	rep.Parallel, err = harness.BenchParallel(names, harness.BenchWorkers, benchTime)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	fmt.Print(harness.FormatBench(rep))
	fmt.Println()
	fmt.Print(rep.Benchstat())
	if out != "" {
		if err := harness.MergeBenchJSON(out, rep); err != nil {
			return fmt.Errorf("bench: %w", err)
		}
		fmt.Printf("\nmerged rows into %s\n", out)
	}
	if allocBudget >= 0 {
		if worst := rep.MaxAllocsPerEvent(); worst > allocBudget {
			return fmt.Errorf("bench: allocs/event %.4f exceeds budget %.4f", worst, allocBudget)
		}
		fmt.Printf("allocs/event within budget %.4f (worst %.4f)\n", allocBudget, rep.MaxAllocsPerEvent())
	}
	return benchAssertScaling(rep)
}

// benchAssertScaling is the multi-core smoke gate: each workload's
// batch-parallel curve must clear 1.0× somewhere — best point across
// the sweep, so one noisy measurement cannot fail CI. Degenerate rows
// (measured with GOMAXPROCS=1) are reported but never asserted.
func benchAssertScaling(rep *harness.BenchReport) error {
	bestPar := map[string]float64{}
	for _, row := range rep.Parallel {
		if row.Workers > 1 && !row.Degenerate && row.Speedup > bestPar[row.Workload] {
			bestPar[row.Workload] = row.Speedup
		}
	}
	for name, best := range bestPar {
		if best <= 1.0 {
			return fmt.Errorf("bench: %s parallel speedup peaked at %.2fx on a multi-core machine", name, best)
		}
	}
	if n := len(bestPar); n > 0 {
		fmt.Printf("scaling gate: %d workload curves cleared 1.0x\n", n)
	} else if len(rep.Parallel) > 0 {
		fmt.Println("scaling gate: skipped (GOMAXPROCS=1, rows flagged degenerate)")
	}
	return nil
}

// runServe measures the batch simulation service layer end to end:
// first the worker scaling curve (shared compiled structures, every
// stream's result verified against the serial reference), then the
// compile cache's effect on a request mix that repeats each program.
func runServe(names []string, benchTime time.Duration) error {
	if len(names) == 0 {
		names = harness.BenchSet
	}
	rows, err := harness.BenchParallel(names, harness.BenchWorkers, benchTime)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	fmt.Print(harness.FormatParallel(runtime.NumCPU(), rows))

	// Cache experiment: each program appears `repeats` times in the mix;
	// a perfect cache compiles each program once and serves the rest.
	const repeats = 8
	eng, err := serve.New(serve.Config{})
	if err != nil {
		return err
	}
	defer eng.Close()
	var reqs []serve.Request
	for _, name := range names {
		w := workloads.ByName(name)
		for i := 0; i < repeats; i++ {
			reqs = append(reqs, serve.Request{
				Program: api.Program{Source: w.Source, Level: api.LevelFull},
				Entry:   w.Entry,
			})
		}
	}
	start := time.Now()
	out := eng.DoBatch(context.Background(), reqs)
	elapsed := time.Since(start)
	for i, r := range out {
		if r.Err != nil {
			return fmt.Errorf("serve: request %d (%s): %w", i, reqs[i].Entry, r.Err)
		}
	}
	// Determinism across the batch: all repeats of one program must agree.
	for i := 0; i < len(out); i += repeats {
		ref := out[i].Resp
		for j := i + 1; j < i+repeats; j++ {
			got := out[j].Resp
			if got.Value != ref.Value || got.Stats.Cycles != ref.Stats.Cycles || got.Stats.Events != ref.Stats.Events {
				return fmt.Errorf("serve: %s repeat %d diverged: (%d,%d,%d) vs (%d,%d,%d)",
					names[i/repeats], j-i, got.Value, got.Stats.Cycles, got.Stats.Events,
					ref.Value, ref.Stats.Cycles, ref.Stats.Events)
			}
		}
	}
	s := eng.Stats()
	fmt.Printf("\nCompile cache (%d requests = %d programs x %d repeats, %d workers)\n",
		len(reqs), len(names), repeats, runtime.GOMAXPROCS(0))
	fmt.Printf("  completed %d, failed %d, cache hits %d, shared flights %d, misses %d, hit rate %.1f%%\n",
		s.Completed, s.Failed, s.CacheHits, s.CacheShared, s.CacheMisses, 100*s.HitRate())
	fmt.Printf("  batch time %s (%.2f runs/sec), all repeats bit-identical\n",
		elapsed.Round(time.Millisecond), float64(len(reqs))/elapsed.Seconds())
	return nil
}

// loadMix is the request set the load generator cycles through: small
// distinct programs, so the curve measures service overhead and queueing
// (after four compile misses everything is a cache hit), not compiler
// throughput.
func loadMix() []api.RunRequest {
	var mix []api.RunRequest
	for _, n := range []int{100, 200, 400, 800} {
		src := fmt.Sprintf(`
int f(void) {
  int i; int s = 0;
  for (i = 0; i < %d; i++) s += i;
  return s;
}`, n)
		mix = append(mix, api.RunRequest{
			Program: api.Program{Source: src, Level: api.LevelFull},
			Entry:   "f",
		})
	}
	return mix
}

// runLoad drives cashd with the open-loop generator and prints (and
// optionally records) the offered-load curve. An empty url starts an
// in-process daemon on loopback — the loopback stack costs the same for
// every rate, so the curve's shape is still the service's.
func runLoad(url, ratesCSV string, dur time.Duration, short bool, out string) error {
	rates := []int{25, 50, 100, 200, 400}
	if short {
		// CI smoke: one modest rate, long enough to catch flakiness, with
		// a hard zero-tolerance gate below.
		rates = []int{20}
		dur = 10 * time.Second
	}
	if ratesCSV != "" {
		rates = nil
		for _, s := range strings.Split(ratesCSV, ",") {
			r, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return fmt.Errorf("load: bad rate %q: %w", s, err)
			}
			rates = append(rates, r)
		}
	}

	if url == "" {
		srv, err := cashd.New(cashd.Config{})
		if err != nil {
			return err
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		httpSrv := &http.Server{Handler: srv.Handler()}
		go httpSrv.Serve(ln)
		defer httpSrv.Close()
		url = "http://" + ln.Addr().String()
		fmt.Printf("started in-process cashd at %s\n", url)
	}

	rows, err := harness.LoadCurve(url, rates, dur, loadMix())
	if err != nil {
		return err
	}
	fmt.Print(harness.FormatLoad(rows))

	if out != "" {
		if err := harness.MergeBenchJSON(out, &harness.BenchReport{Load: rows}); err != nil {
			return fmt.Errorf("load: %w", err)
		}
		fmt.Printf("merged load curve into %s\n", out)
	}

	if short {
		for _, r := range rows {
			if r.Errors > 0 || r.Shed > 0 {
				return fmt.Errorf("load: smoke gate failed at %d req/s: %d errors, %d shed (want 0/0)",
					r.RateRPS, r.Errors, r.Shed)
			}
			if r.OK == 0 {
				return fmt.Errorf("load: smoke gate saw no successful requests at %d req/s", r.RateRPS)
			}
		}
		fmt.Println("smoke gate passed: all responses 2xx, nothing shed")
	}
	return nil
}

// runChaos runs the deterministic chaos battery against an in-process
// cluster and enforces the resilience gate: every request under faults
// either succeeds bit-identically or fails typed; hangs, wrong answers,
// and unclassified errors each fail the run. -short trims the battery to
// the three sharpest schedules for CI.
func runChaos(seed int64, short bool, out string) error {
	opts := harness.ChaosOptions{Seed: seed}
	if short {
		opts.Requests = 45
		opts.Schedules = []string{"peer-kill", "conn-reset", "corrupt"}
	}
	rows, err := harness.ChaosBattery(opts)
	if err != nil {
		return err
	}
	fmt.Print(harness.FormatChaos(opts, rows))

	if out != "" {
		if err := harness.MergeBenchJSON(out, &harness.BenchReport{Chaos: rows}); err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
		fmt.Printf("merged chaos rows into %s\n", out)
	}

	if err := harness.ChaosGate(rows); err != nil {
		return err
	}
	fmt.Println("chaos gate passed: no hangs, no wrong answers, no unclassified errors")
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
