package main

import (
	"fmt"
	"runtime"
	"time"

	"spatial/internal/alias"
	"spatial/internal/build"
	"spatial/internal/cfg"
	"spatial/internal/cminor"
	"spatial/internal/codegen"
	"spatial/internal/core"
	"spatial/internal/dataflow"
	"spatial/internal/memsys"
	"spatial/internal/opt"
	"spatial/internal/pegasus"
	"spatial/internal/serve"
)

// probeTid is the Chrome-trace lane of the probe's spans, apart from the
// issuing goroutines'.
const probeTid = 100

// memReq is one recorded memory request, replayed into memsys.
type memReq struct {
	t     int64
	addr  uint32
	bytes int32
	load  bool
}

// probeResult is what the layer probe measured besides its spans.
type probeResult struct {
	samples // one operation per program probed; its latencies are unused

	coreOverhead   []float64 // µs: core.CompileSource minus its four layer calls
	buildAlloc     []float64 // KB per build.Compile
	optAlloc       []float64 // KB per opt.Optimize
	vmMallocs      []float64 // per codegen run
	interpMallocs  []float64 // per dataflow run
	events         map[string]int64
	replay         time.Duration
	replayRequests int64
	engine         serve.Stats

	// Exact counts over one pass of the workload's programs.
	nodesBuilt, nodesFinal, memOpsRemoved int64
	simEvents, opsFired                   int64
	mem                                   memsys.Stats
}

// runProbe calls every layer on each of the workload's programs, one call
// at a time from one goroutine, each inside its own span; it repeats
// passes over the programs until d has elapsed (one pass when onePass).
// Layers the workload's own operations never reach get their numbers
// here, on the workload's programs.
func runProbe(tr *tracer, progs []probeProg, d time.Duration, onePass bool) (*probeResult, error) {
	srv, err := startServer(1)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	var engine serve.Stats
	pr := &probeResult{events: make(map[string]int64)}
	streams := make([][]memReq, len(progs))
	start := time.Now()
	for pass := 0; pass == 0 || !onePass && time.Since(start) < d; pass++ {
		for i, p := range progs {
			sc := scope{tr: tr, parent: tr.newID(), round: int64(pass*len(progs) + i), tid: probeTid}
			t := sc.now()
			err := pr.program(sc, srv, p, &streams[i], pass == 0)
			tr.record(span{id: sc.parent, name: "probe", tag: p.name, start: t, end: sc.now(), round: sc.round, tid: probeTid})
			pr.add(0, 0, err)
		}
	}
	pr.engine = srv.statsDelta(&engine)
	return pr, nil
}

// program probes one program through every layer. first marks the first
// pass, which also takes the exact counts and records the memory stream.
func (pr *probeResult) program(sc scope, srv *server, p probeProg, stream *[]memReq, first bool) error {
	tag := p.name
	opts := []core.Option{core.WithLevel(p.level), core.WithBackend(p.backend), core.WithMemory(p.mem)}
	// An untimed compile first, so that the layer-by-layer compile and the
	// facade's compile below both run warm; otherwise whichever ran second
	// would look cheaper and core.overhead_us would carry the difference.
	cp, err := core.CompileSource(p.src, opts...)
	if err != nil {
		return err
	}
	t := sc.now()
	ast, err := cminor.Parse(p.src)
	dParse := sc.end("cminor.Parse", tag, t)
	if err != nil {
		return err
	}
	t = sc.now()
	err = cminor.Check(ast)
	dCheck := sc.end("cminor.Check", tag, t)
	if err != nil {
		return err
	}
	t = sc.now()
	prog, err := build.Compile(ast)
	dBuild := sc.end("build.Compile", tag, t)
	if err != nil {
		return err
	}
	t = sc.now()
	err = opt.Optimize(prog, opt.LevelOptions(p.level))
	dOpt := sc.end("opt.Optimize", tag, t)
	if err != nil {
		return err
	}
	t = sc.now()
	_, err = core.CompileSource(p.src, opts...)
	dFacade := sc.end("core.CompileSource", tag, t)
	if err != nil {
		return err
	}
	pr.coreOverhead = append(pr.coreOverhead, float64(dFacade-dParse-dCheck-dBuild-dOpt)/1e3)

	// build.Compile calls alias.Analyze and cfg.Build itself; they are
	// probed on a second AST and are not children of its span.
	ast2, err := parse(p.src)
	if err != nil {
		return err
	}
	t = sc.now()
	_, err = alias.Analyze(ast2)
	sc.end("alias.Analyze", tag, t)
	if err != nil {
		return err
	}
	for _, fn := range ast2.Funcs {
		if fn.Body == nil {
			continue
		}
		t = sc.now()
		_, err := cfg.Build(fn)
		sc.end("cfg.Build", tag, t)
		if err != nil {
			return err
		}
	}

	t = sc.now()
	mod := codegen.Compile(prog)
	sc.end("codegen.Compile", tag, t)
	t = sc.now()
	sh := dataflow.Prebuild(prog)
	sc.end("dataflow.Prebuild", tag, t)
	if first {
		if err := pr.countCompile(p); err != nil {
			return fmt.Errorf("%s: %w", tag, err)
		}
	}
	if p.compileOnly {
		return nil
	}

	var vmAllocs, interpAllocs *[]float64
	if first {
		vmAllocs, interpAllocs = &pr.vmMallocs, &pr.interpMallocs
	}
	vmRun := func() (*dataflow.Result, error) { return mod.Run(entry, nil, cp.Sim) }
	vm, err := timedRun(sc, "codegen.run", tag, vmRun, vmAllocs)
	if err != nil {
		return err
	}
	interpRun := func() (*dataflow.Result, error) { return sh.Run(entry, nil, cp.Sim) }
	interp, err := timedRun(sc, "dataflow.run", tag, interpRun, interpAllocs)
	if err != nil {
		return err
	}
	if vm.Value != p.oracle || *vm != *interp {
		return fmt.Errorf("wrong answer: %s: vm %+v, interpreter %+v, oracle %d", tag, *vm, *interp, p.oracle)
	}

	if first {
		if err := pr.countRun(p, cp, vm, stream); err != nil {
			return fmt.Errorf("%s: %w", tag, err)
		}
	}
	sys := memsys.New(memsys.PaperConfig(2))
	t = sc.now()
	for _, r := range *stream {
		sys.Submit(r.t, r.load, r.addr, int(r.bytes))
	}
	pr.replay += sc.end("memsys.replay", tag, t)
	pr.replayRequests += int64(len(*stream))

	// The service: a salted program (a cache miss), then the same body
	// again (a hit).
	body := srv.runBody(p, true)
	for i := 0; i < 2; i++ {
		rr, err := srv.post(sc, tag, body)
		if err != nil {
			return err
		}
		if rr.Value != p.oracle {
			return fmt.Errorf("wrong answer: %s: served value %d, oracle %d", tag, rr.Value, p.oracle)
		}
	}
	return nil
}

// timedRun runs the engine once untimed, so that the timed run finds its
// pools filled as every run after the first does in the workloads, then
// once inside a span. With allocs non-nil it runs once more to count that
// run's heap allocations; reading the runtime's statistics stops the
// world, so that run is not the timed one.
func timedRun(sc scope, name, tag string, run func() (*dataflow.Result, error), allocs *[]float64) (*dataflow.Result, error) {
	if _, err := run(); err != nil {
		return nil, fmt.Errorf("%s %s: %w", name, tag, err)
	}
	t := sc.now()
	res, err := run()
	sc.end(name, tag, t)
	if err == nil && allocs != nil {
		*allocs = append(*allocs, mallocs(func() { _, err = run() }))
	}
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", name, tag, err)
	}
	return res, nil
}

// countCompile takes p's exact node counts and the builder's and
// optimizer's allocations. Reading the runtime's memory statistics stops
// the world and empties the allocation caches, so it measures calls of
// its own, not the timed ones.
func (pr *probeResult) countCompile(p probeProg) error {
	ast, err := parse(p.src)
	if err != nil {
		return err
	}
	var prog *pegasus.Program
	pr.buildAlloc = append(pr.buildAlloc, allocated(func() { prog, err = build.Compile(ast) }))
	if err != nil {
		return err
	}
	built, memBuilt := graphSize(prog)
	pr.optAlloc = append(pr.optAlloc, allocated(func() { err = opt.Optimize(prog, opt.LevelOptions(p.level)) }))
	if err != nil {
		return err
	}
	final, memFinal := graphSize(prog)
	pr.nodesBuilt += int64(built)
	pr.nodesFinal += int64(final)
	pr.memOpsRemoved += int64(memBuilt - memFinal)
	return nil
}

// countRun takes the exact counts of p's run res and records p's memory
// request stream, with the counts of replaying it.
func (pr *probeResult) countRun(p probeProg, cp *core.Compiled, res *dataflow.Result, stream *[]memReq) error {
	pr.events[p.name] = res.Stats.Events
	pr.simEvents += res.Stats.Events
	pr.opsFired += res.Stats.OpsFired

	_, trc, err := cp.RunTracedWith(entry, nil, cp.Sim, core.TraceConfig{MaxFirings: 1})
	if err != nil {
		return err
	}
	reqs := make([]memReq, len(trc.Mem))
	sys := memsys.New(memsys.PaperConfig(2))
	for i, e := range trc.Mem {
		reqs[i] = memReq{t: e.Start, addr: e.Addr, bytes: int32(e.Bytes), load: e.Load}
		sys.Submit(e.Start, e.Load, e.Addr, e.Bytes)
	}
	*stream = reqs
	m := sys.Stats()
	pr.mem.Loads += m.Loads
	pr.mem.Stores += m.Stores
	pr.mem.L1Hits += m.L1Hits
	pr.mem.L1Misses += m.L1Misses
	pr.mem.TLBMisses += m.TLBMisses
	pr.mem.StallCycles += m.StallCycles
	return nil
}

func parse(src string) (*cminor.Program, error) {
	ast, err := cminor.Parse(src)
	if err != nil {
		return nil, err
	}
	return ast, cminor.Check(ast)
}

// graphSize counts live nodes and live memory operations.
func graphSize(p *pegasus.Program) (nodes, memOps int) {
	for _, g := range p.Funcs {
		nodes += g.NumLive()
		l, s := g.CountMemOps()
		memOps += l + s
	}
	return nodes, memOps
}

// allocated runs f and returns the KB it allocated. Only the probe's
// goroutine issues work while it runs.
func allocated(f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
}

// mallocs runs f and returns the number of heap allocations it made.
func mallocs(f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs)
}

// layerMetrics turns the traced pass into the per-layer metrics:
// self-time medians per span name, per-event run costs, the probe's
// allocations and exact counts, and the service counters in eng.
func layerMetrics(tr *tracer, pr *probeResult, eng serve.Stats) []metric {
	self := selfTimes(tr.spans)
	selfUS := make(map[string][]float64)
	runNS := map[string]map[string][]float64{"codegen.run": {}, "dataflow.run": {}}
	for _, s := range tr.spans {
		selfUS[s.name] = append(selfUS[s.name], float64(self[s.id])/1e3)
		if byTag, ok := runNS[s.name]; ok {
			byTag[s.tag] = append(byTag[s.tag], float64(s.end-s.start))
		}
	}
	p50 := func(name, spanName string) metric { return pctMetric(name, "us", selfUS[spanName], 50) }
	perEvent := func(name, spanName string) metric {
		var xs []float64
		for tag, ds := range runNS[spanName] {
			if ev := pr.events[tag]; ev > 0 {
				xs = append(xs, median(ds)/float64(ev))
			}
		}
		return metric{name: name, unit: "ns/event", value: geomean(xs), n: len(xs)}
	}
	mean := func(name, unit string, xs []float64) metric {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return metric{name: name, unit: unit, value: s / float64(len(xs)), n: len(xs)}
	}
	exact := func(name, unit string, v float64) metric { return metric{name: name, unit: unit, value: v} }
	l1 := float64(pr.mem.L1Hits) / float64(pr.mem.L1Hits+pr.mem.L1Misses)
	return []metric{
		p50("cminor.parse_us.p50", "cminor.Parse"),
		p50("cminor.check_us.p50", "cminor.Check"),
		p50("cfg.build_us.p50", "cfg.Build"),
		p50("alias.analyze_us.p50", "alias.Analyze"),
		p50("build.compile_us.p50", "build.Compile"),
		p50("opt.optimize_us.p50", "opt.Optimize"),
		p50("codegen.lower_us.p50", "codegen.Compile"),
		p50("dataflow.prebuild_us.p50", "dataflow.Prebuild"),
		pctMetric("core.overhead_us.p50", "us", pr.coreOverhead, 50),
		mean("build.alloc_kb", "KB", pr.buildAlloc),
		mean("opt.alloc_kb", "KB", pr.optAlloc),
		exact("pegasus.nodes_built", "count", float64(pr.nodesBuilt)),
		exact("pegasus.nodes_final", "count", float64(pr.nodesFinal)),
		exact("opt.mem_ops_removed", "count", float64(pr.memOpsRemoved)),
		perEvent("codegen.run_ns_per_event", "codegen.run"),
		perEvent("dataflow.run_ns_per_event", "dataflow.run"),
		mean("codegen.allocs_per_run", "allocs", pr.vmMallocs),
		mean("dataflow.allocs_per_run", "allocs", pr.interpMallocs),
		exact("sim.events", "count", float64(pr.simEvents)),
		exact("sim.ops_fired", "count", float64(pr.opsFired)),
		{name: "memsys.submit_ns", unit: "ns", value: float64(pr.replay) / float64(pr.replayRequests), n: int(pr.replayRequests)},
		exact("memsys.requests", "count", float64(pr.mem.Loads+pr.mem.Stores)),
		exact("memsys.l1_hit_ratio", "ratio", l1),
		exact("memsys.stall_cycles", "cycles", float64(pr.mem.StallCycles)),
		exact("memsys.tlb_misses", "count", float64(pr.mem.TLBMisses)),
		p50("http.overhead_us.p50", "http.request"),
		p50("serve.queue_wait_us.p50", "serve.queue"),
		p50("serve.exec_hit_us.p50", "serve.exec.hit"),
		p50("serve.exec_miss_us.p50", "serve.exec.miss"),
		exact("serve.cache_hit_ratio", "ratio", eng.HitRate()),
		exact("serve.cache_evictions", "count", float64(eng.CacheEvictions)),
		exact("serve.shed", "count", float64(eng.Rejected)),
		exact("serve.canceled", "count", float64(eng.Canceled)),
	}
}
