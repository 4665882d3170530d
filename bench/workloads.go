package main

import (
	"fmt"
	"math/rand"
	"slices"

	"spatial/internal/codegen"
	"spatial/internal/core"
	"spatial/internal/dataflow"
	"spatial/internal/memsys"
	"spatial/internal/opt"
	"spatial/internal/progen"
	"spatial/internal/workloads"
)

// entry is the function every suite and progen program runs.
const entry = "bench"

// progenPerRound is how many generated programs each compile round adds
// to the suite.
const progenPerRound = 8

// workload is one named set of inputs. setup builds its inputs and the
// references its outputs are checked against.
type workload struct {
	name  string
	setup func(o options) (*state, error)
}

// allWorkloads are the benchmark's workloads; BENCHMARK.json and
// README.md give the reason for each.
var allWorkloads = []workload{
	{"compile", setupCompile},
	{"sim-vm", func(o options) (*state, error) {
		return setupSim(o, core.BackendCompiled, memsys.PerfectConfig())
	}},
	{"sim-interp-realmem", func(o options) (*state, error) {
		return setupSim(o, core.BackendInterpreted, memsys.PaperConfig(2))
	}},
	{"serve-hit", func(o options) (*state, error) { return setupServe(o, false) }},
	{"serve-miss", func(o options) (*state, error) { return setupServe(o, true) }},
}

// state is a workload after set-up.
type state struct {
	// ops are the closed-loop operations (compile, sim-*); serve holds the
	// open-loop service instead (serve-hit, serve-miss).
	ops   []op
	next  int64 // index of the next closed-loop operation
	serve *serveState
	// progs are the workload's distinct programs, for the layer probe.
	progs []probeProg
	// simCycles is the simulated cycles of one pass over the workload's
	// reference programs: the modelled circuits' cost, exact.
	simCycles int64
}

func (st *state) loop(l loopSpec) *samples {
	if st.serve != nil {
		return st.serve.loop(l)
	}
	return closedLoop(st.ops, l, &st.next)
}

func (st *state) close() {
	if st.serve != nil {
		st.serve.close()
	}
}

// probeProg is one program as a workload compiles and runs it.
type probeProg struct {
	name    string // workload program name and level, e.g. "mesa/O3"
	src     string
	level   opt.Level
	backend core.Backend
	mem     memsys.Config
	oracle  int64
	// compileOnly marks a generated program, which is compiled but never
	// run: from one seed to the next its run takes from 30 thousand to
	// 17 million events, so running it would make set-up and the probe
	// depend on the seed.
	compileOnly bool
}

// source is a program text with its name.
type source struct{ name, src string }

func suite() []source {
	var out []source
	for _, w := range workloads.All() {
		out = append(out, source{w.Name, w.Source})
	}
	return out
}

// oracle returns the value of the program's O0 compile on the sequential
// interpreter: the reference difftest uses, independent of the optimizer
// and of both dataflow engines.
func oracle(src string) (int64, error) {
	cp, err := core.CompileSource(src, core.WithLevel(opt.None))
	if err != nil {
		return 0, err
	}
	res, err := cp.RunSequential(entry, nil)
	if err != nil {
		return 0, err
	}
	return res.Value, nil
}

// fingerprint identifies a compile's output: live nodes of each function
// in name order, then static loads and stores.
func fingerprint(cp *core.Compiled) []int {
	names := make([]string, 0, len(cp.Program.Funcs))
	for name := range cp.Program.Funcs {
		names = append(names, name)
	}
	slices.Sort(names)
	fp := make([]int, 0, len(names)+2)
	for _, name := range names {
		fp = append(fp, cp.Program.Funcs[name].NumLive())
	}
	loads, stores := cp.StaticMemOps()
	return append(fp, loads, stores)
}

func levelName(l opt.Level) string { return fmt.Sprintf("O%d", int(l)) }

// setupCompile prepares one compile round: every suite program at O0 and
// O3 and progenPerRound generated programs at O3, in a seeded order. The
// references are each program's first compile. Each suite compile is
// also run once on the VM and must return the oracle's value.
func setupCompile(o options) (*state, error) {
	st := &state{}
	add := func(p probeProg) (*core.Compiled, error) {
		cp, err := core.CompileSource(p.src, core.WithLevel(p.level), core.WithBackend(p.backend))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		st.progs = append(st.progs, p)
		st.ops = append(st.ops, compileOp(p, fingerprint(cp)))
		return cp, nil
	}
	for _, s := range suite() {
		want, err := oracle(s.src)
		if err != nil {
			return nil, fmt.Errorf("%s: oracle: %w", s.name, err)
		}
		for _, level := range []opt.Level{opt.None, opt.Full} {
			p := probeProg{name: s.name + "/" + levelName(level), src: s.src, level: level,
				backend: core.BackendCompiled, mem: memsys.PerfectConfig(), oracle: want}
			cp, err := add(p)
			if err != nil {
				return nil, err
			}
			res, err := cp.Run(entry, nil)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			if res.Value != want {
				return nil, fmt.Errorf("%s: value %d, oracle %d", p.name, res.Value, want)
			}
			if level == opt.Full {
				st.simCycles += res.Stats.Cycles
			}
		}
	}
	for i := 0; i < progenPerRound; i++ {
		seed := o.seed + int64(i)
		p := probeProg{name: fmt.Sprintf("progen-%d/O3", seed), src: progen.Generate(progen.DefaultConfig(seed)),
			level: opt.Full, backend: core.BackendCompiled, mem: memsys.PerfectConfig(), compileOnly: true}
		if _, err := add(p); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(o.seed))
	rng.Shuffle(len(st.ops), func(i, j int) { st.ops[i], st.ops[j] = st.ops[j], st.ops[i] })
	return st, nil
}

// compileOp compiles p from source to a runnable module and checks the
// result's fingerprint against the reference compile's.
func compileOp(p probeProg, ref []int) op {
	return op{name: p.name, do: func(sc scope) error {
		t := sc.now()
		cp, err := core.CompileSource(p.src, core.WithLevel(p.level))
		sc.end("core.CompileSource", p.name, t)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		t = sc.now()
		mod := codegen.Compile(cp.Program)
		sc.end("codegen.Compile", p.name, t)
		if fp := fingerprint(cp); mod == nil || !slices.Equal(fp, ref) {
			return fmt.Errorf("wrong answer: %s: fingerprint %v, reference %v", p.name, fp, ref)
		}
		return nil
	}}
}

// setupSim compiles every suite program at O3 for the backend and memory
// system, runs each once as its reference (checked against the oracle,
// and warming the engine), and orders the runs by the seed.
func setupSim(o options, backend core.Backend, mem memsys.Config) (*state, error) {
	st := &state{}
	for _, s := range suite() {
		p := probeProg{name: s.name + "/O3", src: s.src, level: opt.Full, backend: backend, mem: mem}
		var err error
		if p.oracle, err = oracle(s.src); err != nil {
			return nil, fmt.Errorf("%s: oracle: %w", s.name, err)
		}
		cp, err := core.CompileSource(s.src, core.WithLevel(p.level), core.WithBackend(backend), core.WithMemory(mem))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		ref, err := cp.Run(entry, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		if ref.Value != p.oracle {
			return nil, fmt.Errorf("%s: value %d, oracle %d", p.name, ref.Value, p.oracle)
		}
		st.simCycles += ref.Stats.Cycles
		st.progs = append(st.progs, p)
		st.ops = append(st.ops, runOp(p.name, cp, ref, backend))
	}
	rng := rand.New(rand.NewSource(o.seed))
	rng.Shuffle(len(st.ops), func(i, j int) { st.ops[i], st.ops[j] = st.ops[j], st.ops[i] })
	return st, nil
}

// runSpan names the span of one run on a backend.
func runSpan(b core.Backend) string {
	if b == core.BackendCompiled {
		return "codegen.run"
	}
	return "dataflow.run"
}

// runOp runs cp once and checks value, cycles and events against ref.
func runOp(name string, cp *core.Compiled, ref *dataflow.Result, backend core.Backend) op {
	spanName := runSpan(backend)
	return op{name: name, do: func(sc scope) error {
		t := sc.now()
		res, err := cp.Run(entry, nil)
		sc.end(spanName, name, t)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if res.Value != ref.Value || res.Stats.Cycles != ref.Stats.Cycles || res.Stats.Events != ref.Stats.Events {
			return fmt.Errorf("wrong answer: %s: (value, cycles, events) = (%d, %d, %d), reference (%d, %d, %d)", name,
				res.Value, res.Stats.Cycles, res.Stats.Events, ref.Value, ref.Stats.Cycles, ref.Stats.Events)
		}
		return nil
	}}
}
