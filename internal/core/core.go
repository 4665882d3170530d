// Package core is the public façade of the spatial-computation library:
// it wires the front end, the Pegasus builder, the optimizer, and the two
// execution engines into a small high-level API.
//
// The typical flow:
//
//	cp, err := core.CompileSource(src, core.WithLevel(opt.Full))
//	res, err := cp.Run("bench", nil)
//	seq, err := cp.RunSequential("bench", nil)
//
// CompileSource produces a Compiled program holding the optimized Pegasus
// graphs; Run executes it on the self-timed dataflow simulator (spatial
// computation), RunSequential on the in-order interpreter baseline.
// Compilation is configured with functional options: WithLevel,
// WithPasses, WithMemory, WithSim, WithTrace, WithBackend and
// WithDeadline.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"spatial/internal/build"
	"spatial/internal/cminor"
	"spatial/internal/codegen"
	"spatial/internal/dataflow"
	"spatial/internal/faultsim"
	"spatial/internal/interp"
	"spatial/internal/memsys"
	"spatial/internal/opt"
	"spatial/internal/pegasus"
	"spatial/internal/trace"
)

// Option configures CompileSource.
type Option interface {
	apply(*config)
}

type config struct {
	level    opt.Level
	passes   *opt.Options
	sim      dataflow.Config
	trc      trace.Config
	deadline time.Duration
	backend  Backend
}

type optionFunc func(*config)

func (f optionFunc) apply(c *config) { f(c) }

// WithLevel selects an optimization preset (opt.None … opt.Full).
func WithLevel(l opt.Level) Option {
	return optionFunc(func(c *config) { c.level = l })
}

// WithPasses overrides the preset with explicit per-pass toggles.
func WithPasses(p opt.Options) Option {
	return optionFunc(func(c *config) { c.passes = &p })
}

// WithMemory selects the memory system the compiled program runs against
// by default (Run and RunSequential); see PerfectMemory and PaperMemory.
func WithMemory(m memsys.Config) Option {
	return optionFunc(func(c *config) { c.sim.Mem = m })
}

// WithSim sets the full default simulator configuration (memory system,
// cycle and activation budgets).
func WithSim(s SimConfig) Option {
	return optionFunc(func(c *config) { c.sim = s })
}

// WithTrace sets the trace-collection configuration RunTraced uses
// (event caps); the zero TraceConfig selects generous defaults.
func WithTrace(tc TraceConfig) Option {
	return optionFunc(func(c *config) { c.trc = tc })
}

// Backend selects the execution engine behind Run and RunCtx.
type Backend uint8

const (
	// BackendInterpreted (the default) executes on the event-driven
	// graph interpreter (internal/dataflow) — the reference engine and
	// differential oracle.
	BackendInterpreted Backend = iota
	// BackendCompiled lowers each graph to specialized flat bytecode
	// (internal/codegen) once, then executes the bytecode. Bit-identical
	// to the interpreter (values, cycles, events) and several times
	// faster. Traced, profiled and faulted runs (RunTraced, RunProfiled,
	// RunFaulted) still interpret: the VM runs clean schedules only.
	BackendCompiled
)

// backendNames are the wire-level backend names, shared by the api
// package and the CLI flags.
var backendNames = [...]string{BackendInterpreted: "interp", BackendCompiled: "compiled"}

// String names the backend with its wire-level name.
func (b Backend) String() string {
	if int(b) < len(backendNames) {
		return backendNames[b]
	}
	return fmt.Sprintf("Backend(%d)", uint8(b))
}

// ParseBackend is the inverse of Backend.String. The empty string selects
// the default, BackendInterpreted, as it does on the wire.
func ParseBackend(s string) (Backend, error) {
	if s == "" {
		return BackendInterpreted, nil
	}
	for b, name := range backendNames {
		if s == name {
			return Backend(b), nil
		}
	}
	return 0, fmt.Errorf("unknown backend %q (want interp or compiled)", s)
}

// WithBackend selects the execution engine (default BackendInterpreted)
// of plain runs; traced, profiled and faulted runs always interpret.
func WithBackend(b Backend) Option {
	return optionFunc(func(c *config) { c.backend = b })
}

// WithDeadline bounds every Run of the compiled program by a wall-clock
// duration: a run past the deadline aborts with an ErrSim-classed error
// wrapping dataflow.ErrCanceled. Zero (the default) means no wall-clock
// bound; the cycle budget (SimConfig.MaxCycles) still applies.
func WithDeadline(d time.Duration) Option {
	return optionFunc(func(c *config) { c.deadline = d })
}

// Compiled is a fully compiled program.
//
// A Compiled is immutable after CompileSource returns and safe for
// concurrent use: any number of goroutines may call its Run* methods at
// the same time. Each run gets a private memory image, event queue, and
// memory system; the graphs and the prebuilt per-graph structures are
// shared read-only (see DESIGN.md "Concurrency model").
type Compiled struct {
	Program *pegasus.Program
	Source  *cminor.Program
	Level   opt.Level
	// Sim is the simulator configuration runs use (RunTracedWith takes
	// its own). CompileSource normalizes it, so this is exactly the
	// configuration a Run executes under.
	Sim SimConfig
	// Trace is the trace-collection configuration RunTraced uses.
	Trace TraceConfig
	// Deadline is the wall-clock budget each Run gets (see WithDeadline);
	// zero means unbounded.
	Deadline time.Duration
	// Backend is the execution engine Run and RunCtx use (see
	// WithBackend); RunTraced, RunProfiled and RunFaulted always
	// interpret.
	Backend Backend

	// shared is the prebuilt per-graph structure table every run of this
	// program reuses (built once, on first use, under sharedOnce).
	sharedOnce sync.Once
	shared     *dataflow.Shared

	// compiledMod is the lowered bytecode module BackendCompiled runs
	// (built once, on first use, under compiledOnce).
	compiledOnce sync.Once
	compiledMod  *codegen.Module
}

// sharedInfo returns the program's prebuilt simulation structures,
// building them on first use. Concurrent first calls build exactly once.
func (c *Compiled) sharedInfo() *dataflow.Shared {
	c.sharedOnce.Do(func() { c.shared = dataflow.Prebuild(c.Program) })
	return c.shared
}

// compiledInfo returns the program's lowered bytecode module, lowering it
// on first use. Concurrent first calls lower exactly once.
func (c *Compiled) compiledInfo() *codegen.Module {
	c.compiledOnce.Do(func() { c.compiledMod = codegen.Compile(c.Program) })
	return c.compiledMod
}

// CompileSource parses, checks, builds, and optimizes a cMinor program.
// Every failure — including an invalid configuration option or a panic in
// a compiler pass — comes back classified under ErrCompile (or ErrInternal
// for recovered panics), never as a panic.
func CompileSource(src string, opts ...Option) (cp *Compiled, err error) {
	defer guard(&err)
	cfg := config{sim: dataflow.DefaultConfig()}
	for _, o := range opts {
		o.apply(&cfg)
	}
	if err := cfg.sim.Validate(); err != nil {
		return nil, classify(ErrCompile, err)
	}
	prog, err := cminor.Parse(src)
	if err != nil {
		return nil, classify(ErrCompile, err)
	}
	if err := cminor.Check(prog); err != nil {
		return nil, classify(ErrCompile, err)
	}
	p, err := build.Compile(prog)
	if err != nil {
		return nil, classify(ErrCompile, err)
	}
	passes := opt.LevelOptions(cfg.level)
	if cfg.passes != nil {
		passes = *cfg.passes
	}
	if err := opt.Optimize(p, passes); err != nil {
		return nil, classify(ErrCompile, err)
	}
	// Normalize once here: the Config this Compiled reports is the Config
	// its runs actually execute under, zero fields already defaulted.
	return &Compiled{Program: p, Source: prog, Level: cfg.level, Sim: cfg.sim.Normalized(),
		Trace: cfg.trc, Deadline: cfg.deadline, Backend: cfg.backend}, nil
}

// SimConfig configures a spatial execution.
type SimConfig = dataflow.Config

// SimResult is the outcome of a spatial execution.
type SimResult = dataflow.Result

// DefaultSim returns the default simulation configuration (dual-ported
// perfect memory, one-place edges).
func DefaultSim() SimConfig { return dataflow.DefaultConfig() }

// PerfectMemory returns the idealized memory configuration.
func PerfectMemory() memsys.Config { return memsys.PerfectConfig() }

// PaperMemory returns the realistic memory system of the paper's
// Section 7.3 with the given port count.
func PaperMemory(ports int) memsys.Config { return memsys.PaperConfig(ports) }

// deadlineCtx applies the program's wall-clock budget (WithDeadline) on
// top of the caller's context. The CancelFunc must always be called.
func (c *Compiled) deadlineCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.Deadline > 0 {
		return context.WithTimeout(ctx, c.Deadline)
	}
	return ctx, func() {}
}

// run is the one run path of every method below: it recovers panics,
// applies the deadline, picks the engine and classifies the error. It is
// the one place that picks an engine: the compiled VM runs if and only
// if the backend is BackendCompiled and no profiler, tracer or fault
// injector hooks the run; every other run interprets.
func (c *Compiled) run(ctx context.Context, entry string, args []int64, cfg SimConfig, h dataflow.Hooks) (res *SimResult, err error) {
	defer guard(&err)
	ctx, cancel := c.deadlineCtx(ctx)
	defer cancel()
	h.Ctx = ctx
	if c.Backend == BackendCompiled && h.Profile == nil && h.Trace == nil && h.Inject == nil {
		res, err = c.compiledInfo().RunHooks(entry, args, cfg, h)
	} else {
		res, err = c.sharedInfo().RunHooks(entry, args, cfg, h)
	}
	return res, classify(ErrSim, err)
}

// Run executes entry(args...) on the dataflow (spatial) simulator with
// the program's default configuration (see WithMemory / WithSim). All
// failures come back as ErrSim-classed errors (ErrInternal for recovered
// panics); deadlocks and livelocks carry a *DeadlockError/*LivelockError
// with a structured StuckReport, reachable through errors.As.
func (c *Compiled) Run(entry string, args []int64) (*SimResult, error) {
	return c.run(context.Background(), entry, args, c.Sim, dataflow.Hooks{})
}

// RunCtx is Run with cooperative cancellation: the simulator polls ctx
// between events, so canceling it (or exceeding the WithDeadline budget)
// aborts the run with an ErrSim-classed error wrapping
// dataflow.ErrCanceled.
func (c *Compiled) RunCtx(ctx context.Context, entry string, args []int64) (*SimResult, error) {
	return c.run(ctx, entry, args, c.Sim, dataflow.Hooks{})
}

// RunFaulted is RunCtx under fault injection: inj perturbs edge
// deliveries, fire attempts, and memory responses during the run, which
// interprets whatever the backend (the compiled VM has no injector). Use
// NewInjector (planned faults) or NewJitterInjector (seeded random
// delays) to build inj; a nil inj behaves like RunCtx.
func (c *Compiled) RunFaulted(ctx context.Context, entry string, args []int64, inj *FaultInjector) (*SimResult, error) {
	return c.run(ctx, entry, args, c.Sim, dataflow.Hooks{Inject: inj})
}

// Profile counts node firings during a profiled run.
type Profile = dataflow.Profile

// RunProfiled executes like Run while recording per-operator firing
// counts.
func (c *Compiled) RunProfiled(entry string, args []int64) (*SimResult, *Profile, error) {
	prof := dataflow.NewProfile()
	res, err := c.run(context.Background(), entry, args, c.Sim, dataflow.Hooks{Profile: prof})
	if err != nil {
		return nil, nil, err
	}
	return res, prof, nil
}

// TraceConfig parameterizes trace collection (see WithTrace).
type TraceConfig = trace.Config

// Trace is the recorded event stream of a traced run.
type Trace = trace.Trace

// CritPath is the dynamic critical path extracted from a Trace.
type CritPath = trace.CritPath

// DefaultTrace returns the standard trace-collection configuration.
func DefaultTrace() TraceConfig { return trace.DefaultConfig() }

// RunTraced is RunCtx while recording the full event stream: node
// firings with start/end cycles, stall attribution, and memory events.
// The Trace supports critical-path extraction (Trace.CriticalPath) and
// Chrome trace-event export (Trace.WriteChrome).
func (c *Compiled) RunTraced(ctx context.Context, entry string, args []int64) (*SimResult, *Trace, error) {
	return c.runTraced(ctx, entry, args, c.Sim, c.Trace)
}

// RunTracedWith is RunTraced with explicit simulator and trace
// configurations and no caller context.
func (c *Compiled) RunTracedWith(entry string, args []int64, cfg SimConfig, tc TraceConfig) (*SimResult, *Trace, error) {
	return c.runTraced(context.Background(), entry, args, cfg, tc)
}

// runTraced is the traced run behind RunTraced and RunTracedWith; its
// guard also covers assembling the Trace.
func (c *Compiled) runTraced(ctx context.Context, entry string, args []int64, cfg SimConfig, tc TraceConfig) (res *SimResult, tr *Trace, err error) {
	defer guard(&err)
	tracer := trace.New(tc)
	if res, err = c.run(ctx, entry, args, cfg, dataflow.Hooks{Trace: tracer}); err != nil {
		return nil, nil, err
	}
	return res, tracer.Finish(res.Stats.Cycles), nil
}

// RunSequential executes on the in-order AST interpreter (the sequential
// baseline) against the program's default memory system.
func (c *Compiled) RunSequential(entry string, args []int64) (res *interp.Result, err error) {
	defer guard(&err)
	res, err = interp.New(c.Program, c.Sim.Mem).Run(entry, args)
	return res, classify(ErrSim, err)
}

// Graph returns the Pegasus graph of a function.
func (c *Compiled) Graph(name string) *pegasus.Graph { return c.Program.Graph(name) }

// Dump renders the named function's Pegasus graph as text.
func (c *Compiled) Dump(name string) (string, error) {
	g := c.Program.Graph(name)
	if g == nil {
		return "", fmt.Errorf("core: no function %q", name)
	}
	return g.Dump(), nil
}

// Dot renders the named function's Pegasus graph in Graphviz format.
func (c *Compiled) Dot(name string) (string, error) {
	g := c.Program.Graph(name)
	if g == nil {
		return "", fmt.Errorf("core: no function %q", name)
	}
	return g.Dot(), nil
}

// StaticMemOps counts the live loads and stores across all functions.
func (c *Compiled) StaticMemOps() (loads, stores int) {
	for _, g := range c.Program.Funcs {
		l, s := g.CountMemOps()
		loads += l
		stores += s
	}
	return
}

// Verify re-checks every graph's structural invariants.
func (c *Compiled) Verify() error {
	for name, g := range c.Program.Funcs {
		if err := g.Verify(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// Fault is one planned perturbation of a run (see faultsim.Fault).
type Fault = faultsim.Fault

// FaultPlan is a set of faults to inject during one run.
type FaultPlan = faultsim.Plan

// FaultInjector deterministically perturbs a run (see Compiled.RunFaulted).
type FaultInjector = faultsim.Injector

// FaultOp enumerates fault kinds (FaultDrop, FaultDelay, ...).
type FaultOp = faultsim.Op

// Fault operations re-exported for convenience.
const (
	FaultDrop       = faultsim.Drop
	FaultDuplicate  = faultsim.Duplicate
	FaultDelay      = faultsim.Delay
	FaultFreeze     = faultsim.Freeze
	FaultMemStretch = faultsim.MemStretch
	FaultMemFail    = faultsim.MemFail
)

// NewInjector compiles a fault plan into an injector for RunFaulted.
func NewInjector(p FaultPlan) *FaultInjector { return faultsim.New(p) }

// NewJitterInjector returns an injector that delays a seeded random
// fraction `rate` of edge deliveries and memory responses — perturbations
// a correct self-timed circuit must absorb without changing its result.
func NewJitterInjector(seed int64, rate float64, maxDelay int64) *FaultInjector {
	return faultsim.NewJitter(seed, rate, maxDelay)
}
