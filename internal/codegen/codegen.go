package codegen

// Module is the compiled form of a whole Pegasus program and the public
// entry point of the package. Compile once, run many times — a Module is
// immutable after Compile (except the per-graph activation-state pools,
// which are concurrency-safe), so one Module may serve concurrent runs,
// exactly like dataflow.Shared on the interpreted side.

import (
	"errors"

	"spatial/internal/dataflow"
	"spatial/internal/memsys"
	"spatial/internal/pegasus"
)

// Module holds the lowered bytecode of every function in a program.
type Module struct {
	prog  *pegasus.Program
	progs map[string]*gprog
	// numFrameClasses counts the distinct frame sizes across all graphs;
	// each gprog.frameClass indexes the VM's per-size frame free lists.
	numFrameClasses int
}

// Compile lowers every graph of p. Lowering is two-phase — all gprog
// shells are created first, then each graph is lowered — so call rules
// can resolve their callee's lowered program regardless of map order.
func Compile(p *pegasus.Program) *Module {
	mod := &Module{prog: p, progs: make(map[string]*gprog, len(p.Funcs))}
	for name, g := range p.Funcs {
		mod.progs[name] = &gprog{g: g, name: name}
	}
	for _, gp := range mod.progs {
		lowerGraph(mod, gp)
	}
	// Assign frame-size classes (frame sizes are known only after
	// lowering). Graphs sharing a size share a free list, preserving the
	// interpreter's LIFO-per-size frame reuse exactly.
	classOf := make(map[uint32]int32)
	for _, gp := range mod.progs {
		c, ok := classOf[gp.frameSize]
		if !ok {
			c = int32(len(classOf))
			classOf[gp.frameSize] = c
		}
		gp.frameClass = c
	}
	mod.numFrameClasses = len(classOf)
	return mod
}

// Run executes entry(args...) on the compiled bytecode and returns the
// result value and statistics — bit-identical to dataflow.Run on the
// same program and config.
func (mod *Module) Run(entry string, args []int64, cfg dataflow.Config) (*dataflow.Result, error) {
	return mod.RunHooks(entry, args, cfg, dataflow.Hooks{})
}

// RunHooks is Run with the hooks of h, mirroring dataflow.Shared.RunHooks:
// the same injector state produces the same fault deliveries at the same
// events, and h.Events sees the interpreter's event stream element for
// element. The VM has no profiler or tracer, so a run with h.Profile or
// h.Trace set fails; observe those runs on the interpreter.
func (mod *Module) RunHooks(entry string, args []int64, cfg dataflow.Config, h dataflow.Hooks) (*dataflow.Result, error) {
	if h.Profile != nil || h.Trace != nil {
		return nil, errors.New("codegen: the compiled VM cannot profile or trace a run; use the interpreter")
	}
	_, cfg, err := dataflow.CheckRun(mod.prog, entry, args, cfg)
	if err != nil {
		return nil, err
	}
	m := &vm{
		mod:        mod,
		cfg:        cfg,
		mem:        mod.prog.Layout.NewMemory(),
		msys:       memsys.New(cfg.Mem),
		sp:         mod.prog.Layout.StackBase,
		freeFrames: make([][]uint32, mod.numFrameClasses),
		inj:        h.Inject,
		ctx:        h.Ctx,
		evHook:     h.Events,
	}
	if h.Events != nil {
		m.q.SpillAll()
	}
	if h.Inject != nil {
		m.msys.SetPerturber(h.Inject)
	}
	m.newActivation(mod.progs[entry], args, -1, nil)
	if m.err != nil {
		return nil, m.err
	}
	if err := m.run(); err != nil {
		return nil, err
	}
	m.stats.Cycles = m.now
	m.stats.Mem = m.msys.Stats()
	return &dataflow.Result{Value: m.mainVal, Stats: m.stats}, nil
}
