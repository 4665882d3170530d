package codegen

// Module is the compiled form of a whole Pegasus program and the public
// entry point of the package. Compile once, run many times — a Module is
// immutable after Compile (except the per-graph activation-state pools,
// which are concurrency-safe), so one Module may serve concurrent runs,
// exactly like dataflow.Shared on the interpreted side.

import (
	"context"

	"spatial/internal/dataflow"
	"spatial/internal/faultsim"
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

// Program returns the program this module was compiled from.
func (mod *Module) Program() *pegasus.Program { return mod.prog }

// Run executes entry(args...) on the compiled bytecode and returns the
// result value and statistics — bit-identical to dataflow.Run on the
// same program and config.
func (mod *Module) Run(entry string, args []int64, cfg dataflow.Config) (*dataflow.Result, error) {
	return mod.runVM(nil, entry, args, cfg, nil, nil)
}

// RunCtx is Run with cooperative cancellation, mirroring
// dataflow.RunCtx.
func (mod *Module) RunCtx(ctx context.Context, entry string, args []int64, cfg dataflow.Config) (*dataflow.Result, error) {
	return mod.runVM(ctx, entry, args, cfg, nil, nil)
}

// RunFaulted is Run under fault injection, mirroring
// dataflow.RunFaulted: the same injector state produces the same fault
// deliveries at the same events as the interpreter. ctx may be nil.
func (mod *Module) RunFaulted(ctx context.Context, entry string, args []int64, cfg dataflow.Config, inj *faultsim.Injector) (*dataflow.Result, error) {
	return mod.runVM(ctx, entry, args, cfg, inj, nil)
}

// RunEvents is Run with an observer invoked for every processed event,
// mirroring dataflow.RunEvents — the two streams must match element for
// element.
func (mod *Module) RunEvents(entry string, args []int64, cfg dataflow.Config,
	hook func(time, seq int64, act, node int)) (*dataflow.Result, error) {
	return mod.runVM(nil, entry, args, cfg, nil, hook)
}
