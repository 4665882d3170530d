package dataflow

import (
	"context"
	"fmt"

	"spatial/internal/faultsim"
	"spatial/internal/memsys"
	"spatial/internal/pegasus"
	"spatial/internal/trace"
)

// runOpts bundles the optional observers and controls of one run; the
// zero value reproduces the plain Run fast path.
type runOpts struct {
	prof *Profile
	tr   *trace.Tracer
	ctx  context.Context
	inj  *faultsim.Injector
	// evHook observes every processed event (time, seq, activation id,
	// node); used by tests to assert deterministic replay.
	evHook func(time, seq int64, act int, node *pegasus.Node)
	// shared, when non-nil, supplies prebuilt graph structures (and their
	// actState pools) reused across runs; it must have been built for the
	// same program. Nil means build a private table for this run.
	shared *Shared
}

// runMachine is the single internal runner behind every Run* variant: it
// validates the configuration and entry point, assembles a machine with
// the requested observers (any may be nil), executes it, and seals the
// statistics. Observers are strictly additive — a zero runOpts
// reproduces the plain Run fast path.
func runMachine(p *pegasus.Program, entry string, args []int64, cfg Config, o runOpts) (*Result, *machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	cfg = cfg.withDefaults()
	g := p.Graph(entry)
	if g == nil {
		return nil, nil, fmt.Errorf("dataflow: no function %q", entry)
	}
	if len(args) != len(g.Fn.Params) {
		return nil, nil, fmt.Errorf("dataflow: %s expects %d arguments, got %d", entry, len(g.Fn.Params), len(args))
	}
	sh := o.shared
	if sh == nil {
		sh = Prebuild(p)
	} else if sh.prog != p {
		return nil, nil, fmt.Errorf("dataflow: shared structures were built for a different program")
	}
	m := &machine{
		prog:       p,
		cfg:        cfg,
		mem:        make([]byte, p.Layout.MemSize),
		msys:       memsys.New(cfg.Mem),
		shared:     sh,
		sp:         p.Layout.StackBase,
		freeFrames: map[uint32][]uint32{},
		profile:    o.prof,
		tracer:     o.tr,
		inj:        o.inj,
		ctx:        o.ctx,
		evHook:     o.evHook,
	}
	if o.tr != nil {
		m.msys.SetObserver(o.tr)
	}
	if o.inj != nil {
		m.msys.SetPerturber(o.inj)
	}
	for _, c := range p.Layout.Init {
		m.writeMem(c.Addr, c.Size, c.Value)
	}
	m.mainAct = m.newActivation(g, args, nil, nil)
	if m.err != nil {
		return nil, nil, m.err
	}
	if err := m.run(); err != nil {
		return nil, nil, err
	}
	m.stats.Cycles = m.now
	m.stats.Mem = m.msys.Stats()
	if o.prof != nil {
		o.prof.cycles = m.now
	}
	return &Result{Value: m.mainVal, Stats: m.stats}, m, nil
}

// Run executes entry(args...) on program p and returns the result value
// and statistics.
func Run(p *pegasus.Program, entry string, args []int64, cfg Config) (*Result, error) {
	res, _, err := runMachine(p, entry, args, cfg, runOpts{})
	return res, err
}

// RunCtx is Run with cooperative cancellation: the simulator polls ctx
// between events and aborts with an error wrapping ErrCanceled (and the
// ctx cause) once it is done or past its deadline.
func RunCtx(ctx context.Context, p *pegasus.Program, entry string, args []int64, cfg Config) (*Result, error) {
	res, _, err := runMachine(p, entry, args, cfg, runOpts{ctx: ctx})
	return res, err
}

// RunFaulted is Run under fault injection: inj perturbs edge deliveries,
// fire attempts, and memory responses. ctx may be nil.
func RunFaulted(ctx context.Context, p *pegasus.Program, entry string, args []int64, cfg Config, inj *faultsim.Injector) (*Result, error) {
	res, _, err := runMachine(p, entry, args, cfg, runOpts{ctx: ctx, inj: inj})
	return res, err
}

// RunEvents is Run with an observer invoked for every processed event in
// execution order: (time, seq) identify the event's position in the
// global total order, act is the activation ID, and node the firing
// node's ID. It exists so differential tests can assert that another
// engine replays the interpreter's event stream exactly, not just its
// final statistics.
func RunEvents(p *pegasus.Program, entry string, args []int64, cfg Config,
	hook func(time, seq int64, act, node int)) (*Result, error) {
	res, _, err := runMachine(p, entry, args, cfg, runOpts{
		evHook: func(t, s int64, a int, n *pegasus.Node) { hook(t, s, a, n.ID) },
	})
	return res, err
}

// RunInspect is Run but also returns an Inspector for post-mortem memory
// reads.
func RunInspect(p *pegasus.Program, entry string, args []int64, cfg Config) (*Result, *Inspector, error) {
	res, m, err := runMachine(p, entry, args, cfg, runOpts{})
	if err != nil {
		return nil, nil, err
	}
	return res, &Inspector{m: m}, nil
}

// RunProfiled is Run with per-node firing profiling enabled.
func RunProfiled(p *pegasus.Program, entry string, args []int64, cfg Config) (*Result, *Profile, error) {
	return RunProfiledCtx(nil, p, entry, args, cfg)
}

// RunProfiledCtx is RunProfiled with cooperative cancellation; ctx may be
// nil.
func RunProfiledCtx(ctx context.Context, p *pegasus.Program, entry string, args []int64, cfg Config) (*Result, *Profile, error) {
	prof := newProfile()
	res, _, err := runMachine(p, entry, args, cfg, runOpts{prof: prof, ctx: ctx})
	if err != nil {
		return nil, nil, err
	}
	return res, prof, nil
}

// RunTraced is Run with full event tracing: every firing, stall, and
// memory request is recorded into a trace.Trace for critical-path and
// timeline analysis.
func RunTraced(p *pegasus.Program, entry string, args []int64, cfg Config, tcfg trace.Config) (*Result, *trace.Trace, error) {
	return RunTracedCtx(nil, p, entry, args, cfg, tcfg)
}

// RunTracedCtx is RunTraced with cooperative cancellation; ctx may be
// nil.
func RunTracedCtx(ctx context.Context, p *pegasus.Program, entry string, args []int64, cfg Config, tcfg trace.Config) (*Result, *trace.Trace, error) {
	tr := trace.New(tcfg)
	res, m, err := runMachine(p, entry, args, cfg, runOpts{tr: tr, ctx: ctx})
	if err != nil {
		return nil, nil, err
	}
	return res, tr.Finish(m.now), nil
}
