package dataflow

import (
	"context"

	"spatial/internal/faultsim"
	"spatial/internal/pegasus"
	"spatial/internal/trace"
)

// Shared is the per-program table of graphInfo structures, built once and
// then reused by every subsequent run of the same program — including
// runs on different goroutines at the same time.
//
// The concurrency contract (see DESIGN.md "Concurrency model"):
//
//   - The pegasus.Program and every graphInfo are immutable after
//     Prebuild returns. The simulator only reads them; no field of either
//     is written during a run.
//   - Each graphInfo's sync.Pool of actState is safe under concurrent
//     Get/Put; a pooled actState is owned exclusively by one activation
//     of one run between Get and Put.
//   - Everything else a run touches (machine, memory image, memsys,
//     event queue, observers) is allocated per run and never shared.
//
// TestSharedCompiledParallel pins the contract under -race.
type Shared struct {
	prog  *pegasus.Program
	infos map[string]*graphInfo
}

// Prebuild constructs the shared structures for every function of p. The
// result may be used by any number of concurrent runs.
func Prebuild(p *pegasus.Program) *Shared {
	s := &Shared{prog: p, infos: make(map[string]*graphInfo, len(p.Funcs))}
	for name, g := range p.Funcs {
		s.infos[name] = buildGraphInfo(g)
	}
	return s
}

// Program returns the program the shared structures were built for.
func (s *Shared) Program() *pegasus.Program { return s.prog }

// info returns the prebuilt graphInfo of g. Every graph reachable by a
// run is in p.Funcs, so the lookup never misses; the map is never written
// after Prebuild, making concurrent lookups safe without locking.
func (s *Shared) info(g *pegasus.Graph) *graphInfo { return s.infos[g.Name] }

// Run executes entry(args...) against the prebuilt structures. It is safe
// to call from many goroutines at once; each call is an independent run
// with its own memory image and event queue.
func (s *Shared) Run(entry string, args []int64, cfg Config) (*Result, error) {
	return s.RunCtx(nil, entry, args, cfg)
}

// RunCtx is Run with cooperative cancellation (ctx may be nil).
func (s *Shared) RunCtx(ctx context.Context, entry string, args []int64, cfg Config) (*Result, error) {
	res, _, err := runMachine(s.prog, entry, args, cfg, runOpts{ctx: ctx, shared: s})
	return res, err
}

// RunFaulted is RunCtx under fault injection; the injector itself is
// stateful and must not be shared between concurrent runs.
func (s *Shared) RunFaulted(ctx context.Context, entry string, args []int64, cfg Config, inj *faultsim.Injector) (*Result, error) {
	res, _, err := runMachine(s.prog, entry, args, cfg, runOpts{ctx: ctx, inj: inj, shared: s})
	return res, err
}

// RunProfiledCtx is RunCtx with per-node firing profiling.
func (s *Shared) RunProfiledCtx(ctx context.Context, entry string, args []int64, cfg Config) (*Result, *Profile, error) {
	prof := newProfile()
	res, _, err := runMachine(s.prog, entry, args, cfg, runOpts{prof: prof, ctx: ctx, shared: s})
	if err != nil {
		return nil, nil, err
	}
	return res, prof, nil
}

// RunTracedCtx is RunCtx with full event tracing.
func (s *Shared) RunTracedCtx(ctx context.Context, entry string, args []int64, cfg Config, tcfg trace.Config) (*Result, *trace.Trace, error) {
	tr := trace.New(tcfg)
	res, m, err := runMachine(s.prog, entry, args, cfg, runOpts{tr: tr, ctx: ctx, shared: s})
	if err != nil {
		return nil, nil, err
	}
	return res, tr.Finish(m.now), nil
}

// RunInspect is Run returning an Inspector for post-mortem memory reads.
func (s *Shared) RunInspect(entry string, args []int64, cfg Config) (*Result, *Inspector, error) {
	res, m, err := runMachine(s.prog, entry, args, cfg, runOpts{shared: s})
	if err != nil {
		return nil, nil, err
	}
	return res, &Inspector{m: m}, nil
}
