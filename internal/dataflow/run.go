package dataflow

import (
	"context"
	"fmt"

	"spatial/internal/faultsim"
	"spatial/internal/memsys"
	"spatial/internal/pegasus"
	"spatial/internal/trace"
)

// Hooks are the optional controls and observers of one run. Every field
// may be nil, and the zero value is a plain run. The observers (Profile,
// Trace, Events) never change a run's Result.
type Hooks struct {
	// Ctx cancels the run: the engine polls it between events and aborts
	// with an error wrapping ErrCanceled (and the ctx cause) once it is
	// done or past its deadline.
	Ctx context.Context
	// Inject perturbs edge deliveries, fire attempts, and memory
	// responses (fault injection). An injector is stateful: give each
	// run its own.
	Inject *faultsim.Injector
	// Profile accumulates per-node firing counts (see NewProfile).
	Profile *Profile
	// Trace records every firing, stall, and memory request; call
	// Trace.Finish(res.Stats.Cycles) after the run for the Trace.
	Trace *trace.Tracer
	// Events observes every processed event in execution order: (time,
	// seq) is the event's position in the global total order, act the
	// activation ID and node the firing node's ID. Differential tests use
	// it to assert that the engines replay the same event stream.
	Events func(time, seq int64, act, node int)
}

// CheckRun is the one precondition check of a run, shared by both
// engines so that they reject the same runs with the same error text: it
// validates cfg, looks up entry and checks the argument count. It returns
// the entry graph and cfg with its zero fields defaulted.
func CheckRun(p *pegasus.Program, entry string, args []int64, cfg Config) (*pegasus.Graph, Config, error) {
	if err := cfg.Validate(); err != nil {
		return nil, Config{}, err
	}
	g := p.Graph(entry)
	if g == nil {
		return nil, Config{}, fmt.Errorf("dataflow: no function %q", entry)
	}
	if len(args) != len(g.Fn.Params) {
		return nil, Config{}, fmt.Errorf("dataflow: %s expects %d arguments, got %d", entry, len(g.Fn.Params), len(args))
	}
	return g, cfg.Normalized(), nil
}

// Run executes entry(args...) on program p and returns the result value
// and statistics.
func Run(p *pegasus.Program, entry string, args []int64, cfg Config) (*Result, error) {
	return Prebuild(p).Run(entry, args, cfg)
}

// run is the runner behind RunHooks: it checks the run, assembles a
// machine with the hooks of h, executes it, and seals the statistics. It
// also returns the machine, whose memory tests read post-mortem.
func (s *Shared) run(entry string, args []int64, cfg Config, h Hooks) (*Result, *machine, error) {
	g, cfg, err := CheckRun(s.prog, entry, args, cfg)
	if err != nil {
		return nil, nil, err
	}
	m := &machine{
		prog:       s.prog,
		cfg:        cfg,
		mem:        s.prog.Layout.NewMemory(),
		msys:       memsys.New(cfg.Mem),
		shared:     s,
		sp:         s.prog.Layout.StackBase,
		freeFrames: map[uint32][]uint32{},
		profile:    h.Profile,
		tracer:     h.Trace,
		inj:        h.Inject,
		ctx:        h.Ctx,
	}
	if h.Trace != nil {
		m.msys.SetObserver(h.Trace)
	}
	if h.Inject != nil {
		m.msys.SetPerturber(h.Inject)
	}
	if h.Events != nil {
		m.events.SpillAll()
		m.evHook = func(t, seq int64, act int, n *pegasus.Node) { h.Events(t, seq, act, n.ID) }
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
	if h.Profile != nil {
		h.Profile.cycles = m.now
		h.Profile.prog = s.prog
	}
	return &Result{Value: m.mainVal, Stats: m.stats}, m, nil
}
