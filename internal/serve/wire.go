package serve

import (
	"fmt"

	"spatial/api"
	"spatial/internal/core"
	"spatial/internal/dataflow"
	"spatial/internal/memsys"
	"spatial/internal/opt"
)

// This file is the single mapping between the versioned wire types
// (package api) and the compiler's internal configuration structs. The
// daemon (internal/cashd), the Go client, and the in-process engine all
// funnel through it, so the network path and the library path cannot
// drift apart.

// levelOf validates and converts a wire optimization level.
func levelOf(l api.Level) (opt.Level, error) {
	if l < api.LevelNone || l > api.LevelFull {
		return 0, fmt.Errorf("invalid optimization level %d (want %d..%d)", l, api.LevelNone, api.LevelFull)
	}
	return opt.Level(l), nil
}

// passesOf converts wire pass toggles; nil stays nil ("use the level").
func passesOf(p *api.Passes) *opt.Options {
	if p == nil {
		return nil
	}
	return &opt.Options{
		ConstFold:           p.ConstFold,
		CSE:                 p.CSE,
		DCE:                 p.DCE,
		DeadMemOps:          p.DeadMemOps,
		TokenRemoval:        p.TokenRemoval,
		TransitiveReduction: p.TransitiveReduction,
		MemMerge:            p.MemMerge,
		StoreBeforeStore:    p.StoreBeforeStore,
		LoadAfterStore:      p.LoadAfterStore,
		LICM:                p.LICM,
		ReadOnlyLoops:       p.ReadOnlyLoops,
		MonotoneLoops:       p.MonotoneLoops,
		LoopDecouple:        p.LoopDecouple,
	}
}

// backendOf validates and converts a wire backend name; the empty string
// selects the interpreter, matching the facade's default.
func backendOf(b string) (core.Backend, error) {
	switch b {
	case "", api.BackendInterp:
		return core.BackendInterpreted, nil
	case api.BackendCompiled:
		return core.BackendCompiled, nil
	default:
		return 0, fmt.Errorf("invalid backend %q (want %q or %q)", b, api.BackendInterp, api.BackendCompiled)
	}
}

// memOf converts a wire memory configuration.
func memOf(m *api.MemConfig) (memsys.Config, error) {
	if m == nil {
		return memsys.Config{}, nil
	}
	var kind memsys.Kind
	switch m.Kind {
	case "", api.MemPerfect:
		kind = memsys.Perfect
	case api.MemRealistic:
		kind = memsys.Realistic
	default:
		return memsys.Config{}, fmt.Errorf("invalid memory kind %q (want %q or %q)", m.Kind, api.MemPerfect, api.MemRealistic)
	}
	return memsys.Config{
		Kind:           kind,
		Ports:          m.Ports,
		QueueSize:      m.QueueSize,
		PerfectLatency: m.PerfectLatency,
		L1Bytes:        m.L1Bytes,
		L1Latency:      m.L1Latency,
		L2Bytes:        m.L2Bytes,
		L2Latency:      m.L2Latency,
		MemLatency:     m.MemLatency,
		WordGap:        m.WordGap,
		LineBytes:      m.LineBytes,
		TLBPages:       m.TLBPages,
		TLBMissCost:    m.TLBMissCost,
		PageBytes:      m.PageBytes,
	}, nil
}

// simOf converts a wire simulator configuration; nil means defaults.
func simOf(s *api.SimConfig) (dataflow.Config, error) {
	if s == nil {
		return dataflow.Config{}, nil
	}
	mem, err := memOf(s.Mem)
	if err != nil {
		return dataflow.Config{}, err
	}
	return dataflow.Config{
		Mem:            mem,
		EdgeCap:        s.EdgeCap,
		MaxCycles:      s.MaxCycles,
		MaxActivations: s.MaxActivations,
	}, nil
}

// coreOptions converts a wire program's compile-time configuration into
// facade options. It rejects invalid wire values with plain errors; the
// caller classifies them under core.ErrCompile.
func coreOptions(p api.Program) ([]core.Option, error) {
	level, err := levelOf(p.Level)
	if err != nil {
		return nil, err
	}
	opts := []core.Option{core.WithLevel(level)}
	backend, err := backendOf(p.Backend)
	if err != nil {
		return nil, err
	}
	if backend != core.BackendInterpreted {
		opts = append(opts, core.WithBackend(backend))
	}
	if ps := passesOf(p.Passes); ps != nil {
		opts = append(opts, core.WithPasses(*ps))
	}
	sim, err := simOf(p.Sim)
	if err != nil {
		return nil, err
	}
	if sim != (dataflow.Config{}) {
		opts = append(opts, core.WithSim(sim))
	}
	return opts, nil
}
