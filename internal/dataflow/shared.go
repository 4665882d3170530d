package dataflow

import "spatial/internal/pegasus"

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

// info returns the prebuilt graphInfo of g. Every graph reachable by a
// run is in p.Funcs, so the lookup never misses; the map is never written
// after Prebuild, making concurrent lookups safe without locking.
func (s *Shared) info(g *pegasus.Graph) *graphInfo { return s.infos[g.Name] }

// Run executes entry(args...) against the prebuilt structures. It is safe
// to call from many goroutines at once; each call is an independent run
// with its own memory image and event queue.
func (s *Shared) Run(entry string, args []int64, cfg Config) (*Result, error) {
	return s.RunHooks(entry, args, cfg, Hooks{})
}

// RunHooks is Run with the controls and observers of h (see Hooks). The
// hooks belong to this run alone: an injector, profile or tracer must not
// be shared between concurrent runs.
func (s *Shared) RunHooks(entry string, args []int64, cfg Config, h Hooks) (*Result, error) {
	res, _, err := s.run(entry, args, cfg, h)
	return res, err
}
