// Package difftest is the differential testing harness behind the fuzzer:
// it runs one source program on the dataflow simulator at every
// optimization level — optionally under injected faults — and checks each
// result against the sequential interpreter oracle. Every clean run
// executes on both execution backends (the event-driven interpreter and
// the compiled flat-bytecode VM), which must agree bit-for-bit on the
// whole Result. Faulted runs execute on the interpreter only: the VM
// runs clean schedules and has no fault injector.
//
// The contract it enforces is the robustness claim of a self-timed
// circuit:
//
//   - pure *delays* (edge jitter, frozen nodes, stretched memory
//     responses) must be absorbed: same checksum, different schedule;
//   - a *lost* delivery must be absorbed (the value was dead), detected
//     as a diagnosed deadlock/livelock, or — when the loss misaligns
//     iteration streams past a merge, which the circuit itself cannot
//     observe — caught by the differential oracle. The only illegal
//     outcome is a wrong answer with no fault on record;
//   - a *corrupted* memory response must be detected as a fault error.
//
// Any other outcome — a checksum mismatch, a panic, an undiagnosed hang —
// is a finding, and Shrink + WriteCrasher turn it into a small reproducer
// under testdata/crashers/.
package difftest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"spatial/internal/core"
	"spatial/internal/dataflow"
	"spatial/internal/faultsim"
	"spatial/internal/opt"
	"spatial/internal/progen"
)

// Entry is the function every generated program exposes.
const Entry = "bench"

// Levels are the optimization levels a program is checked at.
var Levels = []opt.Level{opt.None, opt.Basic, opt.Medium, opt.Full}

// Check compiles src at every optimization level, runs each on the
// dataflow simulator, and compares every result value against the
// sequential interpreter oracle. maxCycles bounds each run; 0 scales the
// budget from the oracle's sequential cycle count, so heavy programs get
// room while a genuine livelock is still cut off. It returns the clean
// evidence CheckFaults replays against.
func Check(src string, maxCycles int64) (Baseline, error) {
	b := Baseline{Cycles: make(map[opt.Level]int64, len(Levels))}
	oracle, seqCycles, err := runOracle(src)
	if err != nil {
		return b, err
	}
	b.Oracle = oracle
	if maxCycles <= 0 {
		// Spatial execution is normally faster than sequential; 32x the
		// sequential estimate plus slack is far past any honest run.
		maxCycles = 32*seqCycles + 200_000
	}
	for _, lvl := range Levels {
		cp, err := compileAt(src, lvl, maxCycles, core.BackendInterpreted)
		if err != nil {
			return b, err
		}
		res, err := cp.Run(Entry, nil)
		if err != nil {
			return b, fmt.Errorf("difftest: O%d run: %w", lvl, err)
		}
		if res.Value != oracle {
			return b, fmt.Errorf("difftest: O%d checksum mismatch: simulator %d, oracle %d", lvl, res.Value, oracle)
		}
		b.Cycles[lvl] = res.Stats.Cycles

		// The compiled backend must be bit-identical to the interpreter —
		// not just the checksum, but every statistic (events, cycles,
		// per-class firing counts, memory-system counters).
		cpc, err := compileAt(src, lvl, maxCycles, core.BackendCompiled)
		if err != nil {
			return b, err
		}
		resC, err := cpc.Run(Entry, nil)
		if err != nil {
			return b, fmt.Errorf("difftest: O%d compiled run: %w", lvl, err)
		}
		if *resC != *res {
			return b, fmt.Errorf("difftest: O%d BACKEND DIVERGENCE:\n interpreted %+v\n compiled    %+v", lvl, res, resC)
		}
	}
	return b, nil
}

// FaultReport tallies the fault runs of one CheckFaults call.
type FaultReport struct {
	// Absorbed counts fault runs that completed with the oracle checksum
	// (including runs whose planned fault never matched an event).
	Absorbed int
	// Detected counts fault runs that aborted with a typed simulator
	// error (deadlock, livelock, memory fault, resource limit).
	Detected int
	// OracleCaught counts dropped deliveries that completed with a wrong
	// checksum and were caught only by the differential oracle. A lost
	// delivery past a merge can misalign iteration streams without
	// starving anything — undetectable in-circuit without wave tags — so
	// the oracle is the designated detector for this class.
	OracleCaught int
}

func (r FaultReport) String() string {
	return fmt.Sprintf("%d absorbed, %d detected, %d oracle-caught", r.Absorbed, r.Detected, r.OracleCaught)
}

// Baseline is the clean-run evidence of Check: the oracle's checksum and
// each level's clean cycle count.
type Baseline struct {
	Oracle int64
	Cycles map[opt.Level]int64
}

// CheckFaults replays src on the interpreter at each of levels (every
// level of Levels when none is given) under a seeded battery of injected
// faults, and verifies each outcome against the contract and against the
// clean evidence b of Check: delay-only faults must be absorbed, drops
// must be absorbed or detected, and a corrupted memory response must be
// detected. A non-nil error means the contract was violated — most
// seriously by a silent wrong answer.
func CheckFaults(src string, b Baseline, seed int64, levels ...opt.Level) (FaultReport, error) {
	var rep FaultReport
	if len(levels) == 0 {
		levels = Levels
	}
	oracle := b.Oracle
	for _, lvl := range levels {
		// Budget fault runs relative to the clean run: absorbed delays
		// stretch the schedule a little, livelocks are cut off fast.
		budget := b.Cycles[lvl]*8 + 4096
		cp, err := compileAt(src, lvl, budget, core.BackendInterpreted)
		if err != nil {
			return rep, err
		}
		mix := seed ^ int64(lvl)*0x9e3779b9
		plan := func(f faultsim.Fault) *faultsim.Injector {
			f.Node, f.Edge = -1, -1
			return faultsim.New(faultsim.Plan{Faults: []faultsim.Fault{f}})
		}
		runs := []struct {
			name    string
			inj     *faultsim.Injector
			mustAbs bool // delay-only: any detection is a contract violation
			isDrop  bool // lossy: a wrong checksum is the oracle doing its job
		}{
			{"jitter", faultsim.NewJitter(mix, 0.05, 8), true, false},
			{"freeze", plan(faultsim.Fault{Op: faultsim.Freeze, Nth: 1 + int(mod(mix, 40)), Cycles: 40}), true, false},
			{"mem-stretch", plan(faultsim.Fault{Op: faultsim.MemStretch, Nth: 1 + int(mod(mix>>8, 16)), Cycles: 64}), true, false},
			{"drop-value", plan(faultsim.Fault{Op: faultsim.Drop, Nth: 1 + int(mod(mix>>16, 200))}), false, true},
			{"drop-token", plan(faultsim.Fault{Op: faultsim.Drop, Token: true, Nth: 1 + int(mod(mix>>24, 100))}), false, true},
			{"mem-fail", plan(faultsim.Fault{Op: faultsim.MemFail, Nth: 1 + int(mod(mix>>32, 16))}), false, false},
		}
		for _, fr := range runs {
			res, err := cp.RunFaulted(context.Background(), Entry, nil, fr.inj)
			triggered := len(fr.inj.Triggered()) > 0
			switch {
			case err == nil && res.Value == oracle:
				rep.Absorbed++
			case err == nil && fr.isDrop && triggered:
				// A lost delivery past a merge can misalign the surviving
				// iteration streams and complete with a wrong value without
				// starving anything. The circuit cannot see this (no wave
				// tags); the differential oracle is the detector of record.
				rep.OracleCaught++
			case err == nil:
				return rep, fmt.Errorf("difftest: O%d %s: SILENT CORRUPTION: simulator %d, oracle %d (faults: %v)",
					lvl, fr.name, res.Value, oracle, fr.inj.Triggered())
			case fr.mustAbs:
				return rep, fmt.Errorf("difftest: O%d %s: delay-only fault was not absorbed: %w", lvl, fr.name, err)
			case errors.Is(err, core.ErrSim) && triggered:
				rep.Detected++
			case errors.Is(err, core.ErrSim):
				return rep, fmt.Errorf("difftest: O%d %s: run failed with no fault triggered: %w", lvl, fr.name, err)
			default:
				return rep, fmt.Errorf("difftest: O%d %s: unclassified failure: %w", lvl, fr.name, err)
			}
			if fr.name == "mem-fail" && triggered && err != nil && !errors.Is(err, dataflow.ErrMemFault) {
				return rep, fmt.Errorf("difftest: O%d mem-fail: detected but not as a memory fault: %w", lvl, err)
			}
		}
	}
	return rep, nil
}

// runOracle executes src on the sequential interpreter, returning the
// checksum and the sequential cycle estimate (the budget yardstick).
func runOracle(src string) (int64, int64, error) {
	cp, err := core.CompileSource(src, core.WithLevel(opt.None))
	if err != nil {
		return 0, 0, fmt.Errorf("difftest: oracle compile: %w", err)
	}
	res, err := cp.RunSequential(Entry, nil)
	if err != nil {
		return 0, 0, fmt.Errorf("difftest: oracle run: %w", err)
	}
	return res.Value, res.SeqCycles, nil
}

func compileAt(src string, lvl opt.Level, maxCycles int64, backend core.Backend) (*core.Compiled, error) {
	sim := core.DefaultSim()
	sim.MaxCycles = maxCycles
	cp, err := core.CompileSource(src, core.WithLevel(lvl), core.WithSim(sim), core.WithBackend(backend))
	if err != nil {
		return nil, fmt.Errorf("difftest: O%d compile: %w", lvl, err)
	}
	if err := cp.Verify(); err != nil {
		return nil, fmt.Errorf("difftest: O%d verify: %w", lvl, err)
	}
	return cp, nil
}

// mod is a non-negative modulus for seed mixing.
func mod(x, m int64) int64 {
	r := x % m
	if r < 0 {
		r += m
	}
	return r
}

// Failing reports whether the generated program at cfg violates the
// differential contract; faulted additionally replays the fault battery.
// It is the predicate Shrink minimizes against.
func Failing(cfg progen.Config, faulted bool, maxCycles int64) bool {
	src := progen.Generate(cfg)
	b, err := Check(src, maxCycles)
	if err != nil {
		return true
	}
	if faulted {
		if _, err := CheckFaults(src, b, cfg.Seed); err != nil {
			return true
		}
	}
	return false
}

// Shrink greedily minimizes a failing generator configuration: it walks
// Stmts, MaxDepth, Arrays, and Scalars downward, keeping each reduction
// that still fails, until no single reduction reproduces the failure. The
// seed is preserved — the reproducer is the (shrunk config, seed) pair.
func Shrink(cfg progen.Config, failing func(progen.Config) bool) progen.Config {
	type field struct {
		get func(*progen.Config) *int
		min int
	}
	fields := []field{
		{func(c *progen.Config) *int { return &c.Stmts }, 1},
		{func(c *progen.Config) *int { return &c.MaxDepth }, 0},
		{func(c *progen.Config) *int { return &c.Arrays }, 1},
		{func(c *progen.Config) *int { return &c.Scalars }, 0},
	}
	for changed := true; changed; {
		changed = false
		for _, f := range fields {
			for *f.get(&cfg) > f.min {
				try := cfg
				*f.get(&try)--
				if !failing(try) {
					break
				}
				cfg = try
				changed = true
			}
		}
	}
	return cfg
}

// Crasher is the on-disk reproducer for one harness failure.
type Crasher struct {
	Config progen.Config `json:"config"`
	Seed   int64         `json:"seed"`
	Faults bool          `json:"faults"`
	Reason string        `json:"reason"`
}

// WriteCrasher writes a reproducer — the generated source next to a JSON
// record of the generator config, seed, and failure reason — into dir and
// returns the source path. Replay it with:
//
//	go run ./cmd/cashfuzz -replay <path>.json
func WriteCrasher(dir string, c Crasher) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	base := fmt.Sprintf("crasher_seed%d", c.Seed)
	srcPath := filepath.Join(dir, base+".c")
	if err := os.WriteFile(srcPath, []byte(progen.Generate(c.Config)), 0o644); err != nil {
		return "", err
	}
	meta, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), append(meta, '\n'), 0o644); err != nil {
		return "", err
	}
	return srcPath, nil
}

// ReadCrasher loads a reproducer JSON written by WriteCrasher.
func ReadCrasher(path string) (Crasher, error) {
	var c Crasher
	data, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("difftest: %s: %w", path, err)
	}
	return c, nil
}
