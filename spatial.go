// Package spatial is a Go implementation of spatial computation: the
// CASH compiler (ASPLOS 2004) that translates C programs into Pegasus
// dataflow graphs executed directly as hardware-like circuits, together
// with the memory-access optimizations of "Optimizing Memory Accesses for
// Spatial Computation" — an SSA-based token network for memory
// dependences, predicate-driven redundancy elimination, and loop
// pipelining with token generators.
//
// The root package re-exports the high-level API from internal/core, so
// callers never import internal packages:
//
//	cp, err := spatial.Compile(src,
//	    spatial.WithLevel(spatial.OptFull),
//	    spatial.WithMemory(spatial.PaperMemory(2)))
//	res, err := cp.Run("bench", nil)
//	txt, err := cp.Dump("bench")
//
// See README.md for the architecture overview and EXPERIMENTS.md for the
// paper-reproduction results.
package spatial

import (
	"time"

	"spatial/internal/core"
	"spatial/internal/hw"
	"spatial/internal/memsys"
	"spatial/internal/opt"
	"spatial/internal/workloads"
)

// Option configures Compile (see core.Option).
type Option = core.Option

// Compiled is a compiled program (see core.Compiled).
type Compiled = core.Compiled

// Level selects an optimization preset.
type Level = opt.Level

// Passes holds per-pass toggles for WithPasses.
type Passes = opt.Options

// MemConfig describes a memory system for WithMemory.
type MemConfig = memsys.Config

// SimConfig configures a dataflow simulation (see WithSim and
// Compiled.RunTracedWith).
type SimConfig = core.SimConfig

// SimResult is the outcome of a dataflow simulation.
type SimResult = core.SimResult

// TraceConfig parameterizes trace collection for WithTrace /
// Compiled.RunTraced.
type TraceConfig = core.TraceConfig

// Trace is the cycle-timestamped event stream of a traced run: node
// firings, stall attribution, and memory events. It supports dynamic
// critical-path extraction (CriticalPath) and Chrome trace-event export
// (WriteChrome, viewable in about://tracing or Perfetto).
type Trace = core.Trace

// CritPath is a dynamic critical path through the executed dataflow
// graph, with cycles attributed per node kind and per token edge.
type CritPath = core.CritPath

// Error classes: every failure returned by Compile and the Run* methods
// matches exactly one of these under errors.Is, and no call panics — the
// facade recovers internal panics into ErrInternal-classed errors.
var (
	// ErrCompile classifies rejected source programs and invalid options.
	ErrCompile = core.ErrCompile
	// ErrSim classifies run-time failures: deadlock, livelock, detected
	// faults, cancellation, resource limits.
	ErrSim = core.ErrSim
	// ErrInternal classifies recovered panics and violated invariants —
	// bugs in this library, never the caller's fault.
	ErrInternal = core.ErrInternal
)

// DeadlockError is a diagnosed deadlock: the run stopped with tokens
// still owed, and Report names the blocked nodes and the wait cycle.
// Retrieve it with errors.As.
type DeadlockError = core.DeadlockError

// LivelockError is a run that exceeded its cycle budget without
// terminating; Report diagnoses what was still in flight.
type LivelockError = core.LivelockError

// StuckReport is the wait-for-graph diagnosis inside DeadlockError and
// LivelockError: blocked nodes, what each waits for, and the strongly
// connected component forming the cycle.
type StuckReport = core.StuckReport

// PanicError is a panic recovered at the facade, carried by an
// ErrInternal-classed error.
type PanicError = core.PanicError

// Fault is one planned perturbation of a run (drop/duplicate/delay a
// delivery, freeze a node, stretch or fail a memory response).
type Fault = core.Fault

// FaultPlan is a set of faults to inject during one run.
type FaultPlan = core.FaultPlan

// FaultInjector deterministically perturbs a run (see
// Compiled.RunFaulted).
type FaultInjector = core.FaultInjector

// FaultOp enumerates fault kinds.
type FaultOp = core.FaultOp

// Fault operations.
const (
	FaultDrop       = core.FaultDrop
	FaultDuplicate  = core.FaultDuplicate
	FaultDelay      = core.FaultDelay
	FaultFreeze     = core.FaultFreeze
	FaultMemStretch = core.FaultMemStretch
	FaultMemFail    = core.FaultMemFail
)

// NewInjector compiles a fault plan into an injector for RunFaulted.
func NewInjector(p FaultPlan) *FaultInjector { return core.NewInjector(p) }

// NewJitterInjector returns an injector of seeded random delays that a
// correct self-timed circuit must absorb without changing its result.
func NewJitterInjector(seed int64, rate float64, maxDelay int64) *FaultInjector {
	return core.NewJitterInjector(seed, rate, maxDelay)
}

// Optimization levels re-exported for convenience.
const (
	OptNone   = opt.None
	OptBasic  = opt.Basic
	OptMedium = opt.Medium
	OptFull   = opt.Full
)

// WithLevel selects an optimization preset.
func WithLevel(l Level) Option { return core.WithLevel(l) }

// WithPasses overrides the preset with explicit per-pass toggles.
func WithPasses(p Passes) Option { return core.WithPasses(p) }

// WithMemory selects the default memory system the program runs against.
func WithMemory(m MemConfig) Option { return core.WithMemory(m) }

// WithSim sets the full default simulator configuration.
func WithSim(s SimConfig) Option { return core.WithSim(s) }

// WithTrace sets the trace-collection configuration RunTraced uses.
func WithTrace(tc TraceConfig) Option { return core.WithTrace(tc) }

// WithDeadline bounds every Run of the compiled program by a wall-clock
// duration; a run past it aborts with an ErrSim-classed error.
func WithDeadline(d time.Duration) Option { return core.WithDeadline(d) }

// LevelPasses returns the pass toggles a preset enables, as a starting
// point for WithPasses overrides.
func LevelPasses(l Level) Passes { return opt.LevelOptions(l) }

// PerfectMemory returns the idealized memory configuration.
func PerfectMemory() MemConfig { return core.PerfectMemory() }

// PaperMemory returns the realistic memory system of the paper's
// Section 7.3 with the given port count.
func PaperMemory(ports int) MemConfig { return core.PaperMemory(ports) }

// DefaultSim returns the default simulation configuration.
func DefaultSim() SimConfig { return core.DefaultSim() }

// DefaultTrace returns the default trace-collection configuration.
func DefaultTrace() TraceConfig { return core.DefaultTrace() }

// Compile parses, checks, builds, and optimizes a cMinor program.
func Compile(src string, opts ...Option) (*Compiled, error) {
	return core.CompileSource(src, opts...)
}

// HWReport is one function's hardware cost estimate (operator counts,
// gate-equivalent area, wiring).
type HWReport = hw.Report

// EstimateHardware reports the hardware cost of every function in a
// compiled program, per the paper's Section 7.4 methodology.
func EstimateHardware(c *Compiled) []*HWReport { return hw.EstimateProgram(c.Program) }

// FormatHardware renders hardware estimates as text.
func FormatHardware(rs []*HWReport) string { return hw.Format(rs) }

// Profile counts node firings during a profiled run.
type Profile = core.Profile

// Workload is one of the paper's benchmark kernels; its Source compiles
// with Compile and its Entry function takes no arguments.
type Workload = workloads.Workload

// Workloads returns the paper's benchmark suite (Table 2).
func Workloads() []*Workload { return workloads.All() }

// WorkloadByName returns the named benchmark, or nil.
func WorkloadByName(name string) *Workload { return workloads.ByName(name) }
