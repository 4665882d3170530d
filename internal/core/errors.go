package core

import (
	"errors"
	"fmt"
	"runtime/debug"

	"spatial/internal/dataflow"
	"spatial/internal/pegasus"
)

// The facade classifies every failure under one of three error classes,
// so callers can switch on errors.Is without string matching:
//
//	ErrCompile  — the source program was rejected (parse, type check,
//	              build, optimize, or an invalid configuration option)
//	ErrSim      — the compiled program misbehaved at run time (deadlock,
//	              livelock, activation limit, detected fault, cancellation)
//	ErrInternal — a bug in this library: a recovered panic or violated
//	              invariant (a graph failing its check after building or
//	              optimizing); never the caller's fault
//
// The original error chain stays inspectable through errors.As — e.g. a
// *DeadlockError (with its StuckReport) still unwraps from an ErrSim-
// classed error.
var (
	ErrCompile  = errors.New("spatial: compile error")
	ErrSim      = errors.New("spatial: simulation error")
	ErrInternal = errors.New("spatial: internal error")
)

// DeadlockError is the dataflow simulator's structured deadlock
// diagnosis (wait-for graph, SCC, rendered summary).
type DeadlockError = dataflow.DeadlockError

// LivelockError is the diagnosis of a run that exceeded its cycle
// budget.
type LivelockError = dataflow.LivelockError

// StuckReport is the wait-for-graph diagnosis carried by DeadlockError
// and LivelockError.
type StuckReport = dataflow.StuckReport

// PanicError is a panic recovered at the facade boundary, classified
// under ErrInternal.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the panic value; the captured stack is in Stack.
func (p *PanicError) Error() string { return fmt.Sprintf("recovered panic: %v", p.Value) }

// classedError pairs a failure with its class so that errors.Is matches
// both the class sentinel and the underlying chain.
type classedError struct {
	class error
	err   error
}

func (e *classedError) Error() string   { return e.class.Error() + ": " + e.err.Error() }
func (e *classedError) Unwrap() []error { return []error{e.class, e.err} }

// classify wraps err under class; errors already carrying a class pass
// through unchanged.
func classify(class, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrCompile) || errors.Is(err, ErrSim) || errors.Is(err, ErrInternal) {
		return err
	}
	return &classedError{class: class, err: err}
}

// compileError classifies a failure to build or optimize a program: a
// graph that fails its check (pegasus.ErrInvalidGraph) is a compiler
// defect, anything else a rejection of the source.
func compileError(err error) error {
	if errors.Is(err, pegasus.ErrInvalidGraph) {
		return classify(ErrInternal, err)
	}
	return classify(ErrCompile, err)
}

// Classified wraps err under one of the facade's error classes — the
// exported form of the facade's own classification, for layers built on
// top of core (e.g. internal/serve keying a request's configuration).
func Classified(class, err error) error { return classify(class, err) }

// guard converts a panic escaping the facade into an ErrInternal-classed
// error. Every public Compile/Run entry point defers it, which is what
// makes the "no panic reachable from the facade" guarantee hold even for
// invariant violations deep in the optimizer or simulator.
func guard(err *error) {
	if r := recover(); r != nil {
		*err = classify(ErrInternal, &PanicError{Value: r, Stack: debug.Stack()})
	}
}
