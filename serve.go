package spatial

import (
	"context"

	"spatial/api"
	"spatial/internal/serve"
)

// Engine is the batch simulation service: a content-addressed compile
// cache (an in-memory bounded LRU with single-flight) in front of a
// fixed worker pool with a bounded admission queue.
// Create one with NewEngine, submit with Do, DoBatch or Compile from any
// number of goroutines, and Close it when done. See internal/serve and
// DESIGN.md "Concurrency model" / "Service layer".
type Engine = serve.Engine

// EngineConfig parameterizes NewEngine; the zero value selects
// defaults (GOMAXPROCS workers, 4x queue depth, 64 cache entries).
type EngineConfig = serve.Config

// Program is the versioned wire form of a program's compile-time
// configuration (source, level, pass toggles, simulator config) — the
// same type the cashd daemon serves over HTTP (see package spatial/api).
type Program = api.Program

// BatchRequest is one simulation to execute: the embedded Program forms
// the cache key, run-time fields (Entry, Args, Trace, Deadline) do not.
type BatchRequest = serve.Request

// BatchResponse is the outcome of one request, including whether the
// compilation was served from the cache and the queue/total latency.
type BatchResponse = serve.Response

// BatchResult pairs one DoBatch item's response with its error.
type BatchResult = serve.BatchResult

// EngineStats is a snapshot of an engine's counters (runs, cache
// hits/misses/evictions, rejections, queue occupancy).
type EngineStats = serve.Stats

// Engine-level errors; compile and run failures come back classified
// as ErrCompile / ErrSim like everywhere else.
var (
	// ErrOverload reports a request shed because the admission queue was
	// full; back off and retry.
	ErrOverload = serve.ErrOverload
	// ErrEngineClosed reports a request submitted after Close.
	ErrEngineClosed = serve.ErrClosed
)

// NewEngine starts a batch simulation engine with an empty compile
// cache.
func NewEngine(cfg EngineConfig) *Engine { return serve.New(cfg) }

// Simulate is the one-shot convenience for a single request on a
// temporary engine, optionally configured by cfg (at most one; extras
// are ignored beyond the first).
//
// Each call builds and tears down a fresh engine, so nothing is shared
// between calls — in particular the compile cache starts empty every
// time, and two Simulate calls for the same program compile it twice.
// For repeated or concurrent use, keep an Engine.
func Simulate(ctx context.Context, req BatchRequest, cfg ...EngineConfig) (*BatchResponse, error) {
	var c EngineConfig
	if len(cfg) > 0 {
		c = cfg[0]
	}
	e := serve.New(c)
	defer e.Close()
	return e.Do(ctx, req)
}
