// Package api is the versioned wire contract of the cashd simulation
// service: the JSON request/response types served over HTTP by cmd/cashd,
// consumed by the client package, and shared with the in-process batch
// engine (internal/serve), so the network path and the library path speak
// one contract.
//
// The types here are deliberately self-contained — no imports from the
// compiler internals — and every field carries an explicit JSON tag.
// Field names are frozen for a given Version: additions are allowed
// (new optional fields), renames and removals are not. TestWireStability
// pins the marshaled field set so an accidental rename fails loudly.
package api

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// Version is the wire-format version; it prefixes every route ("/v1/run")
// and is baked into cache keys so incompatible daemons never share state.
const Version = "v1"

// Level selects an optimization preset, mirroring the compiler's
// opt.None … opt.Full.
type Level int

// Optimization presets.
const (
	LevelNone Level = iota
	LevelBasic
	LevelMedium
	LevelFull
)

// Passes overrides the preset with explicit per-pass toggles; a nil
// *Passes in Program means "use the Level's defaults". The fields mirror
// the optimizer's pass set (see DESIGN.md).
type Passes struct {
	ConstFold bool `json:"const_fold,omitempty"`
	CSE       bool `json:"cse,omitempty"`
	DCE       bool `json:"dce,omitempty"`

	DeadMemOps          bool `json:"dead_mem_ops,omitempty"`
	TokenRemoval        bool `json:"token_removal,omitempty"`
	TransitiveReduction bool `json:"transitive_reduction,omitempty"`

	MemMerge         bool `json:"mem_merge,omitempty"`
	StoreBeforeStore bool `json:"store_before_store,omitempty"`
	LoadAfterStore   bool `json:"load_after_store,omitempty"`
	LICM             bool `json:"licm,omitempty"`

	ReadOnlyLoops bool `json:"read_only_loops,omitempty"`
	MonotoneLoops bool `json:"monotone_loops,omitempty"`
	LoopDecouple  bool `json:"loop_decouple,omitempty"`
}

// Memory system kinds for MemConfig.Kind.
const (
	MemPerfect   = "perfect"
	MemRealistic = "realistic"
)

// Execution backends for Program.Backend.
const (
	BackendInterp   = "interp"
	BackendCompiled = "compiled"
)

// MemConfig describes the memory system a program runs against. The
// empty Kind means "perfect". Zero-valued parameters select the paper's
// defaults (Section 7.3), exactly like the in-process facade.
type MemConfig struct {
	Kind      string `json:"kind,omitempty"` // "perfect" (default) or "realistic"
	Ports     int    `json:"ports,omitempty"`
	QueueSize int    `json:"queue_size,omitempty"`

	PerfectLatency int64 `json:"perfect_latency,omitempty"`

	L1Bytes     int   `json:"l1_bytes,omitempty"`
	L1Latency   int64 `json:"l1_latency,omitempty"`
	L2Bytes     int   `json:"l2_bytes,omitempty"`
	L2Latency   int64 `json:"l2_latency,omitempty"`
	MemLatency  int64 `json:"mem_latency,omitempty"`
	WordGap     int64 `json:"word_gap,omitempty"`
	LineBytes   int   `json:"line_bytes,omitempty"`
	TLBPages    int   `json:"tlb_pages,omitempty"`
	TLBMissCost int64 `json:"tlb_miss_cost,omitempty"`
	PageBytes   int   `json:"page_bytes,omitempty"`
}

// SimConfig configures the dataflow simulation; zero fields select
// defaults (the server normalizes before caching, so two requests that
// differ only in defaulted fields share one compilation).
type SimConfig struct {
	Mem            *MemConfig `json:"mem,omitempty"`
	EdgeCap        int        `json:"edge_cap,omitempty"`
	MaxCycles      int64      `json:"max_cycles,omitempty"`
	MaxActivations int        `json:"max_activations,omitempty"`
}

// Program is the compile-time half of a request: everything that
// determines the resulting circuit and its default execution
// environment. It is the unit of caching and of shard routing — two
// requests with equal Programs hit one cache entry on one shard.
type Program struct {
	// Source is the cMinor program text.
	Source string `json:"source"`
	// Level selects the optimization preset.
	Level Level `json:"level"`
	// Passes, when present, overrides Level with explicit toggles.
	Passes *Passes `json:"passes,omitempty"`
	// Sim is the simulator configuration; nil means defaults.
	Sim *SimConfig `json:"sim,omitempty"`
	// Backend selects the execution engine: "" or BackendInterp for the
	// event-driven interpreter (the default), BackendCompiled for the
	// flat-bytecode engine. The two are bit-identical on results and
	// statistics; the choice still keys the compile cache, because a
	// cached Compiled carries its backend's prebuilt structures.
	Backend string `json:"backend,omitempty"`
	// Partitions once selected partitioned simulation, which produced
	// results bit-identical to the sequential engine.
	//
	// Deprecated: the partitioned mode was removed. The field is accepted
	// and ignored (it neither changes the run nor keys the compile cache);
	// it stays because v1 never removes a field.
	Partitions int `json:"partitions,omitempty"`
}

// CompileRequest is the body of POST /v1/compile: compile (and cache) a
// program without running it.
type CompileRequest = Program

// RunRequest is the body of POST /v1/run: a program plus one invocation.
// The run-time fields (Entry, Args, TimeoutMS, Trace) never affect the
// cache key.
type RunRequest struct {
	Program
	// Entry is the function to run ("main" when empty).
	Entry string `json:"entry,omitempty"`
	// Args are the entry function's arguments.
	Args []int64 `json:"args,omitempty"`
	// TimeoutMS, when positive, bounds the request's total time in the
	// service (queue wait plus run); exceeding it returns a
	// "deadline"-classed error with HTTP 504.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Trace requests a cycle-accurate event trace of the run; the
	// response's TraceID can be downloaded from GET /v1/trace/{id} as
	// Chrome trace-event JSON.
	Trace bool `json:"trace,omitempty"`
}

// BatchRequest is the body of POST /v1/batch. Results come back in
// request order, one item per run, successes and failures interleaved.
type BatchRequest struct {
	Runs []RunRequest `json:"runs"`
}

// Stats summarizes one simulated execution; Cycles and Events are
// bit-stable across identical requests (the service's determinism
// contract).
type Stats struct {
	Cycles    int64 `json:"cycles"`
	Events    int64 `json:"events"`
	OpsFired  int64 `json:"ops_fired"`
	DynLoads  int64 `json:"dyn_loads"`
	DynStores int64 `json:"dyn_stores"`
	NullMem   int64 `json:"null_mem"`
	Calls     int64 `json:"calls"`
}

// RunResponse is the success body of POST /v1/run and of each batch item.
type RunResponse struct {
	Value    int64 `json:"value"`
	Stats    Stats `json:"stats"`
	CacheHit bool  `json:"cache_hit"`
	// WaitNS is the time the request spent queued; TotalNS its full
	// residence time in the service.
	WaitNS  int64 `json:"wait_ns"`
	TotalNS int64 `json:"total_ns"`
	// TraceID names the recorded trace when the request set Trace.
	TraceID string `json:"trace_id,omitempty"`
}

// CompileResponse is the success body of POST /v1/compile.
type CompileResponse struct {
	// Key is the program's shard key in hex.
	Key string `json:"key"`
	// CacheHit reports whether the program was already compiled.
	CacheHit bool `json:"cache_hit"`
}

// BatchItem is one batch result: exactly one of Run and Err is set.
type BatchItem struct {
	Run *RunResponse `json:"run,omitempty"`
	Err *Error       `json:"error,omitempty"`
}

// BatchResponse is the body of POST /v1/batch; Results[i] answers
// Runs[i].
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// Key is a program's content address for shard routing: a SHA-256 digest
// over the versioned canonical JSON of the Program. It is stable across
// processes and hosts, which is what lets N daemons split one key space.
//
// Routing keys are computed on the raw wire form (a client cannot
// normalize configs); the server's compile cache additionally normalizes
// defaulted fields, so the cache may unify requests the router keeps
// apart — harmless, each shard just caches its own copy.
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Key computes the program's shard key.
func (p Program) Key() Key {
	b, err := json.Marshal(p)
	if err != nil {
		// Program contains only marshalable fields; this is unreachable
		// short of memory corruption.
		panic("api: marshal Program: " + err.Error())
	}
	h := sha256.New()
	h.Write([]byte(Version))
	h.Write([]byte{0})
	h.Write(b)
	var k Key
	h.Sum(k[:0])
	return k
}
