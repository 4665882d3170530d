// Package trace is the observability layer of the dataflow simulator: a
// cycle-timestamped event stream of node firings, edge stalls, and memory
// requests, with dynamic critical-path extraction, per-kind histograms,
// and Chrome trace-event export.
//
// The paper (Sections 5–7) explains every memory-optimization speedup in
// terms of the dynamic critical path through the Pegasus graph — tokens
// removed from the path, loads overlapped with computation. This package
// turns "the benchmark got faster" into "these token edges left the
// critical path": the simulator records, for every firing, which input
// arrived last and which firing produced it; walking those last-arrival
// back-edges from the final return yields the exact dynamic critical
// path, with cycles attributed per node kind and per token edge.
//
// The Tracer is driven by internal/dataflow through nil-guarded hooks, so
// an untraced run pays only a pointer comparison per hook site and
// allocates nothing.
package trace

import (
	"spatial/internal/memsys"
	"spatial/internal/pegasus"
)

// Config parameterizes a trace collection.
type Config struct {
	// MaxFirings caps the number of firing records retained (0 = the
	// default cap). When the cap is hit, collection keeps aggregate
	// counters but stops recording firings, and no critical path can be
	// extracted; Trace.Truncated reports this.
	MaxFirings int
	// MaxMemEvents caps retained memory events (0 = the default cap).
	MaxMemEvents int
}

// DefaultConfig returns the standard trace setup: generous event caps
// suitable for the paper's kernels.
func DefaultConfig() Config { return Config{}.withDefaults() }

func (c Config) withDefaults() Config {
	if c.MaxFirings <= 0 {
		c.MaxFirings = 4 << 20
	}
	if c.MaxMemEvents <= 0 {
		c.MaxMemEvents = 1 << 20
	}
	return c
}

// Cause classifies why a node could not fire when it was checked.
type Cause uint8

// Stall causes.
const (
	StallData         Cause = iota // a data or predicate input has not arrived
	StallToken                     // a token input has not arrived (memory-dependence wait)
	StallBackpressure              // an output edge buffer is full
	StallMemPort                   // memory request waited for an LSQ port or slot
	numCauses
)

var causeNames = [...]string{
	StallData: "data-wait", StallToken: "token-wait",
	StallBackpressure: "backpressure", StallMemPort: "mem-port",
}

// String names the cause.
func (c Cause) String() string { return causeNames[c] }

// Firing is one recorded node execution. Seq is its 1-based identifier;
// Parent is the Seq of the firing that produced this firing's
// last-arriving input (0 when every input was static or the firing was
// seeded at activation start).
type Firing struct {
	Seq   int64
	Node  *pegasus.Node
	Graph string
	Act   int32
	// Start is the cycle the node fired (all inputs present, outputs
	// free); End is the cycle its last output was delivered (== Start for
	// firings that emit nothing).
	Start, End int64
	// Parent identifies the last-arriving-input producer firing;
	// ParentTok marks that critical in-edge as a token edge.
	Parent    int64
	ParentTok bool
	// FirstWait is Start minus the arrival cycle of the earliest dynamic
	// input: how long the first operand sat latched waiting for the rest.
	FirstWait int64
}

// StallCounts is the per-cause stall tally for one key.
type StallCounts [numCauses]int64

// Tracer collects the event stream during one simulation. It is driven
// by the dataflow machine and implements memsys.Observer.
type Tracer struct {
	cfg     Config
	firings []Firing
	mem     []memsys.Event

	// current candidate firing (between BeginFiring and EndFiring).
	cur       Firing
	curFirst  int64 // earliest dynamic-input arrival, -1 = none
	curLast   int64 // latest dynamic-input arrival
	curActive bool
	curFinal  bool

	final     int64 // Seq of the program's final (main-return) firing
	truncated bool

	stallsByKind map[string]*StallCounts
	stallsByNode map[*pegasus.Node]*StallCounts

	memPortStall   int64
	tokenReleases  int64
	latByKind      map[string]*Hist
	waitByKind     map[string]*Hist
	lsqOccupancy   Hist
	droppedFirings int64
}

// New creates a Tracer.
func New(cfg Config) *Tracer {
	return &Tracer{
		cfg:          cfg.withDefaults(),
		stallsByKind: map[string]*StallCounts{},
		stallsByNode: map[*pegasus.Node]*StallCounts{},
		latByKind:    map[string]*Hist{},
		waitByKind:   map[string]*Hist{},
	}
}

// BeginFiring opens a candidate firing record for (act, n) in graph. The
// record is committed only if EndFiring reports success; a failed fire
// attempt reuses the same Seq.
func (t *Tracer) BeginFiring(act int32, graph string, n *pegasus.Node) {
	t.cur = Firing{
		Seq:  int64(len(t.firings)) + 1 + t.droppedFirings,
		Node: n, Graph: graph, Act: act,
	}
	t.curFirst, t.curLast = -1, -1
	t.curActive = true
	t.curFinal = false
}

// CurSeq returns the Seq the active firing will commit under (0 when no
// firing is active, e.g. the entry-token emission at activation start).
func (t *Tracer) CurSeq() int64 {
	if !t.curActive {
		return 0
	}
	return t.cur.Seq
}

// Consume records that the active firing consumed a dynamic input that
// arrived at cycle `at` from producer firing `prod` (0 = pre-trace or
// activation seed); tok marks token edges.
func (t *Tracer) Consume(prod, at int64, tok bool) {
	if !t.curActive {
		return
	}
	if t.curFirst < 0 || at < t.curFirst {
		t.curFirst = at
	}
	if at > t.curLast {
		t.curLast = at
		t.cur.Parent = prod
		t.cur.ParentTok = tok
	}
}

// Emit records an output delivery time of the active firing.
func (t *Tracer) Emit(at int64) {
	if t.curActive && at > t.cur.End {
		t.cur.End = at
	}
}

// TokenRelease counts one memory-token release (the early token a
// load/store emits as soon as it issues, before its response returns).
func (t *Tracer) TokenRelease() { t.tokenReleases++ }

// MarkFinal tags the active firing as the program's final firing (the
// main activation's return); the critical-path walk starts from it.
func (t *Tracer) MarkFinal() { t.curFinal = true }

// EndFiring commits (fired=true) or abandons (fired=false) the active
// firing. now is the fire cycle.
func (t *Tracer) EndFiring(now int64, fired bool) {
	if !t.curActive {
		return
	}
	t.curActive = false
	if !fired {
		return
	}
	f := t.cur
	f.Start = now
	if f.End < now {
		f.End = now
	}
	if t.curFirst >= 0 && now > t.curFirst {
		f.FirstWait = now - t.curFirst
	}
	kind := f.Node.Kind.String()
	histAdd(t.latByKind, kind, f.End-f.Start)
	histAdd(t.waitByKind, kind, f.FirstWait)
	if len(t.firings) >= t.cfg.MaxFirings {
		t.truncated = true
		t.droppedFirings++
		return
	}
	t.firings = append(t.firings, f)
	if t.curFinal {
		t.final = f.Seq
	}
}

// Stall records one blocked fire attempt of n.
func (t *Tracer) Stall(n *pegasus.Node, c Cause) {
	kind := n.Kind.String()
	sc := t.stallsByKind[kind]
	if sc == nil {
		sc = &StallCounts{}
		t.stallsByKind[kind] = sc
	}
	sc[c]++
	sn := t.stallsByNode[n]
	if sn == nil {
		sn = &StallCounts{}
		t.stallsByNode[n] = sn
	}
	sn[c]++
}

// MemEvent implements memsys.Observer.
func (t *Tracer) MemEvent(e memsys.Event) {
	t.lsqOccupancy.Add(int64(e.Queue))
	if w := e.PortWait(); w > 0 {
		t.memPortStall += w
		// Port contention is a stall cause like any other; account it
		// under the kind-level table so Summary lines it up with the
		// data/token/backpressure splits.
		kind := "load"
		if !e.Load {
			kind = "store"
		}
		sc := t.stallsByKind[kind]
		if sc == nil {
			sc = &StallCounts{}
			t.stallsByKind[kind] = sc
		}
		sc[StallMemPort] += w
	}
	if len(t.mem) < t.cfg.MaxMemEvents {
		t.mem = append(t.mem, e)
	} else {
		t.truncated = true
	}
}

func histAdd(m map[string]*Hist, k string, v int64) {
	h := m[k]
	if h == nil {
		h = &Hist{}
		m[k] = h
	}
	h.Add(v)
}

// Trace is the finished, immutable result of a traced run.
type Trace struct {
	Cycles  int64
	Firings []Firing
	Mem     []memsys.Event
	// Final is the Seq of the program's final firing (0 if the run did
	// not complete or the record was truncated away).
	Final int64
	// Truncated reports that event caps were hit; aggregates remain
	// exact, but the firing/mem slices are incomplete.
	Truncated bool

	// StallsByKind / StallsByNode tally blocked fire attempts per cause
	// (StallMemPort entries are cycles, from the LSQ model).
	StallsByKind map[string]*StallCounts
	StallsByNode map[*pegasus.Node]*StallCounts

	// LatencyByKind histograms firing latency (End-Start) per node kind;
	// WaitByKind histograms how long each firing's earliest operand
	// waited for the rest (input skew).
	LatencyByKind map[string]*Hist
	WaitByKind    map[string]*Hist
	// LSQOccupancy histograms load/store-queue depth at each submit.
	LSQOccupancy Hist
	// MemPortStallCycles is total cycles requests waited for an LSQ
	// port or queue slot; TokenReleases counts early memory-token
	// releases.
	MemPortStallCycles int64
	TokenReleases      int64
}

// TokenWaits is the number of blocked fire attempts attributed to a
// memory token (StallToken), over every node.
func (tr *Trace) TokenWaits() int64 {
	var n int64
	for _, sc := range tr.StallsByNode {
		n += sc[StallToken]
	}
	return n
}

// Finish seals the tracer into a Trace.
func (t *Tracer) Finish(cycles int64) *Trace {
	return &Trace{
		Cycles:             cycles,
		Firings:            t.firings,
		Mem:                t.mem,
		Final:              t.final,
		Truncated:          t.truncated,
		StallsByKind:       t.stallsByKind,
		StallsByNode:       t.stallsByNode,
		LatencyByKind:      t.latByKind,
		WaitByKind:         t.waitByKind,
		LSQOccupancy:       t.lsqOccupancy,
		MemPortStallCycles: t.memPortStall,
		TokenReleases:      t.tokenReleases,
	}
}
