// Package dataflow executes Pegasus graphs with self-timed
// (asynchronous-circuit) semantics, the execution model of spatial
// computation: every operation is its own functional unit, producers
// handshake with consumers over point-to-point edges with bounded
// buffering, memory operations flow through a load/store queue into a
// modeled cache hierarchy, and procedure calls instantiate the callee's
// graph. This is the "coarse hardware simulator" of the paper's
// Section 7.3.
//
// The engine's data layout is designed for allocation-free steady-state
// execution (see DESIGN.md "Simulator internals"): per-node input latches
// are dense slices indexed by port offsets precomputed in graphInfo, the
// event queue is the slab-backed calendar ring shared with the compiled
// VM (internal/evq), and per-activation state is one flat allocation
// pooled across activations of the same function.
package dataflow

import (
	"context"
	"fmt"
	"sync"

	"spatial/internal/cminor"
	"spatial/internal/evq"
	"spatial/internal/faultsim"
	"spatial/internal/memsys"
	"spatial/internal/pegasus"
	"spatial/internal/trace"
)

// Config parameterizes a simulation. Every edge is a one-place channel,
// as in the paper's circuits. Deliveries carry no wave tags, so a deeper
// edge would let a loop-entry merge take the next wave's entry value
// ahead of the current wave's loop-carried one (DESIGN.md, decision 5).
type Config struct {
	Mem memsys.Config
	// MaxCycles aborts runaway simulations.
	MaxCycles int64
	// MaxActivations bounds recursion/parallel call fan-out.
	MaxActivations int
}

// DefaultConfig returns the standard simulation setup: one-place edges on
// a dual-ported perfect memory.
func DefaultConfig() Config { return Config{}.Normalized() }

// Validate rejects nonsensical configurations with actionable messages.
// Zero fields mean "use the default" and pass; negative values are
// errors, not silently patched. Both engines validate (through CheckRun)
// before defaulting, and so do Normalized's facade callers.
func (c Config) Validate() error {
	if c.MaxCycles < 0 {
		return fmt.Errorf("dataflow: MaxCycles %d is negative; use 0 for the default budget or a positive cycle count", c.MaxCycles)
	}
	if c.MaxActivations < 0 {
		return fmt.Errorf("dataflow: MaxActivations %d is negative; use 0 for the default or a positive activation bound", c.MaxActivations)
	}
	return c.Mem.Validate()
}

// Normalized returns the configuration with every zero field replaced by
// its default — exactly what a run with this Config executes under. The
// facade normalizes once at compile time so the Config it reports
// matches what actually ran; it validates first (see Validate), so
// nonsensical values fail loudly there instead of being silently fixed.
func (c Config) Normalized() Config {
	if c.Mem == (memsys.Config{}) {
		c.Mem = memsys.PerfectConfig()
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 200_000_000
	}
	if c.MaxActivations <= 0 {
		c.MaxActivations = 1 << 20
	}
	return c
}

// Stats aggregates execution statistics.
type Stats struct {
	Cycles    int64
	OpsFired  int64
	Events    int64 // simulator events processed (deliveries + checks)
	DynLoads  int64 // loads executed with a true predicate
	DynStores int64 // stores executed with a true predicate
	NullMem   int64 // memory ops squashed by a false predicate
	Calls     int64
	Mem       memsys.Stats
}

// Result is the outcome of a simulation.
type Result struct {
	Value int64
	Stats Stats
}

// port identifies one input slot of a node.
type port struct {
	cls pegasus.Port
	idx int
}

// consumerEdge is one (producer output → consumer port) edge. dstPort is
// the consumer slot's flat port index, precomputed so delivery does no
// lookups.
type consumerEdge struct {
	node    *pegasus.Node
	p       port
	dstPort int32
}

// graphInfo caches per-graph structures shared by all activations: the
// static/dynamic node classification, consumer edge lists, and the flat
// index layout (port offsets, edge-occupancy offsets) that lets one
// activation's entire dynamic state live in a handful of dense slices.
//
// Immutability contract: after buildGraphInfo returns, no field except
// pool is ever written again. Runs on any number of goroutines read the
// same graphInfo concurrently (it lives in the program's Shared table).
type graphInfo struct {
	g *pegasus.Graph
	// nodeByID maps node IDs back to nodes (dense; nil for compacted IDs).
	nodeByID []*pegasus.Node
	// consumers[nodeID] lists the edges fed by that node's output.
	valConsumers [][]consumerEdge
	tokConsumers [][]consumerEdge
	// static[nodeID] marks nodes whose value is fixed for a whole
	// activation: constants, parameters, object addresses, and pure
	// computations over those. They do not handshake; consumers read them
	// directly (in hardware they are wires from the environment).
	static []bool
	// dynIns[nodeID] counts dynamic inputs. A dynamic node with zero
	// dynamic inputs has no wave signal; it fires exactly once per
	// activation (the builder guarantees such nodes only occur in the
	// entry hyperblock, which executes once).
	dynIns []int
	// inOff/predOff/tokOff[nodeID] are the flat port-index bases of the
	// node's input classes; portIndex composes them with the slot index.
	inOff   []int32
	predOff []int32
	tokOff  []int32
	// valEdgeOff/tokEdgeOff[nodeID] are the flat occupancy-index bases of
	// the node's output edges (one counter per consumer edge).
	valEdgeOff []int32
	tokEdgeOff []int32
	// tokGens lists token-generator node IDs whose credit counters need
	// (re)initializing to TokN when an activation's state is prepared.
	tokGens  []int32
	numPorts int
	numVal   int // total value-consumer edges
	numTok   int // total token-consumer edges
	// pool recycles actState across activations of this graph, so calls
	// in steady state allocate nothing. graphInfo is shared by every run
	// of the program (see Shared), so the pool is also shared across
	// concurrent runs; sync.Pool is safe for that, and each actState is
	// owned by exactly one activation between Get and Put.
	pool sync.Pool
}

// portIndex returns the flat index of one input slot. Only dynamic nodes
// have ports; static and dead nodes are never delivered to.
func (gi *graphInfo) portIndex(n *pegasus.Node, cls pegasus.Port, idx int) int32 {
	switch cls {
	case pegasus.PortIn:
		return gi.inOff[n.ID] + int32(idx)
	case pegasus.PortPred:
		return gi.predOff[n.ID] + int32(idx)
	default:
		return gi.tokOff[n.ID] + int32(idx)
	}
}

func buildGraphInfo(g *pegasus.Graph) *graphInfo {
	gi := &graphInfo{
		g:            g,
		nodeByID:     make([]*pegasus.Node, g.MaxID()),
		valConsumers: make([][]consumerEdge, g.MaxID()),
		tokConsumers: make([][]consumerEdge, g.MaxID()),
		static:       make([]bool, g.MaxID()),
	}
	for _, n := range g.Nodes {
		if !n.Dead {
			gi.nodeByID[n.ID] = n
		}
	}
	// Static closure over pure ops (node inputs always precede uses in
	// the forward DAG; iterate to a fixpoint to be order-independent).
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if n.Dead || gi.static[n.ID] {
				continue
			}
			s := false
			switch n.Kind {
			case pegasus.KConst, pegasus.KParam, pegasus.KAddrOf:
				s = true
			case pegasus.KBinOp, pegasus.KUnOp, pegasus.KConv, pegasus.KMux:
				s = true
				n.EachInput(func(r *pegasus.Ref, cls pegasus.Port, idx int) {
					if !r.Valid() || !gi.static[r.N.ID] {
						s = false
					}
				})
			}
			if s {
				gi.static[n.ID] = true
				changed = true
			}
		}
	}
	// Flat port layout: every dynamic node's declared inputs get
	// contiguous slots (static refs included — they are never latched,
	// but a uniform layout keeps indexing branch-free).
	gi.dynIns = make([]int, g.MaxID())
	gi.inOff = make([]int32, g.MaxID())
	gi.predOff = make([]int32, g.MaxID())
	gi.tokOff = make([]int32, g.MaxID())
	off := int32(0)
	for id := 0; id < g.MaxID(); id++ {
		n := gi.nodeByID[id]
		if n == nil || gi.static[id] {
			continue
		}
		gi.inOff[id] = off
		gi.predOff[id] = off + int32(len(n.Ins))
		gi.tokOff[id] = off + int32(len(n.Ins)+len(n.Preds))
		off += int32(len(n.Ins) + len(n.Preds) + len(n.Toks))
		if n.Kind == pegasus.KTokenGen {
			gi.tokGens = append(gi.tokGens, int32(id))
		}
	}
	gi.numPorts = int(off)
	for _, n := range g.Nodes {
		if n.Dead || gi.static[n.ID] {
			continue
		}
		user := n
		n.EachInput(func(r *pegasus.Ref, cls pegasus.Port, idx int) {
			if !r.Valid() || gi.static[r.N.ID] {
				return
			}
			gi.dynIns[user.ID]++
			e := consumerEdge{node: user, p: port{cls, idx}, dstPort: gi.portIndex(user, cls, idx)}
			if r.Out == pegasus.OutToken {
				gi.tokConsumers[r.N.ID] = append(gi.tokConsumers[r.N.ID], e)
			} else {
				gi.valConsumers[r.N.ID] = append(gi.valConsumers[r.N.ID], e)
			}
		})
	}
	// Flat occupancy layout follows the consumer lists.
	gi.valEdgeOff = make([]int32, g.MaxID())
	gi.tokEdgeOff = make([]int32, g.MaxID())
	vo, to := int32(0), int32(0)
	for id := 0; id < g.MaxID(); id++ {
		gi.valEdgeOff[id] = vo
		gi.tokEdgeOff[id] = to
		vo += int32(len(gi.valConsumers[id]))
		to += int32(len(gi.tokConsumers[id]))
	}
	gi.numVal = int(vo)
	gi.numTok = int(to)
	return gi
}

// nodeState is the dynamic state of one node instance: delivery-order
// floors, the token generator's credit counter, the fired-once mark of
// wave-less nodes, and the busy mark of a call whose activation runs.
// Latches and edge occupancy live in the activation's flat arrays (see
// actState), not here.
type nodeState struct {
	// lastDeliver enforces in-order output delivery.
	lastDeliverVal int64
	lastDeliverTok int64
	// tokgen credit counter.
	counter int32
	// firedOnce marks completion of zero-dynamic-input nodes.
	firedOnce bool
	// callBusy marks a call between its firing and its activation's
	// return: its outputs count as full (see fireCall).
	callBusy bool
}

// latchEntry is one arrived value latched at a consumer port, together
// with the producer-side bookkeeping needed to release the producer's
// edge slot on consumption (and, under tracing, attribute the arrival).
type latchEntry struct {
	val int64
	// fireSeq and at record, for tracing, which firing produced this
	// value and when it arrived.
	fireSeq  int64
	at       int64
	prodNode int32
	prodEdge int32
	prodTok  bool
}

// portQueue is the FIFO of values latched at one input port. head indexes
// the front; buf is reset (retaining capacity) whenever the queue drains,
// so steady-state operation never allocates.
type portQueue struct {
	buf  []latchEntry
	head int32
}

func (q *portQueue) size() int { return len(q.buf) - int(q.head) }

// actState is the entire dynamic state of one activation, grouped so the
// whole thing can be recycled through the graph's sync.Pool: per-node
// state, per-port latch queues, per-edge occupancy counters, memoized
// static values, and the parameter buffer.
type actState struct {
	nodes  []nodeState
	ports  []portQueue
	occVal []int32
	occTok []int32
	// nextVal/nextTok, allocated only under fault injection, track the
	// earliest legal delivery time per consumer edge so injected delays
	// preserve the edge's FIFO order (a slow wire is still a wire).
	nextVal []int64
	nextTok []int64
	// memoized values of static nodes.
	staticVals []int64
	staticOK   []bool
	params     []int64
}

func newActState(gi *graphInfo) *actState {
	return &actState{
		nodes:      make([]nodeState, gi.g.MaxID()),
		ports:      make([]portQueue, gi.numPorts),
		occVal:     make([]int32, gi.numVal),
		occTok:     make([]int32, gi.numTok),
		staticVals: make([]int64, gi.g.MaxID()),
		staticOK:   make([]bool, gi.g.MaxID()),
	}
}

// prepare resets recycled state to the pristine activation-start layout
// (fresh state from newActState is already zero except the counters).
func (st *actState) prepare(gi *graphInfo, fresh bool) {
	if !fresh {
		clear(st.nodes)
		for i := range st.ports {
			st.ports[i].buf = st.ports[i].buf[:0]
			st.ports[i].head = 0
		}
		clear(st.occVal)
		clear(st.occTok)
		clear(st.nextVal)
		clear(st.nextTok)
		clear(st.staticOK)
	}
	for _, id := range gi.tokGens {
		st.nodes[id].counter = int32(gi.nodeByID[id].TokN)
	}
}

// edgeNext returns the per-consumer-edge minimum-next-delivery array for
// one output class of node id, allocating the backing array on first use
// (fault injection only).
func (st *actState) edgeNext(gi *graphInfo, out pegasus.Out, id int) []int64 {
	if out == pegasus.OutToken {
		if st.nextTok == nil {
			st.nextTok = make([]int64, gi.numTok)
		}
		return st.nextTok[gi.tokEdgeOff[id]:]
	}
	if st.nextVal == nil {
		st.nextVal = make([]int64, gi.numVal)
	}
	return st.nextVal[gi.valEdgeOff[id]:]
}

// activation is one dynamic instance of a function.
type activation struct {
	id    int
	gi    *graphInfo
	frame uint32
	st    *actState
	done  bool
	// actsIdx is this activation's slot in machine.acts (live set).
	actsIdx int
	// parent call to complete when KReturn fires.
	retTo  *pegasus.Node
	retAct *activation
}

func (a *activation) params() []int64 { return a.st.params }

// machine is the simulator. One machine executes one run; the only state
// it shares with concurrent runs of the same program is the immutable
// *Shared table (and the actState pools inside it, which are
// concurrency-safe).
type machine struct {
	prog   *pegasus.Program
	cfg    Config
	mem    pegasus.Memory
	msys   *memsys.System
	shared *Shared
	events evq.Queue[event]
	now    int64
	stats  Stats

	nextActID int
	// frame allocator: free frames by size, plus the live-frame count for
	// overflow diagnostics.
	sp         uint32
	liveFrames int
	freeFrames map[uint32][]uint32

	mainAct  *activation
	mainVal  int64
	mainDone bool

	// scratch buffers reused by consumeAll; a dispatch never nests inside
	// another dispatch, so one set suffices.
	insBuf   []int64
	predsBuf []int64
	toksBuf  []int64

	// profile, when non-nil, records per-node firing counts.
	profile *Profile

	// tracer, when non-nil, records the full event stream (firings,
	// stalls, memory requests). Every hook below is guarded by a nil
	// check and allocates nothing when disabled.
	tracer *trace.Tracer

	// inj, when non-nil, perturbs deliveries, fire attempts, and memory
	// responses (fault injection). Nil-guarded like the tracer.
	inj *faultsim.Injector

	// ctx, when non-nil, cancels the run between events.
	ctx     context.Context
	ctxTick int
	// err latches the first fire-path failure; the run loop stops on it.
	err error

	// acts registers every live activation for stuck-state diagnosis;
	// completed activations are removed so their state can be recycled.
	acts []*activation

	// evHook, when non-nil, observes every processed event (tests: the
	// deterministic-replay invariant). Nil-guarded like the tracer.
	evHook func(time, seq int64, act int, node *pegasus.Node)
}

func (m *machine) info(g *pegasus.Graph) *graphInfo { return m.shared.info(g) }

func (m *machine) newActivation(g *pegasus.Graph, args []int64, retTo *pegasus.Node, retAct *activation) *activation {
	gi := m.info(g)
	st, recycled := gi.pool.Get().(*actState)
	if !recycled {
		st = newActState(gi)
	}
	st.prepare(gi, !recycled)
	st.params = append(st.params[:0], args...)
	a := &activation{
		id:      m.nextActID,
		gi:      gi,
		st:      st,
		retTo:   retTo,
		retAct:  retAct,
		actsIdx: len(m.acts),
	}
	m.nextActID++
	m.acts = append(m.acts, a)
	a.frame = m.allocFrame(g.Fn)
	// Fire the entry token.
	if g.Entry != nil {
		m.emit(a, g.Entry, pegasus.OutToken, 1, m.now+1)
	}
	// Seed nodes with no dynamic inputs: nothing will ever deliver to
	// them, so check them once explicitly.
	for _, n := range g.Nodes {
		if !n.Dead && !gi.static[n.ID] && gi.dynIns[n.ID] == 0 && n.Kind != pegasus.KEntryTok {
			m.pushCheck(m.now+1, a, n)
		}
	}
	return a
}

// complete retires a finished activation: it leaves the live set and its
// state returns to the graph's pool. Events still in flight for it are
// dropped by the run loop on the done flag, which is checked before any
// state access — the recycled actState is never touched through a stale
// event.
func (m *machine) complete(a *activation) {
	a.done = true
	m.freeFrame(a)
	last := len(m.acts) - 1
	m.acts[a.actsIdx] = m.acts[last]
	m.acts[a.actsIdx].actsIdx = a.actsIdx
	m.acts[last] = nil
	m.acts = m.acts[:last]
	a.gi.pool.Put(a.st)
	a.st = nil
}

func (m *machine) allocFrame(fn *cminor.FuncDecl) uint32 {
	size := m.prog.Layout.FrameSize[fn]
	if size == 0 {
		return 0
	}
	m.liveFrames++
	if frames := m.freeFrames[size]; len(frames) > 0 {
		f := frames[len(frames)-1]
		m.freeFrames[size] = frames[:len(frames)-1]
		// Zero the recycled frame. A fresh frame starts zeroed (simulated
		// memory is zero-initialized), so without this a program reading
		// an uninitialized local would see different values on first use
		// versus reuse — breaking determinism across activation orders.
		m.mem.Clear(f, f+size)
		return f
	}
	f := m.sp
	m.sp += (size + 7) &^ 7
	if m.sp > m.prog.Layout.MemSize {
		m.fail(fmt.Errorf("%w: %d frames live, frame top 0x%x past memory size 0x%x",
			ErrStackOverflow, m.liveFrames, m.sp, m.prog.Layout.MemSize))
	}
	return f
}

// fail latches the first fire-path failure; the run loop surfaces it.
func (m *machine) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

func (m *machine) freeFrame(a *activation) {
	size := m.prog.Layout.FrameSize[a.gi.g.Fn]
	if size > 0 {
		m.liveFrames--
		m.freeFrames[size] = append(m.freeFrames[size], a.frame)
	}
}

func (m *machine) pushCheck(t int64, a *activation, n *pegasus.Node) {
	e := m.events.Push(t)
	e.kind, e.act, e.node = evCheck, a, n
}

// emit schedules delivery of one output of (a, n) to every consumer and
// reserves edge occupancy.
func (m *machine) emit(a *activation, n *pegasus.Node, out pegasus.Out, val int64, t int64) {
	ns := &a.st.nodes[n.ID]
	var cons []consumerEdge
	var occ []int32
	if out == pegasus.OutToken {
		if t < ns.lastDeliverTok {
			t = ns.lastDeliverTok
		}
		ns.lastDeliverTok = t
		cons = a.gi.tokConsumers[n.ID]
		occ = a.st.occTok[a.gi.tokEdgeOff[n.ID]:]
	} else {
		if t < ns.lastDeliverVal {
			t = ns.lastDeliverVal
		}
		ns.lastDeliverVal = t
		cons = a.gi.valConsumers[n.ID]
		occ = a.st.occVal[a.gi.valEdgeOff[n.ID]:]
	}
	var fireSeq int64
	if m.tracer != nil {
		fireSeq = m.tracer.CurSeq()
		m.tracer.Emit(t)
	}
	for i := range cons {
		c := &cons[i]
		dt := t
		copies := 1
		if m.inj != nil {
			switch fa := m.inj.Deliver(m.now, a.gi.g.Name, n.ID, out == pegasus.OutToken, i); fa.Kind {
			case faultsim.ActDrop:
				copies = 0
			case faultsim.ActDup:
				copies = 2
			case faultsim.ActDelay:
				dt = t + fa.Delay
			}
			// Preserve the edge's FIFO order under injected delays: a
			// later delivery may not overtake a delayed one.
			next := a.st.edgeNext(a.gi, out, n.ID)
			if dt < next[i] {
				dt = next[i]
			}
			next[i] = dt
			if m.tracer != nil && dt > t {
				m.tracer.Emit(dt)
			}
		}
		for k := 0; k < copies; k++ {
			occ[i]++
			e := m.events.Push(dt)
			e.kind, e.act, e.node, e.dstPort, e.val = evDeliver, a, c.node, c.dstPort, val
			e.prodNode, e.prodTok, e.prodEdge, e.prodFire = int32(n.ID), out == pegasus.OutToken, int32(i), fireSeq
		}
	}
}

// capacityFree reports whether every output edge of (a,n) for `out` is
// empty: edges hold one value (see Config).
func (m *machine) capacityFree(a *activation, n *pegasus.Node, out pegasus.Out) bool {
	var occ []int32
	var ne int
	if out == pegasus.OutToken {
		occ = a.st.occTok[a.gi.tokEdgeOff[n.ID]:]
		ne = len(a.gi.tokConsumers[n.ID])
	} else {
		occ = a.st.occVal[a.gi.valEdgeOff[n.ID]:]
		ne = len(a.gi.valConsumers[n.ID])
	}
	for _, o := range occ[:ne] {
		if o > 0 {
			return false
		}
	}
	return true
}

func (m *machine) run() error {
	for m.events.Len() > 0 {
		if m.err != nil {
			return m.err
		}
		if m.ctx != nil {
			m.ctxTick++
			if m.ctxTick >= 1024 {
				m.ctxTick = 0
				if err := m.ctx.Err(); err != nil {
					return fmt.Errorf("%w at cycle %d: %v", ErrCanceled, m.now, err)
				}
			}
		}
		t, e := m.events.Pop()
		m.now = t
		if t > m.cfg.MaxCycles {
			return &LivelockError{MaxCycles: m.cfg.MaxCycles, Report: m.stuckReport("livelock")}
		}
		m.stats.Events++
		if m.evHook != nil {
			// Hooked runs spill every event, so Seq is its push index.
			m.evHook(t, m.events.Seq(), e.act.id, e.node)
		}
		if e.act.done {
			// Drop events for completed activations: their state has been
			// recycled, and nothing in a live activation depends on them
			// (cross-activation edges do not exist).
			continue
		}
		switch e.kind {
		case evDeliver:
			q := &e.act.st.ports[e.dstPort]
			q.buf = append(q.buf, latchEntry{
				val: e.val, fireSeq: e.prodFire, at: t,
				prodNode: e.prodNode, prodEdge: e.prodEdge, prodTok: e.prodTok,
			})
			m.tryFire(e.act, e.node)
		case evCheck:
			m.tryFire(e.act, e.node)
		}
		if m.err != nil {
			return m.err
		}
		if m.mainDone {
			return nil
		}
	}
	if !m.mainDone {
		return &DeadlockError{Report: m.stuckReport("deadlock")}
	}
	return nil
}

// consume pops the front of a latch, releasing the producer edge slot and
// rechecking the producer.
func (m *machine) consume(a *activation, n *pegasus.Node, p port) int64 {
	q := &a.st.ports[a.gi.portIndex(n, p.cls, p.idx)]
	le := q.buf[q.head]
	q.head++
	if int(q.head) == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	if le.prodTok {
		a.st.occTok[a.gi.tokEdgeOff[le.prodNode]+le.prodEdge]--
	} else {
		a.st.occVal[a.gi.valEdgeOff[le.prodNode]+le.prodEdge]--
	}
	if m.tracer != nil {
		m.tracer.Consume(le.fireSeq, le.at, le.prodTok)
	}
	// The producer may have been stalled on this edge.
	m.pushCheck(m.now, a, a.gi.nodeByID[le.prodNode])
	return le.val
}

func (m *machine) has(a *activation, n *pegasus.Node, p port) bool {
	return a.st.ports[a.gi.portIndex(n, p.cls, p.idx)].size() > 0
}

func (m *machine) peek(a *activation, n *pegasus.Node, p port) int64 {
	q := &a.st.ports[a.gi.portIndex(n, p.cls, p.idx)]
	return q.buf[q.head].val
}

// staticValue evaluates a static node's value (memoized per activation):
// sources directly, pure computations recursively over static inputs.
func (m *machine) staticValue(a *activation, r pegasus.Ref) int64 {
	n := r.N
	if a.st.staticOK[n.ID] {
		return a.st.staticVals[n.ID]
	}
	var v int64
	switch n.Kind {
	case pegasus.KConst:
		v = n.ConstVal
	case pegasus.KParam:
		v = a.st.params[n.ParamIdx]
	case pegasus.KAddrOf:
		if addr, ok := m.prog.Layout.AddressOfObject(n.Obj); ok {
			v = int64(addr)
		} else {
			v = int64(a.frame + m.prog.Layout.FrameOffset[n.Obj])
		}
	case pegasus.KBinOp:
		l := m.staticValue(a, n.Ins[0])
		r2 := m.staticValue(a, n.Ins[1])
		var err error
		v, err = cminor.EvalBinOp(n.BinOp, l, r2, n.Unsigned)
		if err != nil {
			v = 0
		}
	case pegasus.KUnOp:
		v = evalUnOp(n.UnOp, m.staticValue(a, n.Ins[0]))
	case pegasus.KConv:
		v = convValue(m.staticValue(a, n.Ins[0]), n.ToBits, n.ConvSign)
	case pegasus.KMux:
		for i, p := range n.Preds {
			if m.staticValue(a, p) != 0 {
				v = m.staticValue(a, n.Ins[i])
				break
			}
		}
	default:
		panic("staticValue on dynamic node kind " + n.Kind.String())
	}
	a.st.staticOK[n.ID] = true
	a.st.staticVals[n.ID] = v
	return v
}

// inputReady reports whether an input ref is available.
func (m *machine) inputReady(a *activation, n *pegasus.Node, cls pegasus.Port, idx int, r pegasus.Ref) bool {
	if a.gi.static[r.N.ID] {
		return true
	}
	return m.has(a, n, port{cls, idx})
}

// inputValue fetches an input, consuming dynamic ones.
func (m *machine) inputValue(a *activation, n *pegasus.Node, cls pegasus.Port, idx int, r pegasus.Ref) int64 {
	if a.gi.static[r.N.ID] {
		return m.staticValue(a, r)
	}
	return m.consume(a, n, port{cls, idx})
}
