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

// edge is one consumer edge of a producer's output: the consuming node
// and the flat index of the input port the value lands in, precomputed
// so delivery does no lookups. 16 bytes (TestSharedFootprint).
type edge struct {
	node *pegasus.Node
	port int32
}

// graphInfo caches per-graph structures shared by all activations: the
// node roles and port layout of pegasus.Classify, and every producer's
// consumer edges, so that one activation's entire dynamic state lives in
// a handful of dense slices.
//
// Immutability contract: after buildGraphInfo returns, no field except
// pool is ever written again. Runs on any number of goroutines read the
// same graphInfo concurrently (it lives in the program's Shared table).
type graphInfo struct {
	g *pegasus.Graph
	// role and portBase are the classification's node roles and port
	// bases, by node ID (its dynamic-input counts only the VM's lowerer
	// needs). Only dynamic nodes have ports; static and dead nodes are
	// never delivered to.
	role     []pegasus.Role
	portBase []int32
	numPorts int
	// edges holds every consumer edge, grouped by producer output in
	// node-ID order: output out of node id feeds
	// edges[edgeOff[2*id+out]:edgeOff[2*id+out+1]], in graph node order
	// of the consumers and EachInput order within each. Every dynamic
	// port has exactly one producer edge, so edge state (occupancy, the
	// fault-injection floors) lives at the consumer port.
	edges   []edge
	edgeOff []int32
	// tokGens lists the token generators, whose credit counters start at
	// TokN when an activation's state is prepared.
	tokGens []*pegasus.Node
	// pool recycles actState across activations of this graph, so calls
	// in steady state allocate nothing. graphInfo is shared by every run
	// of the program (see Shared), so the pool is also shared across
	// concurrent runs; sync.Pool is safe for that, and each actState is
	// owned by exactly one activation between Get and Put.
	pool sync.Pool
}

// static reports whether node id is activation-static.
func (gi *graphInfo) static(id int) bool { return gi.role[id] == pegasus.RoleStatic }

// portIndex returns the flat index of one input slot of a dynamic node.
func (gi *graphInfo) portIndex(n *pegasus.Node, cls pegasus.Port, idx int) int32 {
	return gi.portBase[n.ID] + pegasus.PortOffset(n, cls) + int32(idx)
}

// consumers returns the consumer edges of output out of node id.
func (gi *graphInfo) consumers(id int, out pegasus.Out) []edge {
	k := 2*id + int(out)
	return gi.edges[gi.edgeOff[k]:gi.edgeOff[k+1]]
}

func buildGraphInfo(g *pegasus.Graph) *graphInfo {
	cl := pegasus.Classify(g)
	gi := &graphInfo{g: g, role: cl.Role, portBase: cl.PortBase, numPorts: cl.NumPorts}
	// eachEdge visits every consumer edge in consumer order, with k =
	// 2*id+out naming its producer output.
	eachEdge := func(f func(k int, e edge)) {
		for _, n := range g.Nodes {
			if gi.role[n.ID] < pegasus.RoleOnce {
				continue
			}
			user := n
			n.EachInput(func(r *pegasus.Ref, cls pegasus.Port, idx int) {
				if r.Valid() && !gi.static(r.N.ID) {
					f(2*r.N.ID+int(r.Out), edge{user, gi.portIndex(user, cls, idx)})
				}
			})
		}
	}
	// Output k's edges are counted at off[k+2], so that after the prefix
	// sum off[k+1] is where they start; filling advances off[k+1] to where
	// they end, which is where output k+1's start.
	off := make([]int32, 2*g.MaxID()+2)
	eachEdge(func(k int, _ edge) { off[k+2]++ })
	for k := 2; k < len(off); k++ {
		off[k] += off[k-1]
	}
	gi.edges = make([]edge, off[len(off)-1])
	eachEdge(func(k int, e edge) {
		gi.edges[off[k+1]] = e
		off[k+1]++
	})
	gi.edgeOff = off[:len(off)-1]
	for _, n := range g.Nodes {
		if !n.Dead && n.Kind == pegasus.KTokenGen {
			gi.tokGens = append(gi.tokGens, n)
		}
	}
	return gi
}

// nodeState is the dynamic state of one node instance: delivery-order
// floors, the token generator's credit counter, the fired-once mark of
// wave-less nodes, and the busy mark of a call whose activation runs.
// Latches and edge occupancy live at the activation's ports (see
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

// latchEntry is one value latched at a consumer port. fireSeq and at
// record, for tracing, which firing produced it and when it arrived. The
// producer whose edge slot its consumption releases is the port's input
// reference.
type latchEntry struct {
	val     int64
	fireSeq int64
	at      int64
}

// portQueue is one input port's state: the FIFO of latched values and
// the occupancy of the port's producer edge (values in flight to it plus
// values latched). head indexes the front; buf is reset (retaining
// capacity) whenever the queue drains, so steady-state operation never
// allocates.
type portQueue struct {
	buf  []latchEntry
	head int32
	occ  int32
}

func (q *portQueue) size() int { return len(q.buf) - int(q.head) }

// actState is the entire dynamic state of one activation, grouped so the
// whole thing can be recycled through the graph's sync.Pool: per-node
// state, per-port latch queues and edge occupancy, memoized static
// values, and the parameter buffer.
type actState struct {
	nodes []nodeState
	ports []portQueue
	// floors, allocated only under fault injection, holds the earliest
	// legal delivery time per port so injected delays preserve its edge's
	// FIFO order (a slow wire is still a wire).
	floors []int64
	// memoized values of static nodes.
	staticVals []int64
	staticOK   []bool
	params     []int64
}

func newActState(gi *graphInfo) *actState {
	return &actState{
		nodes:      make([]nodeState, gi.g.MaxID()),
		ports:      make([]portQueue, gi.numPorts),
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
			st.ports[i] = portQueue{buf: st.ports[i].buf[:0]}
		}
		clear(st.floors)
		clear(st.staticOK)
	}
	for _, n := range gi.tokGens {
		st.nodes[n.ID].counter = n.TokN
	}
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
		if gi.role[n.ID] == pegasus.RoleOnce && n.Kind != pegasus.KEntryTok {
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
	if out == pegasus.OutToken {
		if t < ns.lastDeliverTok {
			t = ns.lastDeliverTok
		}
		ns.lastDeliverTok = t
	} else {
		if t < ns.lastDeliverVal {
			t = ns.lastDeliverVal
		}
		ns.lastDeliverVal = t
	}
	var fireSeq int64
	if m.tracer != nil {
		fireSeq = m.tracer.CurSeq()
		m.tracer.Emit(t)
	}
	for i, c := range a.gi.consumers(n.ID, out) {
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
			if a.st.floors == nil {
				a.st.floors = make([]int64, a.gi.numPorts)
			}
			if floor := &a.st.floors[c.port]; dt < *floor {
				dt = *floor
			} else {
				*floor = dt
			}
			if m.tracer != nil && dt > t {
				m.tracer.Emit(dt)
			}
		}
		for k := 0; k < copies; k++ {
			a.st.ports[c.port].occ++
			e := m.events.Push(dt)
			e.kind, e.act, e.node, e.dstPort, e.val, e.prodFire = evDeliver, a, c.node, c.port, val, fireSeq
		}
	}
}

// capacityFree reports whether every output edge of (a,n) for `out` is
// empty: edges hold one value (see Config).
func (m *machine) capacityFree(a *activation, n *pegasus.Node, out pegasus.Out) bool {
	for _, c := range a.gi.consumers(n.ID, out) {
		if a.st.ports[c.port].occ > 0 {
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
			q.buf = append(q.buf, latchEntry{val: e.val, fireSeq: e.prodFire, at: t})
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

// consume pops the front of the latch at port p, whose input reference
// is r, releasing the producer's edge slot and rechecking the producer.
func (m *machine) consume(a *activation, p int32, r pegasus.Ref) int64 {
	q := &a.st.ports[p]
	le := q.buf[q.head]
	q.head++
	if int(q.head) == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	q.occ--
	if m.tracer != nil {
		m.tracer.Consume(le.fireSeq, le.at, r.Out == pegasus.OutToken)
	}
	// The producer may have been stalled on this edge.
	m.pushCheck(m.now, a, r.N)
	return le.val
}

func (m *machine) has(a *activation, p int32) bool { return a.st.ports[p].size() > 0 }

func (m *machine) peek(a *activation, p int32) int64 {
	q := &a.st.ports[p]
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

// inputReady reports whether input r, at port p, is available.
func (m *machine) inputReady(a *activation, p int32, r pegasus.Ref) bool {
	return a.gi.static(r.N.ID) || m.has(a, p)
}

// inputValue fetches input r, at port p, consuming a dynamic one.
func (m *machine) inputValue(a *activation, p int32, r pegasus.Ref) int64 {
	if a.gi.static(r.N.ID) {
		return m.staticValue(a, r)
	}
	return m.consume(a, p, r)
}
