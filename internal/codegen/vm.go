package codegen

// This file is the bytecode executor. It replays the interpreter's event
// algebra exactly — same push order, same (time, seq) pop order, same
// statistics — while eliminating its constant factors: rules instead of
// node dispatch, latches holding their one value inline, one flat
// occupancy array, and inlined arithmetic that never allocates (division
// by zero yields 0 without an error value). The event queue and the
// memory image are the interpreter's own (internal/evq, pegasus.Memory).
// Zero steady-state allocations per event: activation state is pooled,
// and a fresh VM grows its queue slab and memory image in a handful of
// allocations. The VM runs clean schedules only: a run with fault
// injection, a profiler or a tracer interprets (core.Compiled.run).

import (
	"context"
	"fmt"

	"spatial/internal/cminor"
	"spatial/internal/dataflow"
	"spatial/internal/evq"
	"spatial/internal/memsys"
	"spatial/internal/pegasus"
)

// vnode is the per-rule dynamic state: the missing-input counter (number
// of currently empty dynamic input latches), the full-edge counter
// (number of occupied consumer edges: edges hold one value, plus one
// while a call's activation runs), the gate that reads them (see
// blocked), and counter: a token generator's credit, or a gated merge's
// source count. missing and full replace the interpreter's per-attempt
// input and capacity scans with comparisons: every all-input rule's
// capacity gate is exactly "no consumer edge full", because ops only
// ever emit on classes they gate on (returns and entries have no
// in-graph consumers at all). Four vnodes share a cache line.
type vnode struct {
	missing int32
	full    int32
	gate    uint8
	_       [3]byte
	counter int32
}

// blocked reports whether the node's gate proves that a fire attempt
// would fail. A false result proves only what the gate kind says (see the
// gate constants); the fire paths check the rest.
func (ns *vnode) blocked() bool {
	switch ns.gate {
	case gateAll:
		return ns.missing > 0 || ns.full > 0
	case gateMerge:
		return ns.full > 0 || ns.missing == ns.counter
	case gateEta:
		return ns.missing > 0
	case gateNever:
		return true
	}
	return false
}

// vq is one input latch: one inline slot. Every port has exactly one
// producer edge, and a producer emits only while all its consumer edges
// are empty (a call counts as full until its activation returns), so a
// latch never holds a second value. What consuming it releases and
// rechecks is static per port (pmeta).
type vq struct {
	v    int64
	held bool
}

// vstate is one activation's entire dynamic state, recycled through the
// gprog's pool.
type vstate struct {
	nodes []vnode
	ports []vq
	// occ holds every output edge's occupancy count, laid out like
	// gprog.dests: value edges first, then token edges — rule occupancy
	// bases and pmeta.occ indices are pre-offset at lowering.
	occ []int32
	// slots holds the static program's results; fully overwritten by
	// runStatics at activation start, so never cleared.
	slots  []int64
	params []int64
}

func newVstate(gp *gprog) *vstate {
	return &vstate{
		nodes: make([]vnode, len(gp.rules)),
		ports: make([]vq, gp.numPorts),
		occ:   make([]int32, len(gp.dests)),
		slots: make([]int64, gp.numSlots),
	}
}

// prepare resets recycled state to the pristine activation-start layout.
func (st *vstate) prepare(gp *gprog, fresh bool) {
	if !fresh {
		clear(st.ports)
		clear(st.occ)
	}
	copy(st.nodes, gp.nodeInit)
}

// vact is one dynamic instance of a function. The event-hot fields
// (done, st, gp) lead so the run loop touches only the struct's front.
type vact struct {
	done bool
	st   *vstate
	gp   *gprog
	id   int
	// retRule is the parent's call rule to complete when the return
	// fires (-1: this is the entry activation).
	retRule int32
	frame   uint32
	actsIdx int
	retAct  *vact
}

// vev is one scheduled event. dstPort >= 0 latches val there before the
// fire attempt (a delivery); dstPort < 0 only attempts the fire (a
// check).
type vev struct {
	val     int64
	act     *vact
	rule    int32
	dstPort int32
}

// vm executes one run of a lowered module; each run builds its own, as
// the interpreter builds its machine.
type vm struct {
	mod  *Module
	cfg  dataflow.Config
	mem  pegasus.Memory
	msys *memsys.System
	q    evq.Queue[vev]

	now   int64
	stats dataflow.Stats

	nextActID  int
	sp         uint32
	liveFrames int
	// freeFrames holds recycled frame offsets per frame-size class (see
	// gprog.frameClass).
	freeFrames [][]uint32

	mainVal  int64
	mainDone bool

	// failed counts fire attempts that reached a rule's fire path and
	// failed, by opcode (tests read it; only the failure path writes it).
	failed [numOps]int64

	insBuf   []int64
	predsBuf []int64
	toksBuf  []int64

	ctx     context.Context
	ctxTick int
	err     error

	acts []*vact
	// arena chunk-allocates vacts: fixed-size chunks are never
	// reallocated (events hold *vact), and consecutive activations share
	// cache lines.
	arena [][]vact

	evHook func(time, seq int64, act, node int)
}

// --- event queue ---

// push schedules a delivery of val to rule's port dst.
func (m *vm) push(t, val int64, a *vact, rule, dst int32) {
	e := m.q.Push(t)
	e.val, e.act, e.rule, e.dstPort = val, a, rule, dst
}

// pushCheck schedules a fire attempt; the payload comes back zeroed, so
// val needs no write.
func (m *vm) pushCheck(t int64, a *vact, ri int32) {
	e := m.q.Push(t)
	e.act, e.rule, e.dstPort = a, ri, -1
}

// --- run loop (mirrors machine.run) ---

func (m *vm) run() error {
	// Loop-invariant hoists: the compiler cannot prove these vm fields
	// unchanged across the call-heavy loop body.
	hasCtx := m.ctx != nil
	hasHook := m.evHook != nil
	maxCycles := m.cfg.MaxCycles
	for m.q.Len() > 0 {
		if hasCtx {
			m.ctxTick++
			if m.ctxTick >= 1024 {
				m.ctxTick = 0
				if err := m.ctx.Err(); err != nil {
					return fmt.Errorf("%w at cycle %d: %v", dataflow.ErrCanceled, m.now, err)
				}
			}
		}
		t, e := m.q.Pop()
		m.now = t
		if t > maxCycles {
			return &dataflow.LivelockError{MaxCycles: maxCycles, Report: m.stuckReport("livelock")}
		}
		m.stats.Events++
		a := e.act
		if hasHook {
			// Hooked runs spill every event, so Seq is its push index.
			m.evHook(t, m.q.Seq(), a.id, int(a.gp.rules[e.rule].nodeID))
		}
		if a.done {
			// Drop events for completed activations: their state has
			// been recycled (cross-activation edges do not exist).
			continue
		}
		ns := &a.st.nodes[e.rule]
		if e.dstPort >= 0 {
			a.st.ports[e.dstPort] = vq{v: e.val, held: true}
			ns.missing--
		}
		// An attempt the gate proves would fail has no observable effect:
		// skip the dispatch without touching the rule struct.
		if ns.blocked() {
			continue
		}
		m.tryFire(a, e.rule, ns)
		if m.err != nil {
			return m.err
		}
		if m.mainDone {
			return nil
		}
	}
	if !m.mainDone {
		return &dataflow.DeadlockError{Report: m.stuckReport("deadlock")}
	}
	return nil
}

// --- activations ---

func (m *vm) newActivation(gp *gprog, args []int64, retRule int32, retAct *vact) *vact {
	st, recycled := gp.pool.Get().(*vstate)
	if !recycled {
		st = newVstate(gp)
	}
	st.prepare(gp, !recycled)
	st.params = append(st.params[:0], args...)
	a := m.allocVact()
	a.id = m.nextActID
	a.gp = gp
	a.st = st
	a.retRule = retRule
	a.retAct = retAct
	a.actsIdx = len(m.acts)
	m.nextActID++
	m.acts = append(m.acts, a)
	a.frame = m.allocFrame(gp)
	m.runStatics(a)
	if gp.entryRule >= 0 {
		m.emit(a, gp.entryRule, &gp.rules[gp.entryRule], true, 1, m.now+1)
	}
	for _, ri := range gp.seeds {
		m.pushCheck(m.now+1, a, ri)
	}
	return a
}

const arenaChunk = 64

// allocVact hands out the next zeroed slot of the arena's current
// chunk. Chunks are fixed-capacity so handed-out pointers stay valid.
func (m *vm) allocVact() *vact {
	if n := len(m.arena); n == 0 || len(m.arena[n-1]) == cap(m.arena[n-1]) {
		m.arena = append(m.arena, make([]vact, 0, arenaChunk))
	}
	ch := m.arena[len(m.arena)-1]
	ch = ch[:len(ch)+1]
	m.arena[len(m.arena)-1] = ch
	return &ch[len(ch)-1]
}

func (m *vm) complete(a *vact) {
	a.done = true
	m.freeFrame(a)
	last := len(m.acts) - 1
	m.acts[a.actsIdx] = m.acts[last]
	m.acts[a.actsIdx].actsIdx = a.actsIdx
	m.acts[last] = nil
	m.acts = m.acts[:last]
	a.gp.pool.Put(a.st)
	a.st = nil
}

func (m *vm) allocFrame(gp *gprog) uint32 {
	size := gp.frameSize
	if size == 0 {
		return 0
	}
	m.liveFrames++
	if frames := m.freeFrames[gp.frameClass]; len(frames) > 0 {
		f := frames[len(frames)-1]
		m.freeFrames[gp.frameClass] = frames[:len(frames)-1]
		// Zero the recycled frame so first use and reuse are identical.
		m.mem.Clear(f, f+size)
		return f
	}
	f := m.sp
	m.sp += (size + 7) &^ 7
	if m.sp > m.mod.prog.Layout.MemSize {
		m.fail(fmt.Errorf("%w: %d frames live, frame top 0x%x past memory size 0x%x",
			dataflow.ErrStackOverflow, m.liveFrames, m.sp, m.mod.prog.Layout.MemSize))
	}
	return f
}

func (m *vm) freeFrame(a *vact) {
	if a.gp.frameSize > 0 {
		m.liveFrames--
		m.freeFrames[a.gp.frameClass] = append(m.freeFrames[a.gp.frameClass], a.frame)
	}
}

func (m *vm) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// runStatics executes the static program into the activation's slots.
// The interpreter evaluates the same values lazily with memoization;
// eager evaluation is equivalent because they are pure functions of the
// parameters and frame address.
func (m *vm) runStatics(a *vact) {
	st := a.st
	for i := range a.gp.sprog {
		ins := &a.gp.sprog[i]
		var v int64
		switch ins.op {
		case sParam:
			v = st.params[ins.off]
		case sAddr:
			v = int64(a.frame + uint32(ins.off))
		case sBin:
			v = evalBin(ins.bin, argv(st, ins.a), argv(st, ins.b), ins.uns)
		case sUn:
			v = evalUn(ins.un, argv(st, ins.a))
		case sConv:
			v = convValue(argv(st, ins.a), ins.bits, ins.sign)
		case sMux:
			for j := 0; j < len(ins.mux); j += 2 {
				if argv(st, ins.mux[j]) != 0 {
					v = argv(st, ins.mux[j+1])
					break
				}
			}
		}
		st.slots[ins.dst] = v
	}
}

func argv(st *vstate, g oparg) int64 {
	if g.mode == argImm {
		return g.imm
	}
	return st.slots[g.idx]
}

// --- delivery and consumption ---

// consume pops the front of a latch, releasing the producer's edge slot
// and rechecking the producer.
func (m *vm) consume(a *vact, p int32) int64 {
	st := a.st
	pm := &a.gp.ports[p]
	v := st.ports[p].v
	st.ports[p].held = false
	st.nodes[pm.owner].missing++
	o := st.occ[pm.occ]
	st.occ[pm.occ] = o - 1
	if o == 1 {
		st.nodes[pm.prod].full--
	}
	m.pushCheck(m.now, a, pm.prod)
	return v
}

// argVal resolves one operand, consuming dynamic ones.
func (m *vm) argVal(a *vact, g oparg) int64 {
	switch g.mode {
	case argImm:
		return g.imm
	case argSlot:
		return a.st.slots[g.idx]
	default:
		return m.consume(a, g.idx)
	}
}

// consumeClass consumes one operand class in order into a scratch buffer
// (mirrors consumeAll's per-class order: ins, then preds, then toks).
func (m *vm) consumeClass(a *vact, args []oparg, buf *[]int64) []int64 {
	b := (*buf)[:0]
	for i := range args {
		switch g := &args[i]; g.mode {
		case argImm:
			b = append(b, g.imm)
		case argSlot:
			b = append(b, a.st.slots[g.idx])
		default:
			b = append(b, m.consume(a, g.idx))
		}
	}
	*buf = b
	return b
}

// emit schedules delivery of one output to every consumer and reserves
// edge occupancy. An edge is full from its first occupant (one-place
// edges), and each crossing between empty and occupied maintains the
// rule's full counter. A rule emits only while its edges are empty, so a
// later emit never needs flooring behind an earlier delivery: the
// interpreter's in-order delivery floors never bind on clean schedules.
func (m *vm) emit(a *vact, ri int32, r *rule, tok bool, val, t int64) {
	st := a.st
	ns := &st.nodes[ri]
	cnt, d0, base := r.valCnt, r.valD0, r.valOccBase
	if tok {
		cnt, d0, base = r.tokCnt, r.tokD0, r.tokOccBase
	}
	if cnt == 1 {
		// Single consumer: the inlined dest avoids the dests table
		// entirely.
		o := st.occ[base] + 1
		st.occ[base] = o
		if o == 1 {
			ns.full++
		}
		m.push(t, val, a, d0.rule, d0.port)
		return
	}
	occ := st.occ[base:]
	for i, d := range a.gp.dests[base : base+cnt] {
		o := occ[i] + 1
		occ[i] = o
		if o == 1 {
			ns.full++
		}
		m.push(t, val, a, d.rule, d.port)
	}
}

// --- firing rules (mirror fire.go) ---

// tryFire fires a rule whose gate is open, and again after every success
// while its gate stays open. This is the interpreter's attempt sequence
// (done check, fire-once gate, dispatch, repeated until an attempt fails)
// minus the attempts the gate proves would fail, which have no
// observable effect.
func (m *vm) tryFire(a *vact, ri int32, ns *vnode) {
	r := &a.gp.rules[ri]
	for {
		// The open gate proves an all-input rule fireable, so its fire
		// path does not recheck its inputs or edges; the other fire paths
		// check for themselves.
		if !m.dispatch(a, ri, r) {
			m.failed[r.op]++
			return
		}
		if a.done {
			return
		}
		if r.fireOnce {
			ns.gate = gateNever
			return
		}
		if ns.blocked() {
			return
		}
	}
}

func (m *vm) dispatch(a *vact, ri int32, r *rule) bool {
	switch r.op {
	case opBin, opUn, opConv, opMux, opCombine:
		return m.fireSimple(a, ri, r)
	case opMerge:
		return m.fireMerge(a, ri, r)
	case opEta:
		return m.fireEta(a, ri, r)
	case opTokGen:
		return m.fireTokenGen(a, ri, r)
	case opLoad, opStore:
		return m.fireMemOp(a, ri, r)
	case opCall:
		return m.fireCall(a, ri, r)
	case opReturn:
		return m.fireReturn(a, r)
	default: // opEntry: fired once at activation start
		return false
	}
}

func (m *vm) fireSimple(a *vact, ri int32, r *rule) bool {
	if r.shape != shGeneric {
		// Specialized shapes: consume straight off the ports (same order
		// as the generic class loop) and emit.
		var v int64
		switch r.shape {
		case shBin2:
			x := m.consume(a, r.shapeA)
			y := m.consume(a, r.shapeB)
			v = evalBin(r.bin, x, y, r.unsigned)
		case shUn1:
			v = evalUn(r.un, m.consume(a, r.shapeA))
		default: // shConv1
			v = convValue(m.consume(a, r.shapeA), r.toBits, r.signed)
		}
		m.stats.OpsFired++
		m.emit(a, ri, r, false, v, m.now+int64(r.lat))
		return true
	}
	insArgs, predArgs, tokArgs := a.gp.operands(r)
	var ins, preds []int64
	if len(insArgs) > 0 {
		ins = m.consumeClass(a, insArgs, &m.insBuf)
	}
	if len(predArgs) > 0 {
		preds = m.consumeClass(a, predArgs, &m.predsBuf)
	}
	if len(tokArgs) > 0 {
		m.consumeClass(a, tokArgs, &m.toksBuf)
	}
	m.stats.OpsFired++
	t := m.now + int64(r.lat)
	var v int64
	switch r.op {
	case opBin:
		v = evalBin(r.bin, ins[0], ins[1], r.unsigned)
	case opUn:
		v = evalUn(r.un, ins[0])
	case opConv:
		v = convValue(ins[0], r.toBits, r.signed)
	case opMux:
		for i, p := range preds {
			if p != 0 {
				v = ins[i]
				break
			}
		}
	case opCombine:
		m.emit(a, ri, r, true, 1, t)
		return true
	}
	m.emit(a, ri, r, false, v, t)
	return true
}

func (m *vm) fireMerge(a *vact, ri int32, r *rule) bool {
	if a.st.nodes[ri].full > 0 {
		return false
	}
	for _, p := range a.gp.sources(r) {
		if a.st.ports[p].held {
			v := m.consume(a, p)
			m.stats.OpsFired++
			m.emit(a, ri, r, r.outTok, v, m.now+int64(r.lat))
			return true
		}
	}
	return false
}

func (m *vm) fireEta(a *vact, ri int32, r *rule) bool {
	st := a.st
	if r.predArg.mode == argPort && !st.ports[r.predArg.idx].held {
		return false
	}
	if r.dataArg.mode == argPort && !st.ports[r.dataArg.idx].held {
		return false
	}
	// Peek the predicate: only a true predicate needs output capacity.
	var predVal int64
	switch r.predArg.mode {
	case argImm:
		predVal = r.predArg.imm
	case argSlot:
		predVal = st.slots[r.predArg.idx]
	default:
		predVal = st.ports[r.predArg.idx].v
	}
	if predVal != 0 && st.nodes[ri].full > 0 {
		return false
	}
	if r.predArg.mode == argPort {
		m.consume(a, r.predArg.idx)
	}
	v := m.argVal(a, r.dataArg)
	m.stats.OpsFired++
	if predVal != 0 {
		m.emit(a, ri, r, r.outTok, v, m.now+int64(r.lat))
	}
	return true
}

func (m *vm) fireTokenGen(a *vact, ri int32, r *rule) bool {
	st := a.st
	ns := &st.nodes[ri]
	// Absorb token inputs eagerly.
	if st.ports[r.tokPort].held {
		m.consume(a, r.tokPort)
		ns.counter++
		m.stats.OpsFired++
		return true
	}
	if r.predArg.mode == argPort && !st.ports[r.predArg.idx].held {
		return false
	}
	var predVal int64
	switch r.predArg.mode {
	case argImm:
		predVal = r.predArg.imm
	case argSlot:
		predVal = st.slots[r.predArg.idx]
	default:
		predVal = st.ports[r.predArg.idx].v
	}
	if predVal != 0 {
		if ns.counter <= 0 {
			return false // wait for credit from the trailing loop
		}
		if ns.full > 0 {
			return false
		}
		if r.predArg.mode == argPort {
			m.consume(a, r.predArg.idx)
		}
		ns.counter--
		m.stats.OpsFired++
		m.emit(a, ri, r, true, 1, m.now+int64(r.lat))
		return true
	}
	// Loop finished: reset the credit counter.
	if r.predArg.mode == argPort {
		m.consume(a, r.predArg.idx)
	}
	ns.counter = r.tokN
	m.stats.OpsFired++
	return true
}

func (m *vm) fireMemOp(a *vact, ri int32, r *rule) bool {
	insArgs, predArgs, tokArgs := a.gp.operands(r)
	ins := m.consumeClass(a, insArgs, &m.insBuf)
	preds := m.consumeClass(a, predArgs, &m.predsBuf)
	if len(tokArgs) > 0 {
		m.consumeClass(a, tokArgs, &m.toksBuf)
	}
	m.stats.OpsFired++
	if preds[0] == 0 {
		// Squashed: arbitrary value, immediate token.
		m.stats.NullMem++
		if r.op == opLoad {
			m.emit(a, ri, r, false, 0, m.now+1)
		}
		m.emit(a, ri, r, true, 1, m.now+1)
		return true
	}
	addr := uint32(ins[0])
	if r.op == opLoad {
		m.stats.DynLoads++
		done := m.msys.Submit(m.now, true, addr, int(r.bytes))
		v := m.mem.Load(addr, int(r.bytes), r.signed)
		m.emit(a, ri, r, false, v, done)
		m.emit(a, ri, r, true, 1, m.now+1)
	} else {
		m.stats.DynStores++
		m.msys.Submit(m.now, false, addr, int(r.bytes))
		m.mem.Store(addr, int(r.bytes), ins[1])
		m.emit(a, ri, r, true, 1, m.now+1)
	}
	return true
}

// fireCall instantiates the callee; a false predicate squashes it. A
// call holds its outputs as if full until its activation returns, so the
// call site cannot start a second activation whose value could pair with
// the wrong wave (DESIGN.md, decision 5).
func (m *vm) fireCall(a *vact, ri int32, r *rule) bool {
	insArgs, predArgs, tokArgs := a.gp.operands(r)
	var ins []int64
	if len(insArgs) > 0 {
		ins = m.consumeClass(a, insArgs, &m.insBuf)
	}
	preds := m.consumeClass(a, predArgs, &m.predsBuf)
	if len(tokArgs) > 0 {
		m.consumeClass(a, tokArgs, &m.toksBuf)
	}
	m.stats.OpsFired++
	if preds[0] == 0 {
		if r.hasValue {
			m.emit(a, ri, r, false, 0, m.now+1)
		}
		m.emit(a, ri, r, true, 1, m.now+1)
		return true
	}
	if r.callee == nil {
		callee := a.gp.layout().nodes[ri].Callee
		m.fail(fmt.Errorf("%w: %s (extern declaration with no body?)", dataflow.ErrUnbuiltCall, callee.Name))
		return false
	}
	if m.nextActID >= m.cfg.MaxActivations {
		m.fail(fmt.Errorf("%w: %d activations, calling %s at cycle %d",
			dataflow.ErrActivationLimit, m.nextActID, r.callee.name, m.now))
		return false
	}
	m.stats.Calls++
	m.newActivation(r.callee, ins, ri, a)
	a.st.nodes[ri].full++
	return true
}

func (m *vm) fireReturn(a *vact, r *rule) bool {
	insArgs, predArgs, tokArgs := a.gp.operands(r)
	var ins []int64
	if len(insArgs) > 0 {
		ins = m.consumeClass(a, insArgs, &m.insBuf)
	}
	if len(predArgs) > 0 {
		m.consumeClass(a, predArgs, &m.predsBuf)
	}
	if len(tokArgs) > 0 {
		m.consumeClass(a, tokArgs, &m.toksBuf)
	}
	m.stats.OpsFired++
	var val int64
	if len(ins) > 0 {
		val = ins[0]
	}
	m.complete(a)
	if a.retRule < 0 {
		m.mainVal = val
		m.mainDone = true
		return true
	}
	parent := a.retAct
	if parent.done {
		// The caller returned first: a pure call's outputs need not
		// feed its caller's return, and nothing waits for them.
		return true
	}
	pr := &parent.gp.rules[a.retRule]
	// Release the call. Its next inputs may have arrived while it was
	// busy, and when its outputs have no consumers no consume rechecks
	// it, so check it now if they are all latched.
	pns := &parent.st.nodes[a.retRule]
	pns.full--
	if !pr.fireOnce && pns.missing == 0 {
		m.pushCheck(m.now, parent, a.retRule)
	}
	if pr.hasValue {
		m.emit(parent, a.retRule, pr, false, val, m.now+1)
	}
	m.emit(parent, a.retRule, pr, true, 1, m.now+1)
	return true
}

// --- arithmetic (inlined cminor.EvalBinOp without error allocation) ---

// evalBin mirrors cminor.EvalBinOp over 32-bit values; division or
// remainder by zero yields 0 (the interpreter maps the oracle's error to
// 0 — hardware semantics) without allocating an error.
func evalBin(op cminor.BinOpKind, l, r int64, uns bool) int64 {
	li, ri := int32(l), int32(r)
	lu, ru := uint32(l), uint32(r)
	switch op {
	case cminor.OpAdd:
		return int64(li + ri)
	case cminor.OpSub:
		return int64(li - ri)
	case cminor.OpMul:
		return int64(li * ri)
	case cminor.OpDiv:
		if ri == 0 {
			return 0
		}
		if uns {
			return int64(int32(lu / ru))
		}
		if li == -1<<31 && ri == -1 {
			return int64(li) // wraps like the sequential oracle
		}
		return int64(li / ri)
	case cminor.OpRem:
		if ri == 0 {
			return 0
		}
		if uns {
			return int64(int32(lu % ru))
		}
		if li == -1<<31 && ri == -1 {
			return 0
		}
		return int64(li % ri)
	case cminor.OpAnd:
		return int64(li & ri)
	case cminor.OpOr:
		return int64(li | ri)
	case cminor.OpXor:
		return int64(li ^ ri)
	case cminor.OpShl:
		return int64(li << (ru & 31))
	case cminor.OpShr:
		if uns {
			return int64(int32(lu >> (ru & 31)))
		}
		return int64(li >> (ru & 31))
	case cminor.OpEq:
		return b2i(li == ri)
	case cminor.OpNe:
		return b2i(li != ri)
	case cminor.OpLt:
		if uns {
			return b2i(lu < ru)
		}
		return b2i(li < ri)
	case cminor.OpLe:
		if uns {
			return b2i(lu <= ru)
		}
		return b2i(li <= ri)
	case cminor.OpGt:
		if uns {
			return b2i(lu > ru)
		}
		return b2i(li > ri)
	case cminor.OpGe:
		if uns {
			return b2i(lu >= ru)
		}
		return b2i(li >= ri)
	case cminor.OpLogAnd:
		return b2i(li != 0 && ri != 0)
	case cminor.OpLogOr:
		return b2i(li != 0 || ri != 0)
	}
	return 0
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func evalUn(op pegasus.UnOpKind, x int64) int64 {
	switch op {
	case pegasus.UNeg:
		return int64(int32(-x))
	case pegasus.UNot:
		if x == 0 {
			return 1
		}
		return 0
	case pegasus.UBitNot:
		return int64(int32(^x))
	default: // pegasus.UBool
		if x != 0 {
			return 1
		}
		return 0
	}
}

func convValue(v int64, bits uint8, signed bool) int64 {
	switch {
	case bits == 8 && signed:
		return int64(int8(v))
	case bits == 8:
		return int64(uint8(v))
	case bits == 16 && signed:
		return int64(int16(v))
	case bits == 16:
		return int64(uint16(v))
	default:
		return int64(int32(v))
	}
}
