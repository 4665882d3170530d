package dataflow

import (
	"fmt"

	"spatial/internal/cminor"
	"spatial/internal/pegasus"
	"spatial/internal/trace"
)

// Operation latencies in cycles, mirroring a SimpleScalar pisa pipeline
// (paper Section 7.3: "each operation has the same latency as in a pisa
// architecture SimpleScalar simulator").
func opLatency(n *pegasus.Node) int64 {
	switch n.Kind {
	case pegasus.KBinOp:
		switch n.BinOp {
		case cminor.OpMul:
			return 3
		case cminor.OpDiv, cminor.OpRem:
			return 20
		default:
			return 1
		}
	case pegasus.KMerge:
		return 0
	default:
		return 1
	}
}

// tryFire attempts to fire a node instance, repeating while it remains
// firable (queued inputs can enable several firings at the same cycle).
func (m *machine) tryFire(a *activation, n *pegasus.Node) {
	for m.fireOnce(a, n) {
	}
}

// fireOnce checks firability and executes a single firing. It returns
// true when the node fired.
func (m *machine) fireOnce(a *activation, n *pegasus.Node) bool {
	if a.done || a.gi.static[n.ID] || n.Dead {
		return false
	}
	if m.inj != nil {
		if thaw := m.inj.FrozenUntil(m.now, a.gi.g.Name, n.ID); thaw > m.now {
			// Frozen: recheck when the freeze expires.
			m.pushCheck(thaw, a, n)
			return false
		}
	}
	if a.gi.dynIns[n.ID] == 0 && n.Kind != pegasus.KEntryTok {
		// No wave signal: fire exactly once per activation.
		ns := &a.st.nodes[n.ID]
		if ns.firedOnce {
			return false
		}
		fired := m.dispatchTraced(a, n)
		if fired {
			ns.firedOnce = true
		}
		return fired
	}
	return m.dispatchTraced(a, n)
}

// dispatchTraced brackets a dispatch with the tracer's firing lifecycle:
// a candidate record opens before the attempt and commits only if the
// node actually fired. Consume/Emit hooks inside the attempt fill in the
// last-arriving input and output times.
func (m *machine) dispatchTraced(a *activation, n *pegasus.Node) bool {
	if m.tracer == nil {
		return m.dispatch(a, n)
	}
	m.tracer.BeginFiring(int32(a.id), a.gi.g.Name, n)
	fired := m.dispatch(a, n)
	m.tracer.EndFiring(m.now, fired)
	return fired
}

// stallInputs records a blocked fire attempt caused by a missing input,
// classified as token wait when the first missing input is a token port
// and data wait otherwise. It always returns false so failure sites can
// `return m.stallInputs(a, n)`.
func (m *machine) stallInputs(a *activation, n *pegasus.Node) bool {
	if m.tracer == nil {
		return false
	}
	cause := trace.StallData
	found := false
	n.EachInput(func(r *pegasus.Ref, cls pegasus.Port, idx int) {
		if found || !r.Valid() || m.inputReady(a, n, cls, idx, *r) {
			return
		}
		found = true
		if cls == pegasus.PortTok {
			cause = trace.StallToken
		}
	})
	m.tracer.Stall(n, cause)
	return false
}

// stallBack records a blocked fire attempt caused by a full output edge.
func (m *machine) stallBack(n *pegasus.Node) bool {
	if m.tracer != nil {
		m.tracer.Stall(n, trace.StallBackpressure)
	}
	return false
}

// stallTok records a blocked fire attempt waiting on a token (tokgen
// credit wait).
func (m *machine) stallTok(n *pegasus.Node) bool {
	if m.tracer != nil {
		m.tracer.Stall(n, trace.StallToken)
	}
	return false
}

func (m *machine) dispatch(a *activation, n *pegasus.Node) bool {
	switch n.Kind {
	case pegasus.KMerge:
		return m.fireMerge(a, n)
	case pegasus.KEta:
		return m.fireEta(a, n)
	case pegasus.KTokenGen:
		return m.fireTokenGen(a, n)
	case pegasus.KLoad, pegasus.KStore:
		return m.fireMemOp(a, n)
	case pegasus.KCall:
		return m.fireCall(a, n)
	case pegasus.KReturn:
		return m.fireReturn(a, n)
	case pegasus.KEntryTok:
		return false // fired once at activation start
	default:
		return m.fireSimple(a, n)
	}
}

// allInputsReady checks every declared input.
func (m *machine) allInputsReady(a *activation, n *pegasus.Node) bool {
	ready := true
	n.EachInput(func(r *pegasus.Ref, cls pegasus.Port, idx int) {
		if ready && !m.inputReady(a, n, cls, idx, *r) {
			ready = false
		}
	})
	return ready
}

// consumeAll consumes every input, returning values per port class. The
// returned slices are machine-owned scratch, valid until the next
// dispatch (dispatches never nest: a consume only schedules recheck
// events, it does not fire nodes inline).
func (m *machine) consumeAll(a *activation, n *pegasus.Node) (ins, preds, toks []int64) {
	m.insBuf = m.insBuf[:0]
	m.predsBuf = m.predsBuf[:0]
	m.toksBuf = m.toksBuf[:0]
	for i, r := range n.Ins {
		m.insBuf = append(m.insBuf, m.inputValue(a, n, pegasus.PortIn, i, r))
	}
	for i, r := range n.Preds {
		m.predsBuf = append(m.predsBuf, m.inputValue(a, n, pegasus.PortPred, i, r))
	}
	for i, r := range n.Toks {
		m.toksBuf = append(m.toksBuf, m.inputValue(a, n, pegasus.PortTok, i, r))
	}
	return m.insBuf, m.predsBuf, m.toksBuf
}

// fireSimple handles pure computational nodes (binop, unop, conv, mux,
// combine).
func (m *machine) fireSimple(a *activation, n *pegasus.Node) bool {
	if !m.allInputsReady(a, n) {
		return m.stallInputs(a, n)
	}
	outKind := pegasus.OutValue
	if !n.HasValue() && n.HasToken() {
		outKind = pegasus.OutToken
	}
	if !m.capacityFree(a, n, outKind) {
		return m.stallBack(n)
	}
	ins, preds, _ := m.consumeAll(a, n)
	m.stats.OpsFired++
	m.profile.record(n)
	t := m.now + opLatency(n)
	switch n.Kind {
	case pegasus.KBinOp:
		v, err := cminor.EvalBinOp(n.BinOp, ins[0], ins[1], n.Unsigned)
		if err != nil {
			v = 0 // hardware semantics: division by zero yields 0
		}
		m.emit(a, n, pegasus.OutValue, v, t)
	case pegasus.KUnOp:
		m.emit(a, n, pegasus.OutValue, evalUnOp(n.UnOp, ins[0]), t)
	case pegasus.KConv:
		m.emit(a, n, pegasus.OutValue, convValue(ins[0], n.ToBits, n.ConvSign), t)
	case pegasus.KMux:
		v := int64(0)
		for i, p := range preds {
			if p != 0 {
				v = ins[i]
				break
			}
		}
		m.emit(a, n, pegasus.OutValue, v, t)
	case pegasus.KCombine:
		m.emit(a, n, pegasus.OutToken, 1, t)
	case pegasus.KReturn:
		panic("unreachable")
	default:
		panic(fmt.Sprintf("fireSimple: %s", n))
	}
	return true
}

func evalUnOp(op pegasus.UnOpKind, x int64) int64 {
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
	case pegasus.UBool:
		if x != 0 {
			return 1
		}
		return 0
	}
	panic("bad unop")
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

// fireMerge forwards whichever input has arrived (one per firing).
func (m *machine) fireMerge(a *activation, n *pegasus.Node) bool {
	outKind := pegasus.OutValue
	srcs := n.Ins
	cls := pegasus.PortIn
	if n.TokenOnly {
		outKind = pegasus.OutToken
		srcs = n.Toks
		cls = pegasus.PortTok
	}
	if !m.capacityFree(a, n, outKind) {
		return m.stallBack(n)
	}
	for i, r := range srcs {
		if a.gi.static[r.N.ID] {
			// Static merge inputs would fire unboundedly; the builder
			// never creates them (merge inputs are etas).
			continue
		}
		if m.has(a, n, port{cls, i}) {
			v := m.consume(a, n, port{cls, i})
			m.stats.OpsFired++
			m.profile.record(n)
			m.emit(a, n, outKind, v, m.now+opLatency(n))
			return true
		}
	}
	return false
}

// fireEta forwards its input when the predicate is true, and quietly
// consumes it otherwise.
func (m *machine) fireEta(a *activation, n *pegasus.Node) bool {
	cls := pegasus.PortIn
	outKind := pegasus.OutValue
	if n.TokenOnly {
		cls = pegasus.PortTok
		outKind = pegasus.OutToken
	}
	if !m.inputReady(a, n, pegasus.PortPred, 0, n.Preds[0]) {
		return m.stallInputs(a, n)
	}
	var dataRef pegasus.Ref
	if n.TokenOnly {
		dataRef = n.Toks[0]
	} else {
		dataRef = n.Ins[0]
	}
	if !m.inputReady(a, n, cls, 0, dataRef) {
		return m.stallInputs(a, n)
	}
	// Peek the predicate: only a true predicate needs output capacity.
	var predVal int64
	if a.gi.static[n.Preds[0].N.ID] {
		predVal = m.staticValue(a, n.Preds[0])
	} else {
		predVal = m.peek(a, n, port{pegasus.PortPred, 0})
	}
	if predVal != 0 && !m.capacityFree(a, n, outKind) {
		return m.stallBack(n)
	}
	m.inputValue(a, n, pegasus.PortPred, 0, n.Preds[0]) // consume pred
	v := m.inputValue(a, n, cls, 0, dataRef)            // consume data
	m.stats.OpsFired++
	m.profile.record(n)
	if predVal != 0 {
		m.emit(a, n, outKind, v, m.now+opLatency(n))
	}
	return true
}

// fireTokenGen implements tk(n) (paper Section 6.3): token receipts
// increment the credit counter; a true predicate emits a token when
// credit is available; a false predicate (loop exit) resets the counter.
func (m *machine) fireTokenGen(a *activation, n *pegasus.Node) bool {
	ns := &a.st.nodes[n.ID]
	// Absorb token inputs eagerly.
	if m.has(a, n, port{pegasus.PortTok, 0}) {
		m.consume(a, n, port{pegasus.PortTok, 0})
		ns.counter++
		m.stats.OpsFired++
		m.profile.record(n)
		return true
	}
	if !m.inputReady(a, n, pegasus.PortPred, 0, n.Preds[0]) {
		return m.stallInputs(a, n)
	}
	var predVal int64
	if a.gi.static[n.Preds[0].N.ID] {
		predVal = m.staticValue(a, n.Preds[0])
	} else {
		predVal = m.peek(a, n, port{pegasus.PortPred, 0})
	}
	if predVal != 0 {
		if ns.counter <= 0 {
			return m.stallTok(n) // wait for credit from the trailing loop
		}
		if !m.capacityFree(a, n, pegasus.OutToken) {
			return m.stallBack(n)
		}
		m.inputValue(a, n, pegasus.PortPred, 0, n.Preds[0])
		ns.counter--
		m.stats.OpsFired++
		m.profile.record(n)
		m.emit(a, n, pegasus.OutToken, 1, m.now+opLatency(n))
		return true
	}
	// Loop finished: reset the credit counter.
	m.inputValue(a, n, pegasus.PortPred, 0, n.Preds[0])
	ns.counter = int32(n.TokN)
	m.stats.OpsFired++
	m.profile.record(n)
	return true
}

// fireMemOp executes a load or store: a false predicate squashes the
// access and forwards the token immediately (paper Section 3.1).
func (m *machine) fireMemOp(a *activation, n *pegasus.Node) bool {
	if !m.allInputsReady(a, n) {
		return m.stallInputs(a, n)
	}
	needVal := n.Kind == pegasus.KLoad && len(a.gi.valConsumers[n.ID]) > 0
	if needVal && !m.capacityFree(a, n, pegasus.OutValue) {
		return m.stallBack(n)
	}
	if !m.capacityFree(a, n, pegasus.OutToken) {
		return m.stallBack(n)
	}
	ins, preds, _ := m.consumeAll(a, n)
	m.stats.OpsFired++
	m.profile.record(n)
	if preds[0] == 0 {
		// Squashed: arbitrary value, immediate token.
		m.stats.NullMem++
		if n.Kind == pegasus.KLoad {
			m.emit(a, n, pegasus.OutValue, 0, m.now+1)
		}
		m.emit(a, n, pegasus.OutToken, 1, m.now+1)
		return true
	}
	addr := uint32(ins[0])
	if n.Kind == pegasus.KLoad {
		m.stats.DynLoads++
		done := m.msys.Submit(m.now, true, addr, int(n.Bytes))
		v := m.mem.Load(addr, int(n.Bytes), n.VT.Signed)
		m.emit(a, n, pegasus.OutValue, v, done)
		m.emit(a, n, pegasus.OutToken, 1, m.now+1)
	} else {
		m.stats.DynStores++
		m.msys.Submit(m.now, false, addr, int(n.Bytes))
		m.mem.Store(addr, int(n.Bytes), ins[1])
		m.emit(a, n, pegasus.OutToken, 1, m.now+1)
	}
	if m.inj != nil && m.msys.TakeFault() {
		// An injected memory fault: detected, never silently absorbed.
		m.fail(fmt.Errorf("%w: %s at address 0x%x, cycle %d", ErrMemFault, n, addr, m.now))
	}
	if m.tracer != nil {
		// The token is released at issue, one cycle after firing — before
		// the response returns; this early release is what lets dependent
		// memory operations overlap (paper Section 6).
		m.tracer.TokenRelease()
	}
	return true
}

// fireCall instantiates the callee; a false predicate squashes it. A
// call holds its outputs as if full until its activation returns: its
// outputs reserve their edges only at the return, so a call site firing
// again meanwhile could return a later, shorter activation first, and
// with no wave tags that value would pair with the earlier iteration
// (DESIGN.md, decision 5).
func (m *machine) fireCall(a *activation, n *pegasus.Node) bool {
	if !m.allInputsReady(a, n) {
		return m.stallInputs(a, n)
	}
	if a.st.nodes[n.ID].callBusy {
		return m.stallBack(n)
	}
	if n.HasValue() && !m.capacityFree(a, n, pegasus.OutValue) {
		return m.stallBack(n)
	}
	if !m.capacityFree(a, n, pegasus.OutToken) {
		return m.stallBack(n)
	}
	ins, preds, _ := m.consumeAll(a, n)
	m.stats.OpsFired++
	m.profile.record(n)
	if preds[0] == 0 {
		if n.HasValue() {
			m.emit(a, n, pegasus.OutValue, 0, m.now+1)
		}
		m.emit(a, n, pegasus.OutToken, 1, m.now+1)
		return true
	}
	callee := m.prog.Graph(n.Callee.Name)
	if callee == nil {
		m.fail(fmt.Errorf("%w: %s (extern declaration with no body?)", ErrUnbuiltCall, n.Callee.Name))
		return false
	}
	if m.nextActID >= m.cfg.MaxActivations {
		m.fail(fmt.Errorf("%w: %d activations, calling %s at cycle %d",
			ErrActivationLimit, m.nextActID, n.Callee.Name, m.now))
		return false
	}
	m.stats.Calls++
	m.newActivation(callee, ins, n, a)
	a.st.nodes[n.ID].callBusy = true
	return true
}

// fireReturn completes an activation.
func (m *machine) fireReturn(a *activation, n *pegasus.Node) bool {
	if !m.allInputsReady(a, n) {
		return m.stallInputs(a, n)
	}
	ins, _, _ := m.consumeAll(a, n)
	m.stats.OpsFired++
	m.profile.record(n)
	var val int64
	if len(ins) > 0 {
		val = ins[0]
	}
	m.complete(a)
	if a.retTo == nil {
		m.mainVal = val
		m.mainDone = true
		if m.tracer != nil {
			m.tracer.MarkFinal()
		}
		return true
	}
	call, parent := a.retTo, a.retAct
	if parent.done {
		// The caller returned first: a pure call's outputs need not
		// feed its caller's return, and nothing waits for them.
		return true
	}
	// Release the call. Its next inputs may have arrived while it was
	// busy, and when its outputs have no consumers no consume rechecks
	// it, so check it now if they are all latched.
	parent.st.nodes[call.ID].callBusy = false
	if parent.gi.dynIns[call.ID] > 0 && m.allInputsReady(parent, call) {
		m.pushCheck(m.now, parent, call)
	}
	if call.HasValue() {
		m.emit(parent, call, pegasus.OutValue, val, m.now+1)
	}
	m.emit(parent, call, pegasus.OutToken, 1, m.now+1)
	return true
}
