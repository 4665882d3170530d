// Package codegen is the compiled-simulation backend: it lowers a built
// Pegasus graph into specialized flat bytecode — one firing rule per
// dynamic node with its operand kinds, consumer edges, occupancy slots,
// and latency resolved at lowering time — and executes that bytecode on
// a VM (vm.go) that replays the interpreter's event algebra exactly.
//
// The contract with the interpreted engine (internal/dataflow) is
// bit-identity: for any program and config, the compiled backend
// produces the same value, the same cycle count, the same event count,
// and the same (time, seq) event stream. The interpreter stays the
// differential oracle (internal/difftest runs every clean check against
// both engines) and the one engine that injects faults, profiles and
// traces; the compiled backend only removes constant factors:
//
//   - Per-node dispatch over *pegasus.Node, EachInput closures, and
//     kind-specific field decoding are replaced by pre-lowered rules
//     whose operands are immediates, static-slot reads, or direct port
//     indices.
//   - Values that are fixed for a whole activation (constants, params,
//     frame addresses, and pure computations over them) are folded at
//     lowering time into immediates where possible, and otherwise into
//     a short straight-line "static program" run once per activation
//     into a dense slot array — the interpreter's lazy memoized
//     staticValue walk disappears entirely.
//   - An input latch (vq) is one inline slot: every port has exactly one
//     producer edge, edges are one-place and a producer emits only while
//     its edges are empty, so a latch never holds a second value (the
//     interpreter's latches are FIFOs because injected faults can
//     duplicate a delivery).
//
// The event queue and the memory image are the interpreter's own
// (internal/evq, pegasus.Memory), so both engines pop the same events in
// the same (time, push order).
//
// See DESIGN.md "Compiled simulation" for the full format.
package codegen

import (
	"sync"

	"spatial/internal/cminor"
	"spatial/internal/pegasus"
)

// opcode selects the firing rule of one lowered node.
type opcode uint8

const (
	opEntry opcode = iota // KEntryTok: fired by newActivation, never by dispatch
	opBin
	opUn
	opConv
	opMux
	opCombine
	opMerge
	opEta
	opTokGen
	opLoad
	opStore
	opCall
	opReturn
	numOps
)

// argMode classifies a lowered operand.
type argMode uint8

const (
	// argImm: the operand folded to a constant at lowering time.
	argImm argMode = iota
	// argSlot: the operand is activation-static; read from the slot the
	// static program filled.
	argSlot
	// argPort: a dynamic operand consumed from an input latch.
	argPort
)

// oparg is one lowered operand: an immediate, a static slot, or a port.
type oparg struct {
	mode argMode
	idx  int32 // slot index (argSlot) or flat port index (argPort)
	imm  int64 // argImm value
}

// dest is one consumer edge of a rule's output: the consuming rule (for
// the delivery's recheck) and the flat port index the value lands in.
// Consumer edges live in gprog.dests at their occupancy slots, so edge i
// of a rule's class is dests[base+i] and its count is occ[base+i].
type dest struct {
	rule int32
	port int32
}

// rule is the lowered firing rule of one dynamic node. Which fields are
// meaningful depends on op; all are resolved at lowering time so the VM
// never touches *pegasus.Node on the hot path. Everything a firing reads
// is inline; the variable-length lists (operands, port lists, consumer
// edges) live in the gprog's tables, which the rule indexes by int32
// offsets, so a rule is 128 bytes (TestBlockedByGate pins it).
type rule struct {
	op       opcode
	fireOnce bool             // zero dynamic inputs: fires exactly once per activation
	outTok   bool             // primary output is the token output (combine, token-only merge/eta)
	unsigned bool             // opBin
	signed   bool             // opConv, opLoad: sign-extend the narrow result
	hasValue bool             // opCall: callee returns a value
	bin      cminor.BinOpKind // opBin
	un       pegasus.UnOpKind
	toBits   uint8 // opConv
	bytes    uint8 // opLoad/opStore access size
	lat      uint8 // output latency in cycles
	// shape marks a specialized operand pattern (shBin2/shUn1/shConv1)
	// that the firing path executes without the generic consume loops;
	// shapeA/shapeB are its dynamic input ports.
	shape          uint8
	shapeA, shapeB int32
	nodeID         int32 // pegasus node ID (event hook, stuck reports)
	tokN           int32 // opTokGen initial credit
	tokPort        int32 // opTokGen: port of Toks[0]

	// The full operand lists in consume order: nIns ins, nPreds preds
	// and nToks toks from gprog.args[argOff] on (all-input rules).
	argOff, nIns, nPreds, nToks int32
	// A merge's dynamic source ports in declaration order,
	// gprog.srcs[srcOff:][:nSrcs].
	srcOff, nSrcs int32

	// Consumer edges of the value and token outputs, in the same order
	// the interpreter builds them: class sizes and occupancy bases into
	// the activation's occ array and gprog.dests. The first dest of each
	// class is inlined (valD0/tokD0) so single-consumer emits, the
	// common case, never touch the table.
	valCnt     int32
	tokCnt     int32
	valOccBase int32
	tokOccBase int32
	valD0      dest
	tokD0      dest

	// predArg/dataArg are the eta and tokgen fast-path operands.
	predArg oparg
	dataArg oparg

	// callee is the lowered callee graph (nil: extern with no body).
	callee *gprog
}

// pmeta is the per-port static producer metadata the consume hot path
// touches: the producer's occupancy slot, the producer rule to recheck,
// and the consuming rule whose missing-input counter tracks this latch.
type pmeta struct {
	occ   int32
	prod  int32
	owner int32
	_     int32
}

// Gate kinds (vnode.gate): which of the node's counters prove that a
// fire attempt would fail, so the VM can skip it without dispatching.
// Lowering sets the gate; it lives in the per-activation state so the run
// loop's skip reads one cache line instead of two, and a once-only rule
// closes its gate to gateNever when it fires.
const (
	// gateNone: always attempt. Token generators, whose readiness also
	// depends on their credit and their predicate's value, and merges or
	// etas with dynamic inputs their fire path does not read.
	gateNone uint8 = iota
	// gateAll: all-input kinds (simple/mem/call/return), blocked while any
	// dynamic input latch is empty or any consumer edge is full (a call
	// also while its activation runs). Passing proves the rule fireable,
	// so these fire paths check nothing themselves.
	gateAll
	// gateMerge: blocked while a consumer edge is full or every source
	// latch is empty (missing equals the source count, held in counter).
	// Passing proves the merge fireable.
	gateMerge
	// gateEta: blocked while the predicate or the data latch is empty.
	// Passing does not prove the eta fireable: a true predicate still
	// needs room on its output edges.
	gateEta
	// gateNever: always blocked. The entry token, which fires only from
	// newActivation, and a once-only rule after it has fired.
	gateNever
)

// Specialized firing shapes (rule.shape).
const (
	shGeneric uint8 = iota
	shBin2          // opBin: exactly two port inputs, no preds/toks
	shUn1           // opUn: one port input, no preds/toks
	shConv1         // opConv: one port input, no preds/toks
)

// sop is a static-program instruction opcode.
type sop uint8

const (
	sParam sop = iota // dst = params[off]
	sAddr             // dst = frame + off (uint32 wraparound)
	sBin              // dst = a <bin> b
	sUn               // dst = <un> a
	sConv             // dst = conv(a)
	sMux              // dst = first mux[2k+1] with mux[2k] != 0, else 0
)

// sinstr is one instruction of the per-activation static program. Args
// are argImm or argSlot only; instructions are emitted in dependency
// order, so a single forward pass evaluates the whole program.
type sinstr struct {
	op   sop
	dst  int32
	bits uint8
	uns  bool
	sign bool
	bin  cminor.BinOpKind
	un   pegasus.UnOpKind
	off  int64
	a, b oparg
	mux  []oparg // pred0, in0, pred1, in1, ...
}

// gprog is one graph's lowered program. Immutable after lowering except
// pool; shared by every run of the module, including concurrent ones.
// It keeps nothing indexed by node ID: the cold paths that need a rule's
// or a port's node (stuck reports, a failed call) recover it from g
// (layout).
type gprog struct {
	g         *pegasus.Graph
	name      string
	numParams int
	frameSize uint32

	rules []rule
	// entryRule is the KEntryTok rule fired by newActivation (-1: none).
	entryRule int32
	// seeds are rules with no dynamic inputs, checked once at activation
	// start, in graph node order.
	seeds []int32
	// nodeInit is the pristine per-rule dynamic state (token-generator
	// credits, missing-input counters); activation state preparation is
	// one copy from it.
	nodeInit []vnode

	// Per-port static producer metadata: each input port has exactly one
	// producer edge, so consuming from port p releases occupancy slot
	// ports[p].occ and rechecks rule ports[p].prod (-1: the input is
	// activation-static and never latched). Value and token occupancy
	// share one flat array (value slots first, token slots after), so the
	// hot path never branches on the edge class. owner names the
	// consuming rule. One struct per port keeps everything consume
	// touches on a single cache line.
	ports []pmeta

	// The tables the rules index. args holds every all-input rule's
	// operands; srcs every merge's source ports; dests every consumer
	// edge, indexed by occupancy slot: value slots first, token slots
	// after, one per slot of an activation's occ array.
	args  []oparg
	srcs  []int32
	dests []dest

	// frameClass indexes the VM's per-size free-frame lists (assigned by
	// Compile over the module's distinct frame sizes).
	frameClass int32

	numPorts int
	numSlots int
	sprog    []sinstr

	// pool recycles vstate across activations of this graph; safe for
	// concurrent runs (each vstate is owned by one activation between
	// Get and Put).
	pool sync.Pool
}

// ruleLayout is what the cold paths (stuck reports, a failed call) need
// to know of each rule: its node and the flat index of its first input
// port.
type ruleLayout struct {
	nodes     []*pegasus.Node
	firstPort []int32
}

// layout recovers the ruleLayout from g. Lowering numbers rules and
// ports in node-ID order, which is the order of g.Nodes: one rule per
// dynamic node, one port per input of it.
func (gp *gprog) layout() ruleLayout {
	l := ruleLayout{make([]*pegasus.Node, len(gp.rules)), make([]int32, len(gp.rules))}
	ri, off := 0, int32(0)
	for _, n := range gp.g.Nodes {
		if ri == len(gp.rules) {
			break
		}
		if int32(n.ID) != gp.rules[ri].nodeID {
			continue
		}
		l.nodes[ri], l.firstPort[ri] = n, off
		off += int32(len(n.Ins) + len(n.Preds) + len(n.Toks))
		ri++
	}
	return l
}

// operands returns r's operand lists, in consume order.
func (gp *gprog) operands(r *rule) (ins, preds, toks []oparg) {
	a := gp.args[r.argOff : r.argOff+r.nIns+r.nPreds+r.nToks]
	return a[:r.nIns], a[r.nIns : r.nIns+r.nPreds], a[r.nIns+r.nPreds:]
}

// sources returns merge r's dynamic source ports (see rule.srcOff).
func (gp *gprog) sources(r *rule) []int32 {
	return gp.srcs[r.srcOff : r.srcOff+r.nSrcs]
}

// consumers returns the consumer edges of r's token or value output and
// the occupancy slot of the first; edge i's slot is base+i.
func (gp *gprog) consumers(r *rule, tok bool) (cons []dest, base int32) {
	if tok {
		return gp.dests[r.tokOccBase : r.tokOccBase+r.tokCnt], r.tokOccBase
	}
	return gp.dests[r.valOccBase : r.valOccBase+r.valCnt], r.valOccBase
}

// opLatencyOf mirrors dataflow's opLatency table.
func opLatencyOf(n *pegasus.Node) uint8 {
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

// lowerer holds per-graph lowering state. Its tables span the node-ID
// range and go when lowering ends.
type lowerer struct {
	mod *Module
	gp  *gprog
	// cl is the graph's classification, shared with the interpreter, so
	// both engines agree on what handshakes and number ports alike.
	cl *pegasus.Classification
	// By node ID: the rule (-1 for static and dead nodes), and the
	// memoized lowering of static nodes.
	ruleOf []int32
	memo   []oparg
	done   []bool
	slots  int
}

func (lw *lowerer) static(id int) bool { return lw.cl.Role[id] == pegasus.RoleStatic }

// portIndex is the flat index of one input slot of n.
func (lw *lowerer) portIndex(n *pegasus.Node, cls pegasus.Port, idx int) int32 {
	return lw.cl.PortBase[n.ID] + pegasus.PortOffset(n, cls) + int32(idx)
}

// lowerGraph fills gp with the lowered program for gp.g. The node
// iteration orders deliberately mirror dataflow.buildGraphInfo and
// newActivation so that consumer lists — and therefore event push order,
// seq numbering, and pop order — are identical to the interpreter's.
// g.Nodes is in node-ID order, so rules and ports are numbered in it.
func lowerGraph(mod *Module, gp *gprog) {
	g := gp.g
	maxID := g.MaxID()
	gp.frameSize = mod.prog.Layout.FrameSize[g.Fn]
	if g.Fn != nil {
		gp.numParams = len(g.Fn.Params)
	}
	lw := &lowerer{mod: mod, gp: gp, cl: pegasus.Classify(g)}
	// Rules are numbered in node-ID order, as the classification numbers
	// ports. The dynamic nodes, in that order, are what every later loop
	// walks.
	lw.ruleOf = make([]int32, maxID)
	for i := range lw.ruleOf {
		lw.ruleOf[i] = -1
	}
	dyn := make([]*pegasus.Node, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		if lw.cl.Role[n.ID] >= pegasus.RoleOnce {
			lw.ruleOf[n.ID] = int32(len(dyn))
			dyn = append(dyn, n)
		}
	}
	gp.numPorts = lw.cl.NumPorts
	gp.rules = make([]rule, len(dyn))
	// Count each producer's value and token consumers, in the
	// interpreter's iteration order (graph node order × EachInput order).
	nVal := make([]int32, 2*maxID)
	nTok := nVal[maxID:]
	nVal = nVal[:maxID:maxID]
	for _, n := range dyn {
		n.EachInput(func(r *pegasus.Ref, cls pegasus.Port, idx int) {
			if !r.Valid() || lw.static(r.N.ID) {
				return
			}
			if r.Out == pegasus.OutToken {
				nTok[r.N.ID]++
			} else {
				nVal[r.N.ID]++
			}
		})
	}
	// Occupancy slots: each producer's edges of one class are consecutive,
	// in node-ID order. Token slots live after all value slots in one flat
	// array, so consume and capacity checks never branch on the edge
	// class. Each count becomes its producer's fill cursor.
	occ := int32(0)
	for id := 0; id < maxID; id++ {
		if ri := lw.ruleOf[id]; ri >= 0 {
			gp.rules[ri].valOccBase, gp.rules[ri].valCnt = occ, nVal[id]
		}
		occ, nVal[id] = occ+nVal[id], occ
	}
	for id := 0; id < maxID; id++ {
		if ri := lw.ruleOf[id]; ri >= 0 {
			gp.rules[ri].tokOccBase, gp.rules[ri].tokCnt = occ, nTok[id]
		}
		occ, nTok[id] = occ+nTok[id], occ
	}
	// Consumer edges, filled in the same order as counted: a producer's
	// edge i lands at its occupancy slot. Each edge also fixes the
	// producer metadata of the port it feeds.
	gp.dests = make([]dest, occ)
	gp.ports = make([]pmeta, gp.numPorts)
	for p := range gp.ports {
		gp.ports[p].prod = -1
	}
	for ri, n := range dyn {
		owner := int32(ri)
		n.EachInput(func(r *pegasus.Ref, cls pegasus.Port, idx int) {
			if !r.Valid() || lw.static(r.N.ID) {
				return
			}
			cur := &nVal[r.N.ID]
			if r.Out == pegasus.OutToken {
				cur = &nTok[r.N.ID]
			}
			o := *cur
			*cur = o + 1
			p := lw.portIndex(n, cls, idx)
			gp.dests[o] = dest{rule: owner, port: p}
			gp.ports[p] = pmeta{occ: o, prod: lw.ruleOf[r.N.ID], owner: owner}
		})
	}
	// Size the operand and merge-source tables, so lowering fills them
	// without growing them.
	nArgs, nSrcs, nSeeds := 0, 0, 0
	for _, n := range dyn {
		switch n.Kind {
		case pegasus.KEta, pegasus.KTokenGen:
		case pegasus.KMerge:
			srcs, _ := mergeSources(n)
			for _, src := range srcs {
				if !lw.static(src.N.ID) {
					nSrcs++
				}
			}
		default:
			nArgs += len(n.Ins) + len(n.Preds) + len(n.Toks)
		}
		if lw.cl.Role[n.ID] == pegasus.RoleOnce && n.Kind != pegasus.KEntryTok {
			nSeeds++
		}
	}
	gp.args = make([]oparg, 0, nArgs)
	gp.srcs = make([]int32, 0, nSrcs)
	// Lower each dynamic node to its rule.
	lw.memo, lw.done = make([]oparg, maxID), make([]bool, maxID)
	for ri, n := range dyn {
		r := &gp.rules[ri]
		r.nodeID = int32(n.ID)
		if r.valCnt > 0 {
			r.valD0 = gp.dests[r.valOccBase]
		}
		if r.tokCnt > 0 {
			r.tokD0 = gp.dests[r.tokOccBase]
		}
		r.lat = opLatencyOf(n)
		r.fireOnce = lw.cl.Role[n.ID] == pegasus.RoleOnce && n.Kind != pegasus.KEntryTok
		lw.lowerRule(n, r)
		if r.nPreds == 0 && r.nToks == 0 {
			ins, _, _ := gp.operands(r)
			switch {
			case r.op == opBin && len(ins) == 2 && ins[0].mode == argPort && ins[1].mode == argPort:
				r.shape, r.shapeA, r.shapeB = shBin2, ins[0].idx, ins[1].idx
			case r.op == opUn && len(ins) == 1 && ins[0].mode == argPort:
				r.shape, r.shapeA = shUn1, ins[0].idx
			case r.op == opConv && len(ins) == 1 && ins[0].mode == argPort:
				r.shape, r.shapeA = shConv1, ins[0].idx
			}
		}
	}
	// Pristine per-rule dynamic state: missing-input counters start at
	// the full dynamic input count (all latches empty), token generators
	// at their initial credit, gated merges at their source count.
	gp.nodeInit = make([]vnode, len(dyn))
	gp.entryRule = -1
	gp.seeds = make([]int32, 0, nSeeds)
	for ri, n := range dyn {
		r, ns := &gp.rules[ri], &gp.nodeInit[ri]
		ns.missing = lw.cl.DynIns[n.ID]
		ns.gate = gateOf(r, ns.missing)
		switch r.op {
		case opTokGen:
			ns.counter = r.tokN
		case opMerge:
			ns.counter = r.nSrcs
		}
		// Seeds in graph node order (the interpreter's newActivation
		// order — seq numbering depends on it).
		if n == g.Entry {
			gp.entryRule = int32(ri)
		} else if r.fireOnce {
			gp.seeds = append(gp.seeds, int32(ri))
		}
	}
	gp.numSlots = lw.slots
}

// gateOf picks a lowered rule's gate kind. A merge or eta is gated only
// when its dynamic inputs are exactly the ports its fire path reads, so
// its missing counter counts those ports and nothing else.
func gateOf(r *rule, dynIns int32) uint8 {
	switch r.op {
	case opBin, opUn, opConv, opMux, opCombine, opLoad, opStore, opCall, opReturn:
		return gateAll
	case opMerge:
		if dynIns == r.nSrcs {
			return gateMerge
		}
	case opEta:
		if dynIns == isPort(r.predArg)+isPort(r.dataArg) {
			return gateEta
		}
	case opEntry:
		return gateNever
	}
	return gateNone
}

func isPort(g oparg) int32 {
	if g.mode == argPort {
		return 1
	}
	return 0
}

// lowerRule fills the kind-specific fields of one rule, appending its
// operands, or a merge's source ports, to the graph's tables.
func (lw *lowerer) lowerRule(n *pegasus.Node, r *rule) {
	gp := lw.gp
	r.argOff = int32(len(gp.args))
	switch n.Kind {
	case pegasus.KEntryTok:
		r.op = opEntry
	case pegasus.KBinOp:
		r.op = opBin
		r.bin = n.BinOp
		r.unsigned = n.Unsigned
	case pegasus.KUnOp:
		r.op = opUn
		r.un = n.UnOp
	case pegasus.KConv:
		r.op = opConv
		r.toBits = n.ToBits
		r.signed = n.ConvSign
	case pegasus.KMux:
		r.op = opMux
	case pegasus.KCombine:
		r.op = opCombine
		r.outTok = true
	case pegasus.KMerge:
		r.op = opMerge
		r.outTok = n.TokenOnly
		r.srcOff = int32(len(gp.srcs))
		srcs, cls := mergeSources(n)
		for i, src := range srcs {
			if lw.static(src.N.ID) {
				// Static merge inputs would fire unboundedly; the
				// builder never creates them.
				continue
			}
			gp.srcs = append(gp.srcs, lw.portIndex(n, cls, i))
		}
		r.nSrcs = int32(len(gp.srcs)) - r.srcOff
		return
	case pegasus.KEta:
		r.op = opEta
		r.predArg = lw.argOf(n, pegasus.PortPred, 0, n.Preds[0])
		if n.TokenOnly {
			r.outTok = true
			r.dataArg = lw.argOf(n, pegasus.PortTok, 0, n.Toks[0])
		} else {
			r.dataArg = lw.argOf(n, pegasus.PortIn, 0, n.Ins[0])
		}
		return
	case pegasus.KTokenGen:
		r.op = opTokGen
		r.outTok = true
		r.tokN = n.TokN
		r.tokPort = lw.portIndex(n, pegasus.PortTok, 0)
		r.predArg = lw.argOf(n, pegasus.PortPred, 0, n.Preds[0])
		return
	case pegasus.KLoad:
		r.op = opLoad
		r.bytes = n.Bytes
		r.signed = n.VT.Signed
	case pegasus.KStore:
		r.op = opStore
		r.bytes = n.Bytes
	case pegasus.KCall:
		r.op = opCall
		r.hasValue = n.HasValue()
		r.callee = lw.mod.progs[n.Callee.Name]
	case pegasus.KReturn:
		r.op = opReturn
	}
	// All-inputs rules: the operand lists in consume order.
	for i, rf := range n.Ins {
		gp.args = append(gp.args, lw.argOf(n, pegasus.PortIn, i, rf))
	}
	for i, rf := range n.Preds {
		gp.args = append(gp.args, lw.argOf(n, pegasus.PortPred, i, rf))
	}
	for i, rf := range n.Toks {
		gp.args = append(gp.args, lw.argOf(n, pegasus.PortTok, i, rf))
	}
	r.nIns, r.nPreds, r.nToks = int32(len(n.Ins)), int32(len(n.Preds)), int32(len(n.Toks))
}

// mergeSources returns a merge's source inputs and their port class.
func mergeSources(n *pegasus.Node) ([]pegasus.Ref, pegasus.Port) {
	if n.TokenOnly {
		return n.Toks, pegasus.PortTok
	}
	return n.Ins, pegasus.PortIn
}

// argOf lowers one input reference: static refs become immediates or
// slots, dynamic refs become ports.
func (lw *lowerer) argOf(n *pegasus.Node, cls pegasus.Port, idx int, r pegasus.Ref) oparg {
	if r.Valid() && lw.static(r.N.ID) {
		return lw.staticArg(r.N)
	}
	return oparg{mode: argPort, idx: lw.portIndex(n, cls, idx)}
}

// staticArg lowers a static node, memoized per graph: constant folding
// where every transitive input is a constant (or an absolute object
// address), a static-program slot otherwise.
func (lw *lowerer) staticArg(n *pegasus.Node) oparg {
	if lw.done[n.ID] {
		return lw.memo[n.ID]
	}
	a := lw.lowerStatic(n)
	lw.done[n.ID] = true
	lw.memo[n.ID] = a
	return a
}

func (lw *lowerer) newSlot() int32 {
	s := int32(lw.slots)
	lw.slots++
	return s
}

func imm(v int64) oparg  { return oparg{mode: argImm, imm: v} }
func slot(i int32) oparg { return oparg{mode: argSlot, idx: i} }

func (lw *lowerer) lowerStatic(n *pegasus.Node) oparg {
	gp := lw.gp
	layout := lw.mod.prog.Layout
	switch n.Kind {
	case pegasus.KConst:
		return imm(n.ConstVal)
	case pegasus.KParam:
		dst := lw.newSlot()
		gp.sprog = append(gp.sprog, sinstr{op: sParam, dst: dst, off: int64(n.ParamIdx)})
		return slot(dst)
	case pegasus.KAddrOf:
		if addr, ok := layout.AddressOfObject(n.Obj); ok {
			return imm(int64(addr))
		}
		dst := lw.newSlot()
		gp.sprog = append(gp.sprog, sinstr{op: sAddr, dst: dst, off: int64(layout.FrameOffset[n.Obj])})
		return slot(dst)
	case pegasus.KBinOp:
		a := lw.staticArg(n.Ins[0].N)
		b := lw.staticArg(n.Ins[1].N)
		if a.mode == argImm && b.mode == argImm {
			return imm(evalBin(n.BinOp, a.imm, b.imm, n.Unsigned))
		}
		dst := lw.newSlot()
		gp.sprog = append(gp.sprog, sinstr{op: sBin, dst: dst, a: a, b: b, bin: n.BinOp, uns: n.Unsigned})
		return slot(dst)
	case pegasus.KUnOp:
		a := lw.staticArg(n.Ins[0].N)
		if a.mode == argImm {
			return imm(evalUn(n.UnOp, a.imm))
		}
		dst := lw.newSlot()
		gp.sprog = append(gp.sprog, sinstr{op: sUn, dst: dst, a: a, un: n.UnOp})
		return slot(dst)
	case pegasus.KConv:
		a := lw.staticArg(n.Ins[0].N)
		if a.mode == argImm {
			return imm(convValue(a.imm, n.ToBits, n.ConvSign))
		}
		dst := lw.newSlot()
		gp.sprog = append(gp.sprog, sinstr{op: sConv, dst: dst, a: a, bits: n.ToBits, sign: n.ConvSign})
		return slot(dst)
	case pegasus.KMux:
		// Fold away constant-false arms; a constant-true predicate makes
		// the mux a pass-through of that arm. Any unknown predicate
		// forces a runtime select over the remaining arms.
		var pairs []oparg
		for i, p := range n.Preds {
			pa := lw.staticArg(p.N)
			if pa.mode == argImm {
				if pa.imm == 0 {
					continue // this arm can never be selected
				}
				if len(pairs) == 0 {
					return lw.staticArg(n.Ins[i].N) // first arm always taken
				}
				// A constant-true arm terminates the scan: keep it as
				// the final default and stop.
				pairs = append(pairs, pa, lw.staticArg(n.Ins[i].N))
				break
			}
			pairs = append(pairs, pa, lw.staticArg(n.Ins[i].N))
		}
		if len(pairs) == 0 {
			return imm(0) // no arm can be selected: the interpreter yields 0
		}
		dst := lw.newSlot()
		gp.sprog = append(gp.sprog, sinstr{op: sMux, dst: dst, mux: pairs})
		return slot(dst)
	}
	panic("codegen: lowerStatic on dynamic node kind " + n.Kind.String())
}
