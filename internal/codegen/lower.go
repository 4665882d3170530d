// Package codegen is the compiled-simulation backend: it lowers a built
// Pegasus graph into specialized flat bytecode — one firing rule per
// dynamic node with its operand kinds, consumer edges, occupancy slots,
// and latency resolved at lowering time — and executes that bytecode on
// a VM (vm.go) that replays the interpreter's event algebra exactly.
//
// The contract with the interpreted engine (internal/dataflow) is
// bit-identity: for any program, config, and fault plan, the compiled
// backend produces the same value, the same cycle count, the same event
// count, and the same (time, seq) event stream. The interpreter stays
// the differential oracle (internal/difftest runs every check against
// both engines); the compiled backend only removes constant factors:
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
//   - Input latches are bare []int64 FIFOs: every port has exactly one
//     producer edge, so the producer bookkeeping the interpreter
//     carries per latched value is precomputed per port.
//   - The global (time, seq) binary heap is replaced by a calendar
//     ring of per-cycle FIFO buckets (near-future events, the common
//     case: latencies are 0–20 cycles) plus a small spill min-heap that
//     holds only true asynchrony — far-future deliveries such as
//     delayed memory responses or injected delays. Because the global
//     seq counter is monotone and the ring only holds events within
//     its horizon, FIFO bucket order IS (time, seq) order, and every
//     spill event at a time t precedes all ring events at t.
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
// The occupancy counter for edge i of a rule lives at occ[base+i], so no
// index needs to ride along.
type dest struct {
	rule int32
	port int32
}

// rule is the lowered firing rule of one dynamic node. Which fields are
// meaningful depends on op; all are resolved at lowering time so the VM
// never touches *pegasus.Node on the hot path.
type rule struct {
	op         opcode
	fireOnce   bool // zero dynamic inputs: fires exactly once per activation
	outTok     bool // primary output is the token output (combine, token-only merge/eta)
	unsigned   bool // opBin
	convSign   bool // opConv
	loadSigned bool // opLoad: sign-extend sub-word loads
	needVal    bool // opLoad: value output has consumers
	hasValue   bool // opCall: callee returns a value
	bin        cminor.BinOpKind
	un         pegasus.UnOpKind
	nodeID     int32 // pegasus node ID (fault matching, stuck reports)
	toBits     int32 // opConv
	bytes      int32 // opLoad/opStore access size
	tokN       int32 // opTokGen initial credit
	tokPort    int32 // opTokGen: port of Toks[0]
	lat        int64 // output latency in cycles

	// shape marks a specialized operand pattern (shBin2/shUn1/shConv1)
	// that the pre-gated firing path executes without the generic
	// consume loops; shapeA/shapeB are its dynamic input ports.
	shape          uint8
	shapeA, shapeB int32

	// needPorts lists the dynamic input ports that must be non-empty
	// before an all-inputs rule (simple/mem/call/return) may fire.
	needPorts []int32
	// ins/preds/toks are the full operand lists in consume order.
	ins, preds, toks []oparg
	// predArg/dataArg are the eta and tokgen fast-path operands.
	predArg oparg
	dataArg oparg
	// srcPorts are a merge's dynamic source ports in declaration order.
	srcPorts []int32

	// Consumer edges of the value and token outputs, in the same order
	// the interpreter builds them, with the occupancy bases into the
	// activation's occVal/occTok arrays. The first dest of each class
	// and the class sizes are inlined (valD0/tokD0, valCnt/tokCnt) so
	// single-consumer emits — the common case — never touch the slices.
	valCons    []dest
	tokCons    []dest
	valD0      dest
	tokD0      dest
	valCnt     int32
	tokCnt     int32
	valOccBase int32
	tokOccBase int32

	// callee is the lowered callee graph (nil: extern with no body).
	callee     *gprog
	calleeName string
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
	// needPort is empty or any consumer edge is full. Passing proves the
	// rule fireable.
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
	bits int32
	uns  bool
	sign bool
	bin  cminor.BinOpKind
	un   pegasus.UnOpKind
	off  int64
	a, b oparg
	mux  []oparg // pred0, in0, pred1, in1, ...
}

// gprog is one graph's lowered program plus the cold-path metadata
// (static classification, port layout, node table) the stuck-state
// diagnosis needs. Immutable after lowering except pool; shared by every
// run of the module, including concurrent ones.
type gprog struct {
	g         *pegasus.Graph
	name      string
	numParams int
	frameSize uint32

	rules []rule
	// ruleOf maps node ID → rule index (-1 for static/dead nodes).
	ruleOf []int32
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
	// ports[p].occ and rechecks rule ports[p].prod. Value and token
	// occupancy share one flat array (value slots first, token slots
	// after), so the hot path never branches on the edge class. owner
	// names the consuming rule. One struct per port keeps everything
	// consume touches on a single cache line. portTok records the edge
	// class (cold path: backpressure diagnosis).
	ports   []pmeta
	portTok []bool

	// frameClass indexes the VM's per-size free-frame lists (assigned by
	// Compile over the module's distinct frame sizes).
	frameClass int32

	// Cold-path mirrors of the interpreter's graphInfo, used only by the
	// stuck-state diagnosis.
	nodeByID []*pegasus.Node
	static   []bool
	dynIns   []int
	inOff    []int32
	predOff  []int32
	tokOff   []int32

	numPorts int
	// numOcc is the total occupancy slot count (value slots in
	// [0, numVal), token slots in [numVal, numOcc)).
	numOcc   int
	numVal   int
	numSlots int
	sprog    []sinstr

	// pool recycles vstate across activations of this graph; safe for
	// concurrent runs (each vstate is owned by one activation between
	// Get and Put).
	pool sync.Pool
}

// portIndex is the flat index of one input slot (cold path; the hot path
// uses pre-resolved indices).
func (gp *gprog) portIndex(n *pegasus.Node, cls pegasus.Port, idx int) int32 {
	switch cls {
	case pegasus.PortIn:
		return gp.inOff[n.ID] + int32(idx)
	case pegasus.PortPred:
		return gp.predOff[n.ID] + int32(idx)
	default:
		return gp.tokOff[n.ID] + int32(idx)
	}
}

// portLoc recovers the consuming node and input slot of a flat port
// index (cold path: rendering backpressure wait edges).
func (gp *gprog) portLoc(p int32) (*pegasus.Node, pegasus.Port, int) {
	n := gp.nodeByID[gp.rules[gp.ports[p].owner].nodeID]
	switch {
	case p < gp.predOff[n.ID]:
		return n, pegasus.PortIn, int(p - gp.inOff[n.ID])
	case p < gp.tokOff[n.ID]:
		return n, pegasus.PortPred, int(p - gp.predOff[n.ID])
	default:
		return n, pegasus.PortTok, int(p - gp.tokOff[n.ID])
	}
}

// opLatencyOf mirrors dataflow's opLatency table.
func opLatencyOf(n *pegasus.Node) int64 {
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

// lowerer holds per-graph lowering state.
type lowerer struct {
	mod   *Module
	g     *pegasus.Graph
	gp    *gprog
	memo  []oparg // static node ID → lowered arg
	done  []bool
	slots int
}

// lowerGraph fills gp with the lowered program for gp.g. The node
// iteration orders deliberately mirror dataflow.buildGraphInfo and
// newActivation so that consumer lists — and therefore event push order,
// seq numbering, and pop order — are identical to the interpreter's.
func lowerGraph(mod *Module, gp *gprog) {
	g := gp.g
	maxID := g.MaxID()
	gp.frameSize = mod.prog.Layout.FrameSize[g.Fn]
	if g.Fn != nil {
		gp.numParams = len(g.Fn.Params)
	}
	gp.nodeByID = make([]*pegasus.Node, maxID)
	gp.static = make([]bool, maxID)
	for _, n := range g.Nodes {
		if !n.Dead {
			gp.nodeByID[n.ID] = n
		}
	}
	// Static closure over pure ops — the same fixpoint as the
	// interpreter, so both engines agree on what handshakes.
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if n.Dead || gp.static[n.ID] {
				continue
			}
			s := false
			switch n.Kind {
			case pegasus.KConst, pegasus.KParam, pegasus.KAddrOf:
				s = true
			case pegasus.KBinOp, pegasus.KUnOp, pegasus.KConv, pegasus.KMux:
				s = true
				n.EachInput(func(r *pegasus.Ref, cls pegasus.Port, idx int) {
					if !r.Valid() || !gp.static[r.N.ID] {
						s = false
					}
				})
			}
			if s {
				gp.static[n.ID] = true
				changed = true
			}
		}
	}
	// Flat port layout and rule numbering, both in node-ID order.
	gp.dynIns = make([]int, maxID)
	gp.inOff = make([]int32, maxID)
	gp.predOff = make([]int32, maxID)
	gp.tokOff = make([]int32, maxID)
	gp.ruleOf = make([]int32, maxID)
	for i := range gp.ruleOf {
		gp.ruleOf[i] = -1
	}
	off := int32(0)
	nRules := 0
	for id := 0; id < maxID; id++ {
		n := gp.nodeByID[id]
		if n == nil || gp.static[id] {
			continue
		}
		gp.inOff[id] = off
		gp.predOff[id] = off + int32(len(n.Ins))
		gp.tokOff[id] = off + int32(len(n.Ins)+len(n.Preds))
		off += int32(len(n.Ins) + len(n.Preds) + len(n.Toks))
		gp.ruleOf[id] = int32(nRules)
		nRules++
	}
	gp.numPorts = int(off)
	// Consumer lists, in the interpreter's iteration order (graph node
	// order × EachInput order). Each entry also records the producer
	// edge behind the consumer port for the per-port metadata.
	valCons := make([][]dest, maxID)
	tokCons := make([][]dest, maxID)
	type prodEdge struct {
		node int32
		edge int32
		tok  bool
	}
	portSrc := make([]prodEdge, gp.numPorts)
	portOwnerID := make([]int32, gp.numPorts)
	for i := range portSrc {
		portSrc[i].node = -1
	}
	for _, n := range g.Nodes {
		if n.Dead || gp.static[n.ID] {
			continue
		}
		user := n
		n.EachInput(func(r *pegasus.Ref, cls pegasus.Port, idx int) {
			if !r.Valid() || gp.static[r.N.ID] {
				return
			}
			gp.dynIns[user.ID]++
			p := gp.portIndex(user, cls, idx)
			d := dest{rule: gp.ruleOf[user.ID], port: p}
			if r.Out == pegasus.OutToken {
				portSrc[p] = prodEdge{node: int32(r.N.ID), edge: int32(len(tokCons[r.N.ID])), tok: true}
				tokCons[r.N.ID] = append(tokCons[r.N.ID], d)
			} else {
				portSrc[p] = prodEdge{node: int32(r.N.ID), edge: int32(len(valCons[r.N.ID])), tok: false}
				valCons[r.N.ID] = append(valCons[r.N.ID], d)
			}
			portOwnerID[p] = int32(user.ID)
		})
	}
	// Occupancy bases follow the consumer lists in node-ID order. Token
	// slots live after all value slots in one flat array, so consume and
	// capacity checks never branch on the edge class.
	valOff := make([]int32, maxID)
	tokOff := make([]int32, maxID)
	vo, to := int32(0), int32(0)
	for id := 0; id < maxID; id++ {
		valOff[id] = vo
		tokOff[id] = to
		vo += int32(len(valCons[id]))
		to += int32(len(tokCons[id]))
	}
	gp.numVal = int(vo)
	gp.numOcc = int(vo + to)
	for id := 0; id < maxID; id++ {
		tokOff[id] += vo
	}
	// Per-port producer metadata.
	gp.ports = make([]pmeta, gp.numPorts)
	gp.portTok = make([]bool, gp.numPorts)
	for p := range portSrc {
		src := portSrc[p]
		if src.node < 0 {
			gp.ports[p].prod = -1
			continue
		}
		gp.portTok[p] = src.tok
		if src.tok {
			gp.ports[p].occ = tokOff[src.node] + src.edge
		} else {
			gp.ports[p].occ = valOff[src.node] + src.edge
		}
		gp.ports[p].prod = gp.ruleOf[src.node]
		gp.ports[p].owner = gp.ruleOf[portOwnerID[p]]
	}
	// Lower each dynamic node to its rule.
	lw := &lowerer{mod: mod, g: g, gp: gp, memo: make([]oparg, maxID), done: make([]bool, maxID)}
	gp.rules = make([]rule, nRules)
	gp.entryRule = -1
	for id := 0; id < maxID; id++ {
		n := gp.nodeByID[id]
		if n == nil || gp.static[id] {
			continue
		}
		ri := gp.ruleOf[id]
		r := &gp.rules[ri]
		r.nodeID = int32(id)
		r.valCons = valCons[id]
		r.tokCons = tokCons[id]
		r.valCnt = int32(len(r.valCons))
		r.tokCnt = int32(len(r.tokCons))
		if r.valCnt > 0 {
			r.valD0 = r.valCons[0]
		}
		if r.tokCnt > 0 {
			r.tokD0 = r.tokCons[0]
		}
		r.valOccBase = valOff[id]
		r.tokOccBase = tokOff[id]
		r.lat = opLatencyOf(n)
		r.fireOnce = gp.dynIns[id] == 0 && n.Kind != pegasus.KEntryTok
		lw.lowerRule(n, r)
		if len(r.preds) == 0 && len(r.toks) == 0 {
			switch {
			case r.op == opBin && len(r.ins) == 2 && r.ins[0].mode == argPort && r.ins[1].mode == argPort:
				r.shape, r.shapeA, r.shapeB = shBin2, r.ins[0].idx, r.ins[1].idx
			case r.op == opUn && len(r.ins) == 1 && r.ins[0].mode == argPort:
				r.shape, r.shapeA = shUn1, r.ins[0].idx
			case r.op == opConv && len(r.ins) == 1 && r.ins[0].mode == argPort:
				r.shape, r.shapeA = shConv1, r.ins[0].idx
			}
		}
	}
	// Pristine per-rule dynamic state: missing-input counters start at
	// the full dynamic input count (all latches empty), token generators
	// at their initial credit, gated merges at their source count.
	gp.nodeInit = make([]vnode, nRules)
	for id := 0; id < maxID; id++ {
		if n := gp.nodeByID[id]; n == nil || gp.static[id] {
			continue
		}
		ri := gp.ruleOf[id]
		r, ns := &gp.rules[ri], &gp.nodeInit[ri]
		ns.missing = int32(gp.dynIns[id])
		ns.gate = gateOf(r, gp.dynIns[id])
		switch r.op {
		case opTokGen:
			ns.counter = r.tokN
		case opMerge:
			ns.counter = int32(len(r.srcPorts))
		}
	}
	if g.Entry != nil && gp.nodeByID[g.Entry.ID] != nil && !gp.static[g.Entry.ID] {
		gp.entryRule = gp.ruleOf[g.Entry.ID]
	}
	// Seed set in graph node order (the interpreter's newActivation
	// order — seq numbering depends on it).
	for _, n := range g.Nodes {
		if !n.Dead && !gp.static[n.ID] && gp.dynIns[n.ID] == 0 && n.Kind != pegasus.KEntryTok {
			gp.seeds = append(gp.seeds, gp.ruleOf[n.ID])
		}
	}
	gp.numSlots = lw.slots
}

// gateOf picks a lowered rule's gate kind. A merge or eta is gated only
// when its dynamic inputs are exactly the ports its fire path reads, so
// its missing counter counts those ports and nothing else.
func gateOf(r *rule, dynIns int) uint8 {
	switch r.op {
	case opBin, opUn, opConv, opMux, opCombine, opLoad, opStore, opCall, opReturn:
		return gateAll
	case opMerge:
		if dynIns == len(r.srcPorts) {
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

func isPort(g oparg) int {
	if g.mode == argPort {
		return 1
	}
	return 0
}

// lowerRule fills the kind-specific fields of one rule.
func (lw *lowerer) lowerRule(n *pegasus.Node, r *rule) {
	gp := lw.gp
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
		r.toBits = int32(n.ToBits)
		r.convSign = n.ConvSign
	case pegasus.KMux:
		r.op = opMux
	case pegasus.KCombine:
		r.op = opCombine
		r.outTok = true
	case pegasus.KMerge:
		r.op = opMerge
		srcs, cls := n.Ins, pegasus.PortIn
		if n.TokenOnly {
			r.outTok = true
			srcs, cls = n.Toks, pegasus.PortTok
		}
		for i, src := range srcs {
			if gp.static[src.N.ID] {
				// Static merge inputs would fire unboundedly; the
				// builder never creates them.
				continue
			}
			r.srcPorts = append(r.srcPorts, gp.portIndex(n, cls, i))
		}
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
		r.tokN = int32(n.TokN)
		r.tokPort = gp.tokOff[n.ID]
		r.predArg = lw.argOf(n, pegasus.PortPred, 0, n.Preds[0])
		return
	case pegasus.KLoad:
		r.op = opLoad
		r.bytes = int32(n.Bytes)
		r.loadSigned = n.VT.Signed
		r.needVal = len(r.valCons) > 0
	case pegasus.KStore:
		r.op = opStore
		r.bytes = int32(n.Bytes)
	case pegasus.KCall:
		r.op = opCall
		r.hasValue = n.HasValue()
		r.calleeName = n.Callee.Name
		r.callee = lw.mod.progs[n.Callee.Name]
	case pegasus.KReturn:
		r.op = opReturn
	}
	// All-inputs rules: operand lists in consume order plus the dynamic
	// readiness set.
	n.EachInput(func(rf *pegasus.Ref, cls pegasus.Port, idx int) {
		if rf.Valid() && !gp.static[rf.N.ID] {
			r.needPorts = append(r.needPorts, gp.portIndex(n, cls, idx))
		}
	})
	for i, rf := range n.Ins {
		r.ins = append(r.ins, lw.argOf(n, pegasus.PortIn, i, rf))
	}
	for i, rf := range n.Preds {
		r.preds = append(r.preds, lw.argOf(n, pegasus.PortPred, i, rf))
	}
	for i, rf := range n.Toks {
		r.toks = append(r.toks, lw.argOf(n, pegasus.PortTok, i, rf))
	}
}

// argOf lowers one input reference: static refs become immediates or
// slots, dynamic refs become ports.
func (lw *lowerer) argOf(n *pegasus.Node, cls pegasus.Port, idx int, r pegasus.Ref) oparg {
	if r.Valid() && lw.gp.static[r.N.ID] {
		return lw.staticArg(r.N)
	}
	return oparg{mode: argPort, idx: lw.gp.portIndex(n, cls, idx)}
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
		gp.sprog = append(gp.sprog, sinstr{op: sConv, dst: dst, a: a, bits: int32(n.ToBits), sign: n.ConvSign})
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
