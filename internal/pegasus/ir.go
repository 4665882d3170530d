// Package pegasus implements the Pegasus intermediate representation: the
// predicated, SSA-based dataflow graph CASH compiles C into (paper
// Section 3). Nodes are operations; edges carry data values, 1-bit
// predicates, or synchronization tokens. Memory may-dependences are
// explicit token edges, which is what makes the paper's memory
// optimizations local graph rewrites.
package pegasus

import (
	"fmt"

	"spatial/internal/alias"
	"spatial/internal/bdd"
	"spatial/internal/cminor"
)

// VType describes the value an output carries.
type VType struct {
	Bits   uint8 // 1 for predicates, 8/16/32 for data
	Signed bool  // sign of sub-word loads/conversions
}

// Common value types.
var (
	I32  = VType{Bits: 32, Signed: true}
	U32  = VType{Bits: 32, Signed: false}
	Pred = VType{Bits: 1}
)

// VTypeOf maps a front-end type to its dataflow value type.
func VTypeOf(t *cminor.Type) VType {
	switch {
	case t == nil || t.Kind == cminor.TypeVoid:
		return VType{}
	case t.IsPointer() || t.Kind == cminor.TypeArray:
		return U32
	default:
		return VType{Bits: uint8(t.Bits), Signed: t.Signed}
	}
}

// Out selects which output of a node a Ref denotes.
type Out uint8

// Output selectors.
const (
	OutValue Out = iota // the data/predicate output
	OutToken            // the synchronization token output
)

// Ref is a reference to one output of a node. The zero Ref is "no input".
type Ref struct {
	N   *Node
	Out Out
}

// Valid reports whether the Ref points at a node.
func (r Ref) Valid() bool { return r.N != nil }

// V returns a value-output reference to n.
func V(n *Node) Ref { return Ref{N: n, Out: OutValue} }

// T returns a token-output reference to n.
func T(n *Node) Ref { return Ref{N: n, Out: OutToken} }

// Kind enumerates Pegasus node kinds.
type Kind uint8

// Node kinds.
const (
	KConst    Kind = iota // integer constant
	KParam                // function parameter
	KAddrOf               // address of an abstract object (global, string, or frame slot)
	KBinOp                // arithmetic/logic/comparison
	KUnOp                 // unary operation
	KConv                 // width conversion (truncate + extend)
	KMux                  // decoded multiplexor: value i selected when Preds[i] is true
	KMerge                // control-flow join: forwards whichever input arrives
	KEta                  // gated forward: passes Ins[0]/Toks[0] when Preds[0] is true
	KLoad                 // memory read: value + token outputs
	KStore                // memory write: token output
	KCall                 // procedure call: optional value + token outputs
	KReturn               // procedure exit: value + final token
	KCombine              // token combine ("V" in the figures): waits for all inputs
	KTokenGen             // token generator tk(n) (paper Section 6.3)
	KEntryTok             // the "*" initial token at procedure entry
)

var kindNames = [...]string{
	KConst: "const", KParam: "param", KAddrOf: "addrof",
	KBinOp: "binop", KUnOp: "unop", KConv: "conv",
	KMux: "mux", KMerge: "merge", KEta: "eta",
	KLoad: "load", KStore: "store", KCall: "call", KReturn: "return",
	KCombine: "combine", KTokenGen: "tokgen", KEntryTok: "entrytok",
}

// String returns the kind's name.
func (k Kind) String() string { return kindNames[k] }

// UnOpKind enumerates unary operations.
type UnOpKind uint8

// Unary operations.
const (
	UNeg    UnOpKind = iota // arithmetic negation
	UNot                    // logical not (!= 0 → 0, == 0 → 1)
	UBitNot                 // bitwise complement
	UBool                   // normalize to 0/1 (x != 0)
)

var unOpNames = [...]string{UNeg: "neg", UNot: "not", UBitNot: "bitnot", UBool: "bool"}

// String returns the op's name.
func (u UnOpKind) String() string { return unOpNames[u] }

// Node is one Pegasus operation. A cached program keeps every node of
// its optimized graphs, so the layout is held to 160 bytes, a Go size
// class (TestNodeSize). The ID, the byte-sized fields and flags and the
// 32-bit fields come first, in 48 bytes without padding, so the fields
// that scans test (Dead, Kind, Hyper) and the input slices sit together.
// Every narrowed field is bounded by construction (DESIGN.md, "Node
// layout"): bit widths are at most 32 and access sizes 4, a token
// generator's count is at most 1<<20 (opt.decoupleGroups), and the
// hyperblock, parameter, object and class numbers are each below the
// length of the source text.
type Node struct {
	ID   int
	Kind Kind
	// Output descriptor. VT is meaningful when HasValue() is true.
	VT     VType
	BinOp  cminor.BinOpKind // KBinOp
	UnOp   UnOpKind         // KUnOp
	ToBits uint8            // KConv: truncate a 32-bit value to ToBits
	Bytes  uint8            // KLoad/KStore access size

	Unsigned bool // KBinOp: unsigned semantics for div/rem/shift/compare
	ConvSign bool // KConv: sign-extend after truncation
	// TokenOnly marks merge/eta instances plumbing tokens rather than
	// values.
	TokenOnly bool
	// BDDRef caches the boolean function of a predicate-valued node
	// within its hyperblock's bdd.Space; BDDOK marks validity.
	BDDOK bool
	// Dead marks removed nodes awaiting Compact.
	Dead bool

	// Hyper is the hyperblock this node belongs to.
	Hyper    int32
	ParamIdx int32         // KParam
	Obj      alias.ObjID   // KAddrOf
	Class    alias.ClassID // KLoad/KStore location class
	TokClass alias.ClassID // token circuit class for token-typed merge/eta/combine/tokengen
	TokN     int32         // KTokenGen initial/maximum count
	BDDRef   bdd.Ref

	// Inputs.
	Ins   []Ref // value inputs (addresses, operands, mux data, merge inputs)
	Preds []Ref // predicate inputs (mux: one per data input; memory ops & eta: one)
	Toks  []Ref // token inputs

	// Kind-specific payload.
	ConstVal int64            // KConst
	RW       alias.Set        // KLoad/KStore read/write set; KCall: reads ∪ writes
	Callee   *cminor.FuncDecl // KCall
}

// HasValue reports whether the node has a data/predicate output.
func (n *Node) HasValue() bool {
	switch n.Kind {
	case KConst, KParam, KAddrOf, KBinOp, KUnOp, KConv, KMux:
		return true
	case KLoad:
		return true
	case KCall:
		return n.Callee != nil && n.Callee.Ret.Kind != cminor.TypeVoid
	case KMerge, KEta:
		return !n.TokenOnly
	}
	return false
}

// HasToken reports whether the node has a token output.
func (n *Node) HasToken() bool {
	switch n.Kind {
	case KLoad, KStore, KCall, KCombine, KTokenGen, KEntryTok:
		return true
	case KMerge, KEta:
		return n.TokenOnly
	}
	return false
}

// IsMemOp reports whether the node is a load or store.
func (n *Node) IsMemOp() bool { return n.Kind == KLoad || n.Kind == KStore }

// String renders a short description.
func (n *Node) String() string {
	if n == nil {
		return "<nil>"
	}
	switch n.Kind {
	case KConst:
		return fmt.Sprintf("n%d:const(%d)", n.ID, n.ConstVal)
	case KParam:
		return fmt.Sprintf("n%d:param(%d)", n.ID, n.ParamIdx)
	case KAddrOf:
		return fmt.Sprintf("n%d:addrof(o%d)", n.ID, n.Obj)
	case KBinOp:
		return fmt.Sprintf("n%d:%s", n.ID, n.BinOp)
	case KUnOp:
		return fmt.Sprintf("n%d:%s", n.ID, n.UnOp)
	case KConv:
		return fmt.Sprintf("n%d:conv%d", n.ID, n.ToBits)
	case KTokenGen:
		return fmt.Sprintf("n%d:tk(%d)", n.ID, n.TokN)
	default:
		return fmt.Sprintf("n%d:%s", n.ID, n.Kind)
	}
}

// Hyperblock describes one hyperblock of a function graph.
type Hyperblock struct {
	ID     int
	IsLoop bool
	// LoopPred is the value node computing "the loop takes another
	// iteration" (the predicate controlling back-edge etas); nil for
	// non-loop hyperblocks.
	LoopPred *Node
	// Space is the BDD space for this hyperblock's path predicates.
	Space *bdd.Space
	// predCSE canonicalizes predicate nodes by their BDD function.
	predCSE map[bdd.Ref]*Node
}

// Graph is the Pegasus representation of one procedure.
type Graph struct {
	Name   string
	Fn     *cminor.FuncDecl
	Nodes  []*Node // in ID order
	Params []*Node
	Entry  *Node // KEntryTok
	Ret    *Node // KReturn
	Hypers []*Hyperblock

	nextID int
}

// NewGraph creates an empty graph for fn (which may be nil for
// synthetic/test graphs).
func NewGraph(fn *cminor.FuncDecl) *Graph {
	g := &Graph{Fn: fn}
	if fn != nil {
		g.Name = fn.Name
	}
	return g
}

// NewNode allocates a node of the given kind in hyperblock hyper.
func (g *Graph) NewNode(kind Kind, hyper int32) *Node {
	n := &Node{ID: g.nextID, Kind: kind, Hyper: hyper}
	g.nextID++
	g.Nodes = append(g.Nodes, n)
	return n
}

// NewHyper allocates a hyperblock.
func (g *Graph) NewHyper(isLoop bool) *Hyperblock {
	h := &Hyperblock{ID: len(g.Hypers), IsLoop: isLoop, Space: bdd.New()}
	g.Hypers = append(g.Hypers, h)
	return h
}

// MaxID returns an exclusive upper bound on node IDs (dense indexing for
// simulators).
func (g *Graph) MaxID() int { return g.nextID }

// Compact removes nodes marked Dead.
func (g *Graph) Compact() {
	live := g.Nodes[:0]
	for _, n := range g.Nodes {
		if !n.Dead {
			live = append(live, n)
		}
	}
	// Zero the tail so dropped nodes can be collected.
	for i := len(live); i < len(g.Nodes); i++ {
		g.Nodes[i] = nil
	}
	g.Nodes = live
}

// NumLive returns the number of live nodes.
func (g *Graph) NumLive() int {
	c := 0
	for _, n := range g.Nodes {
		if !n.Dead {
			c++
		}
	}
	return c
}

// CountMemOps returns the number of live loads and stores.
func (g *Graph) CountMemOps() (loads, stores int) {
	for _, n := range g.Nodes {
		if n.Dead {
			continue
		}
		switch n.Kind {
		case KLoad:
			loads++
		case KStore:
			stores++
		}
	}
	return
}

// Program is a whole compiled program: one graph per function plus the
// shared memory layout.
type Program struct {
	Source *cminor.Program
	Alias  *alias.Analysis
	Funcs  map[string]*Graph
	Layout *Layout
}

// Graph returns the graph of the named function, or nil.
func (p *Program) Graph(name string) *Graph { return p.Funcs[name] }
