package pegasus

import (
	"errors"
	"strings"
	"testing"
	"unsafe"
)

// tinyGraph builds a minimal well-formed graph by hand:
//
//	entrytok → load(addr=const, pred=const1) → store → return
func tinyGraph(t *testing.T) (*Graph, *Node, *Node) {
	t.Helper()
	g := NewGraph(nil)
	// Constructing without a FuncDecl: only the fields Verify touches
	// matter.
	g.Fn = nil
	g.Name = "tiny"
	g.NewHyper(false)
	entry := g.NewNode(KEntryTok, 0)
	g.Entry = entry
	addr := g.NewNode(KConst, 0)
	addr.VT = U32
	addr.ConstVal = 0x1000
	p := g.ConstPred(0, true)
	load := g.NewNode(KLoad, 0)
	load.VT = I32
	load.Bytes = 4
	load.Ins = []Ref{V(addr)}
	load.Preds = []Ref{V(p)}
	load.Toks = []Ref{T(entry)}
	val := g.NewNode(KConst, 0)
	val.VT = I32
	val.ConstVal = 7
	store := g.NewNode(KStore, 0)
	store.Bytes = 4
	store.Ins = []Ref{V(addr), V(val)}
	store.Preds = []Ref{V(p)}
	store.Toks = []Ref{T(load)}
	ret := g.NewNode(KReturn, 0)
	ret.Ins = []Ref{V(load)}
	ret.Toks = []Ref{T(store)}
	g.Ret = ret
	return g, load, store
}

func TestVerifyAcceptsWellFormed(t *testing.T) {
	g, _, _ := tinyGraph(t)
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsBadShapes(t *testing.T) {
	cases := map[string]func(g *Graph, load, store *Node){
		"load without address": func(g *Graph, load, store *Node) {
			load.Ins = nil
		},
		"store with one input": func(g *Graph, load, store *Node) {
			store.Ins = store.Ins[:1]
		},
		"bad access size": func(g *Graph, load, store *Node) {
			load.Bytes = 3
		},
		"value ref to token output": func(g *Graph, load, store *Node) {
			store.Ins[1] = Ref{N: load, Out: OutToken}
		},
		"token ref to value output": func(g *Graph, load, store *Node) {
			store.Toks[0] = Ref{N: load, Out: OutValue}
		},
		"predicate wider than 1 bit": func(g *Graph, load, store *Node) {
			wide := g.NewNode(KConst, 0)
			wide.VT = I32
			load.Preds[0] = V(wide)
		},
		"use of dead node": func(g *Graph, load, store *Node) {
			load.Ins[0].N.Dead = true
		},
		"missing input": func(g *Graph, load, store *Node) {
			load.Ins[0] = Ref{}
		},
		"bad hyperblock": func(g *Graph, load, store *Node) {
			load.Hyper = 99
		},
	}
	for name, breakIt := range cases {
		g, load, store := tinyGraph(t)
		breakIt(g, load, store)
		if err := g.Verify(); err == nil {
			t.Errorf("%s: Verify accepted a malformed graph", name)
		}
	}
}

func TestVerifyDetectsCycle(t *testing.T) {
	g, load, store := tinyGraph(t)
	// Make the load depend on the store's token while the store depends
	// on the load's — a forward cycle.
	load.Toks = append(load.Toks, T(store))
	err := g.Verify()
	if err == nil {
		t.Fatal("Verify accepted a token cycle")
	}
	// The walk starts from nodes in ID order, so it enters the cycle at
	// the load and names it when the store leads back to it.
	if want := "tiny: forward-edge cycle through n3:load"; err.Error() != want {
		t.Errorf("Verify error = %q, want %q", err, want)
	}
	if !errors.Is(err, ErrInvalidGraph) {
		t.Errorf("Verify error %q does not match ErrInvalidGraph", err)
	}
}

// chainGraph builds a well-formed graph of n loads threaded on one token
// chain, all from the same address, each feeding the next load's
// predicate through a UBool.
func chainGraph(n int) *Graph {
	g := NewGraph(nil)
	g.Name = "chain"
	g.NewHyper(false)
	g.Entry = g.NewNode(KEntryTok, 0)
	addr := g.NewNode(KConst, 0)
	addr.VT = U32
	pred := V(g.ConstPred(0, true))
	tok := T(g.Entry)
	for i := 0; i < n; i++ {
		load := g.NewNode(KLoad, 0)
		load.VT = I32
		load.Bytes = 4
		load.Ins = []Ref{V(addr)}
		load.Preds = []Ref{pred}
		load.Toks = []Ref{tok}
		nz := g.NewNode(KUnOp, 0)
		nz.UnOp = UBool
		nz.VT = Pred
		nz.Ins = []Ref{V(load)}
		pred, tok = V(nz), T(load)
	}
	g.Ret = g.NewNode(KReturn, 0)
	g.Ret.Toks = []Ref{tok}
	return g
}

// TestAnalysesAllocateConstant pins that the per-round analyses index
// their state by node ID: a graph 100 times larger costs the same number
// of allocations.
func TestAnalysesAllocateConstant(t *testing.T) {
	small, large := chainGraph(10), chainGraph(1000)
	for _, g := range []*Graph{small, large} {
		if err := g.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	for name, f := range map[string]func(g *Graph){
		"Verify":    func(g *Graph) { _ = g.Verify() },
		"Topo":      func(g *Graph) { _ = g.Topo() },
		"UseCounts": func(g *Graph) { _ = new(Scratch).UseCounts(g) },
	} {
		a := testing.AllocsPerRun(20, func() { f(small) })
		b := testing.AllocsPerRun(20, func() { f(large) })
		if a != b {
			t.Errorf("%s: %v allocations on %d nodes, %v on %d", name, a, len(small.Nodes), b, len(large.Nodes))
		}
	}
	// A pass driver's Scratch, once grown, makes them allocate nothing.
	var s Scratch
	for name, f := range map[string]func(){
		"Scratch.Verify":    func() { _ = s.Verify(large) },
		"Scratch.Topo":      func() { _ = s.Topo(large) },
		"Scratch.UseCounts": func() { _ = s.UseCounts(large) },
	} {
		if a := testing.AllocsPerRun(20, f); a != 0 {
			t.Errorf("%s: %v allocations with a reused Scratch", name, a)
		}
	}
}

func TestTopoOrdersInputsFirst(t *testing.T) {
	g, _, _ := tinyGraph(t)
	order := g.Topo()
	pos := map[*Node]int{}
	for i, n := range order {
		pos[n] = i
	}
	for _, n := range order {
		n.EachInput(func(r *Ref, p Port, i int) {
			if r.Valid() && !g.IsBackEdge(r.N, n) && pos[r.N] > pos[n] {
				t.Errorf("input %s ordered after %s", r.N, n)
			}
		})
	}
}

func TestReachability(t *testing.T) {
	g, load, store := tinyGraph(t)
	r := NewReachability(g)
	if !r.Reaches(load, store) {
		t.Error("load should reach store")
	}
	if r.Reaches(store, load) {
		t.Error("store should not reach load")
	}
	if !r.Reaches(load, load) {
		t.Error("node should reach itself")
	}
	// A node created after the cache reaches nothing it was not wired to.
	late := g.NewNode(KCombine, 0)
	late.Toks = []Ref{T(load)}
	if !r.Reaches(load, late) || r.Reaches(late, store) {
		t.Error("reachability wrong for a node newer than the cache")
	}
}

func TestReplaceUses(t *testing.T) {
	g, load, store := tinyGraph(t)
	newTok := g.NewNode(KCombine, 0)
	newTok.Toks = []Ref{T(g.Entry)}
	g.ReplaceUses(load, OutToken, T(newTok))
	if store.Toks[0].N != newTok {
		t.Error("token use not rewired")
	}
	// The value use (return input) must be untouched.
	if g.Ret.Ins[0].N != load {
		t.Error("value use was wrongly rewired")
	}
}

func TestUsesIndex(t *testing.T) {
	g, load, store := tinyGraph(t)
	uses := new(Scratch).UseCounts(g)
	// load's value feeds the return and its token the store; the store's
	// token feeds the return.
	for _, c := range []struct {
		n    *Node
		want UseCount
	}{{load, UseCount{Val: 1, Tok: 1}}, {store, UseCount{Tok: 1}}} {
		if got := uses[c.n.ID]; got != c.want {
			t.Errorf("use counts of %s = %+v, want %+v", c.n, got, c.want)
		}
	}
}

func TestCompact(t *testing.T) {
	g, load, _ := tinyGraph(t)
	before := len(g.Nodes)
	// Kill the return's value use first so the graph stays valid.
	g.Ret.Ins = nil
	spliceOut := load.Toks
	_ = spliceOut
	n := g.NewNode(KConst, 0)
	n.Dead = true
	g.Compact()
	if len(g.Nodes) != before {
		t.Errorf("Compact removed %d nodes, want exactly the dead one gone (have %d)", before+1-len(g.Nodes), len(g.Nodes))
	}
	if g.NumLive() != len(g.Nodes) {
		t.Error("NumLive disagrees with Compact")
	}
}

func TestPredAlgebra(t *testing.T) {
	g := NewGraph(nil)
	g.Name = "preds"
	g.NewHyper(false)
	tru := g.ConstPred(0, true)
	fls := g.ConstPred(0, false)
	if !g.IsConstTrue(tru) || !g.IsConstFalse(fls) {
		t.Fatal("constant predicates misclassified")
	}
	// An opaque condition node.
	c := g.NewNode(KConst, 0)
	c.VT = Pred
	c.ConstVal = 1
	// Force c to be opaque by giving it a fresh var through a comparison
	// surrogate: use a unop Bool of a 32-bit value.
	v := g.NewNode(KConst, 0)
	v.VT = I32
	cond := g.NewNode(KUnOp, 0)
	cond.UnOp = UBool
	cond.VT = Pred
	cond.Ins = []Ref{V(v)}

	notC := g.PredNot(cond)
	if g.PredNot(notC) != cond {
		t.Error("double negation did not canonicalize")
	}
	if g.PredAnd(cond, notC) != fls {
		t.Error("c ∧ ¬c should be the false node")
	}
	if g.PredOr(cond, notC) != tru {
		t.Error("c ∨ ¬c should be the true node")
	}
	if g.PredAnd(cond, tru) != cond {
		t.Error("c ∧ true should reuse c")
	}
	if !g.PredImplies(g.PredAnd(cond, cond), cond) {
		t.Error("c should imply c")
	}
	if !g.PredDisjoint(cond, notC) {
		t.Error("c and ¬c should be disjoint")
	}
	if g.PredAndNot(cond, cond) != fls {
		t.Error("c ∧ ¬c via AndNot should be false")
	}
}

func TestDumpAndDot(t *testing.T) {
	g, _, _ := tinyGraph(t)
	d := g.Dump()
	for _, want := range []string{"load", "store", "return", "entrytok"} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
	dot := g.Dot()
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "style=dashed") {
		t.Errorf("dot output malformed:\n%s", dot)
	}
}

func TestVTypeOf(t *testing.T) {
	if VTypeOf(nil) != (VType{}) {
		t.Error("nil type should map to the zero VType")
	}
}

// TestNodeSize pins the node layout: a cached program keeps every node
// of its optimized graphs, so a wider field or a misplaced flag shows
// here. 160 bytes is a Go size class, so a node costs exactly that; one
// byte more costs 176.
func TestNodeSize(t *testing.T) {
	if size := unsafe.Sizeof(Node{}); size > 160 {
		t.Errorf("Node is %d bytes, want at most 160", size)
	}
}
