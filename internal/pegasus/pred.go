package pegasus

import (
	"spatial/internal/bdd"
	"spatial/internal/cminor"
)

// This file implements predicate-node construction with BDD-backed
// canonicalization. Every predicate-valued node in a hyperblock carries a
// BDD over that hyperblock's branch conditions; construction helpers reuse
// an existing node whenever the BDD already has one, so boolean identities
// ((p ∧ ¬p) = false, (p ∧ true) = p, ...) simplify predicates for free.
// This is the "boolean manipulation of controlling predicates" machinery
// of paper Section 5.

// cseFor returns the BDD→node canonicalization table of h.
func (g *Graph) cseFor(h *Hyperblock) map[bdd.Ref]*Node {
	if h.predCSE == nil {
		h.predCSE = map[bdd.Ref]*Node{}
	}
	return h.predCSE
}

// PredBDD returns the boolean function of a predicate-valued node within
// its hyperblock, computing and caching it lazily. Nodes whose function is
// opaque (loaded values, comparisons, parameters, cross-hyperblock
// merges...) get a fresh BDD variable each.
func (g *Graph) PredBDD(n *Node) bdd.Ref {
	if n.BDDOK {
		return n.BDDRef
	}
	h := g.Hypers[n.Hyper]
	s := h.Space
	var r bdd.Ref
	switch {
	case n.Kind == KConst:
		if n.ConstVal != 0 {
			r = bdd.True
		} else {
			r = bdd.False
		}
	case n.Kind == KBinOp && n.VT.Bits == 1 && len(n.Ins) == 2 &&
		sameHyperPred(n, n.Ins[0].N) && sameHyperPred(n, n.Ins[1].N):
		a, b := g.PredBDD(n.Ins[0].N), g.PredBDD(n.Ins[1].N)
		switch n.BinOp {
		case cminor.OpAnd:
			r = s.And(a, b)
		case cminor.OpOr:
			r = s.Or(a, b)
		case cminor.OpXor:
			r = s.Xor(a, b)
		default:
			r = s.Var()
		}
	case n.Kind == KUnOp && n.UnOp == UNot && sameHyperPred(n, n.Ins[0].N):
		r = s.Not(g.PredBDD(n.Ins[0].N))
	default:
		r = s.Var()
	}
	n.BDDRef = r
	n.BDDOK = true
	// Register as the canonical node if the function has none yet.
	cse := g.cseFor(h)
	if _, exists := cse[r]; !exists {
		cse[r] = n
	}
	return r
}

func sameHyperPred(n, in *Node) bool {
	return in != nil && in.Hyper == n.Hyper && in.HasValue() && in.VT.Bits == 1
}

// nodeForBDD returns a node computing the function r in hyperblock h, or
// nil when none is registered.
func (g *Graph) nodeForBDD(h *Hyperblock, r bdd.Ref) *Node {
	if n, ok := g.cseFor(h)[r]; ok && !n.Dead {
		return n
	}
	return nil
}

// RegisterTruePred installs n as the canonical "true" predicate of
// hyperblock h. The builder uses this to anchor each hyperblock's
// constant-true predicate to a dynamic control merge (the hyperblock's
// "wave"), so predicated operations fire once per dynamic execution of
// the hyperblock rather than being statically true.
func (g *Graph) RegisterTruePred(h int32, n *Node) {
	n.BDDRef = bdd.True
	n.BDDOK = true
	g.cseFor(g.Hypers[h])[bdd.True] = n
}

// ConstPred returns a constant predicate node (0 or 1) in hyperblock h.
func (g *Graph) ConstPred(h int32, val bool) *Node {
	hb := g.Hypers[h]
	want := bdd.False
	cv := int64(0)
	if val {
		want = bdd.True
		cv = 1
	}
	if n := g.nodeForBDD(hb, want); n != nil {
		return n
	}
	n := g.NewNode(KConst, h)
	n.VT = Pred
	n.ConstVal = cv
	n.BDDRef = want
	n.BDDOK = true
	g.cseFor(hb)[want] = n
	return n
}

// PredNot returns a node computing ¬a in a's hyperblock.
func (g *Graph) PredNot(a *Node) *Node {
	h := g.Hypers[a.Hyper]
	r := h.Space.Not(g.PredBDD(a))
	if n := g.nodeForBDD(h, r); n != nil {
		return n
	}
	if r == bdd.True || r == bdd.False {
		return g.ConstPred(a.Hyper, r == bdd.True)
	}
	n := g.NewNode(KUnOp, a.Hyper)
	n.UnOp = UNot
	n.VT = Pred
	n.Ins = []Ref{V(a)}
	n.BDDRef = r
	n.BDDOK = true
	g.cseFor(h)[r] = n
	return n
}

func (g *Graph) predBin(op cminor.BinOpKind, a, b *Node, r bdd.Ref) *Node {
	h := g.Hypers[a.Hyper]
	if n := g.nodeForBDD(h, r); n != nil {
		return n
	}
	if r == bdd.True || r == bdd.False {
		return g.ConstPred(a.Hyper, r == bdd.True)
	}
	// Shortcuts: if the function equals one operand, reuse it.
	if r == g.PredBDD(a) {
		return a
	}
	if r == g.PredBDD(b) {
		return b
	}
	n := g.NewNode(KBinOp, a.Hyper)
	n.BinOp = op
	n.VT = Pred
	n.Ins = []Ref{V(a), V(b)}
	n.BDDRef = r
	n.BDDOK = true
	g.cseFor(h)[r] = n
	return n
}

// PredAnd returns a node computing a ∧ b (a and b must share a
// hyperblock).
func (g *Graph) PredAnd(a, b *Node) *Node {
	h := g.Hypers[a.Hyper]
	return g.predBin(cminor.OpAnd, a, b, h.Space.And(g.PredBDD(a), g.PredBDD(b)))
}

// PredOr returns a node computing a ∨ b.
func (g *Graph) PredOr(a, b *Node) *Node {
	h := g.Hypers[a.Hyper]
	return g.predBin(cminor.OpOr, a, b, h.Space.Or(g.PredBDD(a), g.PredBDD(b)))
}

// PredAndNot returns a node computing a ∧ ¬b — the store-before-store
// rewrite of Figure 8.
func (g *Graph) PredAndNot(a, b *Node) *Node {
	h := g.Hypers[a.Hyper]
	r := h.Space.AndNot(g.PredBDD(a), g.PredBDD(b))
	if r == h.Space.Not(g.PredBDD(b)) {
		return g.PredNot(b)
	}
	return g.predBin(cminor.OpAnd, a, g.PredNot(b), r)
}

// PredImplies reports whether a's predicate implies b's (both in the same
// hyperblock). Used for post-dominance tests between memory operations.
func (g *Graph) PredImplies(a, b *Node) bool {
	if a.Hyper != b.Hyper {
		return false
	}
	h := g.Hypers[a.Hyper]
	return h.Space.Implies(g.PredBDD(a), g.PredBDD(b))
}

// PredDisjoint reports whether two predicates can never be true together.
func (g *Graph) PredDisjoint(a, b *Node) bool {
	if a.Hyper != b.Hyper {
		return false
	}
	h := g.Hypers[a.Hyper]
	return h.Space.Disjoint(g.PredBDD(a), g.PredBDD(b))
}

// IsConstFalse reports whether the node's predicate function is constant
// false.
func (g *Graph) IsConstFalse(n *Node) bool { return g.PredBDD(n) == bdd.False }

// IsConstTrue reports whether the node's predicate function is constant
// true.
func (g *Graph) IsConstTrue(n *Node) bool { return g.PredBDD(n) == bdd.True }
