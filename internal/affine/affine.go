// Package affine performs symbolic address analysis over Pegasus graphs:
// it decomposes address computations into affine expressions over "atom"
// nodes, proves address disequality (paper Section 4.3 heuristic 1),
// finds induction variables (heuristic 2), classifies monotone address
// sequences (Section 6.2), and computes dependence distances for loop
// decoupling (Section 6.3).
package affine

import (
	"spatial/internal/cminor"
	"spatial/internal/pegasus"
)

// Expr is an affine expression: Const + Σ coeff·atom. Atoms are nodes the
// decomposition cannot see through (parameters, loads, merges, ...).
// Terms is sorted by atom ID, and add drops the terms it cancels.
// Expressions are values: no operation writes into a Terms slice it did
// not allocate, so results may share their operands' slices.
type Expr struct {
	Terms []Term
	Const int64
	OK    bool
}

// Term is one coeff·atom summand of an Expr.
type Term struct {
	Atom  *pegasus.Node
	Coeff int64
}

func atom(n *pegasus.Node) Expr {
	return Expr{Terms: []Term{{n, 1}}, OK: true}
}

func constant(v int64) Expr {
	return Expr{Const: v, OK: true}
}

// add returns e + sign·o, merging the two ID-sorted term lists.
func (e Expr) add(o Expr, sign int64) Expr {
	r := Expr{Const: e.Const + sign*o.Const, OK: true}
	if len(o.Terms) == 0 {
		r.Terms = e.Terms
		return r
	}
	r.Terms = make([]Term, 0, len(e.Terms)+len(o.Terms))
	a, b := e.Terms, o.Terms
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || len(a) > 0 && a[0].Atom.ID < b[0].Atom.ID:
			r.Terms = append(r.Terms, a[0])
			a = a[1:]
		case len(a) == 0 || b[0].Atom.ID < a[0].Atom.ID:
			if c := sign * b[0].Coeff; c != 0 {
				r.Terms = append(r.Terms, Term{b[0].Atom, c})
			}
			b = b[1:]
		default:
			if c := a[0].Coeff + sign*b[0].Coeff; c != 0 {
				r.Terms = append(r.Terms, Term{a[0].Atom, c})
			}
			a, b = a[1:], b[1:]
		}
	}
	return r
}

func (e Expr) scale(c int64) Expr {
	switch {
	case c == 0:
		return constant(0)
	case c == 1 || len(e.Terms) == 0:
		return Expr{Terms: e.Terms, Const: e.Const * c, OK: true}
	}
	r := Expr{Terms: make([]Term, len(e.Terms)), Const: e.Const * c, OK: true}
	for i, t := range e.Terms {
		r.Terms[i] = Term{t.Atom, t.Coeff * c}
	}
	return r
}

// IsConst reports whether the expression is a known constant.
func (e Expr) IsConst() (int64, bool) {
	if e.OK && len(e.Terms) == 0 {
		return e.Const, true
	}
	return 0, false
}

// Decompose computes the affine form of a value node. It sees through
// additions, subtractions, multiplications by constants, shifts by
// constants, and negation; anything else becomes an atom.
func Decompose(n *pegasus.Node) Expr {
	return decompose(n, 0)
}

const maxDepth = 64

func decompose(n *pegasus.Node, depth int) Expr {
	if n == nil {
		return Expr{}
	}
	if depth > maxDepth {
		return atom(n)
	}
	switch n.Kind {
	case pegasus.KConst:
		return constant(n.ConstVal)
	case pegasus.KBinOp:
		l := decompose(n.Ins[0].N, depth+1)
		r := decompose(n.Ins[1].N, depth+1)
		switch n.BinOp {
		case cminor.OpAdd:
			return l.add(r, 1)
		case cminor.OpSub:
			return l.add(r, -1)
		case cminor.OpMul:
			if c, ok := r.IsConst(); ok {
				return l.scale(c)
			}
			if c, ok := l.IsConst(); ok {
				return r.scale(c)
			}
		case cminor.OpShl:
			if c, ok := r.IsConst(); ok && c >= 0 && c < 31 {
				return l.scale(1 << uint(c))
			}
		}
		return atom(n)
	case pegasus.KUnOp:
		if n.UnOp == pegasus.UNeg {
			return decompose(n.Ins[0].N, depth+1).scale(-1)
		}
		return atom(n)
	default:
		return atom(n)
	}
}

// Distinct proves that two addresses are never equal within the same
// execution wave: identical symbolic terms but different constant offsets
// (modular wraparound is ignored, as in the paper's heuristics). The
// access widths guard against partial overlap: the constant distance must
// be at least the larger access size.
func Distinct(a, b Expr, bytesA, bytesB int) bool {
	if !a.OK || !b.OK {
		return false
	}
	d := a.add(b, -1)
	c, ok := d.IsConst()
	if !ok {
		return false
	}
	if c < 0 {
		c = -c
		return c >= int64(bytesA)
	}
	return c >= int64(bytesB)
}

// Induction describes a loop induction variable: a value merge whose
// back-edge input equals merge + Step each iteration.
type Induction struct {
	Merge *pegasus.Node
	Step  int64
}

// FindInductions locates the induction merges of a loop hyperblock among
// nodes, the hyperblock's live nodes (Graph.NodesInHyper, or a pass's own
// listing). A value merge qualifies when every back-edge input is an eta
// whose data source decomposes to merge + step for one constant step.
func FindInductions(g *pegasus.Graph, hyper int32, nodes []*pegasus.Node) map[*pegasus.Node]*Induction {
	out := map[*pegasus.Node]*Induction{}
	if hyper < 0 || int(hyper) >= len(g.Hypers) || !g.Hypers[hyper].IsLoop {
		return out
	}
	for _, m := range nodes {
		if m.Dead || m.Kind != pegasus.KMerge || m.TokenOnly {
			continue
		}
		var step int64
		found := false
		bad := false
		for _, in := range m.Ins {
			if !in.Valid() {
				bad = true
				break
			}
			if !g.IsBackEdge(in.N, m) {
				continue
			}
			// Back edge: eta over the new value.
			eta := in.N
			if eta.Kind != pegasus.KEta || eta.TokenOnly {
				bad = true
				break
			}
			e := Decompose(eta.Ins[0].N)
			if !e.OK || len(e.Terms) != 1 || e.Terms[0] != (Term{m, 1}) {
				bad = true
				break
			}
			if found && e.Const != step {
				bad = true
				break
			}
			step = e.Const
			found = true
		}
		if found && !bad {
			out[m] = &Induction{Merge: m, Step: step}
		}
	}
	return out
}

// Monotone reports whether an address expression advances strictly
// monotonically across iterations of the loop: it must contain exactly
// one induction atom (all other atoms loop-invariant is not checked here;
// callers restrict atoms to invariant merges), with per-iteration
// movement |coeff·step| no smaller than the access size (so successive
// iterations never touch the same bytes).
func Monotone(e Expr, ind map[*pegasus.Node]*Induction, invariant func(*pegasus.Node) bool, bytes int) bool {
	if !e.OK {
		return false
	}
	move := int64(0)
	seenInd := false
	for _, t := range e.Terms {
		if iv, ok := ind[t.Atom]; ok {
			if seenInd {
				return false
			}
			seenInd = true
			move = t.Coeff * iv.Step
			continue
		}
		if invariant == nil || !invariant(t.Atom) {
			return false
		}
	}
	if !seenInd {
		return false
	}
	if move < 0 {
		move = -move
	}
	return move >= int64(bytes)
}

// Distance computes the dependence distance in iterations between two
// address expressions in the same loop: they must share the same single
// induction atom with the same coefficient and identical other terms;
// the distance is (constB − constA) / (coeff·step) when it divides
// evenly. A positive result means B touches the address A will touch
// `dist` iterations later.
func Distance(a, b Expr, ind map[*pegasus.Node]*Induction) (int64, bool) {
	if !a.OK || !b.OK {
		return 0, false
	}
	d := b.add(a, -1)
	c, ok := d.IsConst()
	if !ok {
		return 0, false
	}
	// Identify the shared induction atom and its movement.
	var move int64
	seen := false
	for _, t := range a.Terms {
		if iv, ok := ind[t.Atom]; ok {
			if seen {
				return 0, false
			}
			seen = true
			move = t.Coeff * iv.Step
		}
	}
	if !seen || move == 0 {
		return 0, false
	}
	if c%move != 0 {
		return 0, false
	}
	return c / move, true
}
