package opt

import (
	"spatial/internal/cminor"
	"spatial/internal/pegasus"
)

// This file holds the scalar optimizations: constant folding with
// algebraic simplification, common-subexpression elimination, and dead
// code elimination. They are not the paper's contribution but CASH runs
// them interleaved with the memory passes (Section 7.1 lists them among
// the optimizations accounting for compile time), and the memory rewrites
// rely on them to clean up (e.g. a store whose predicate folds to false
// is removed by dead-code rules).

// constFold folds constant operands and applies algebraic identities.
func constFold(c *ctx) (bool, error) {
	g := c.g
	changed := false
	for _, n := range g.Nodes {
		if n.Dead {
			continue
		}
		switch n.Kind {
		case pegasus.KBinOp:
			if fold := foldBin(c, n); fold.Valid() {
				g.ReplaceUses(n, pegasus.OutValue, fold)
				changed = true
			}
		case pegasus.KUnOp:
			if x, ok := constOf(n.Ins[0]); ok {
				v := int64(0)
				switch n.UnOp {
				case pegasus.UNeg:
					v = int64(int32(-x))
				case pegasus.UBitNot:
					v = int64(int32(^x))
				case pegasus.UNot:
					if x == 0 {
						v = 1
					}
				case pegasus.UBool:
					if x != 0 {
						v = 1
					}
				}
				g.ReplaceUses(n, pegasus.OutValue, pegasus.V(c.constNode(n.Hyper, v, n.VT)))
				changed = true
			}
		case pegasus.KConv:
			if x, ok := constOf(n.Ins[0]); ok {
				var v int64
				switch {
				case n.ToBits == 8 && n.ConvSign:
					v = int64(int8(x))
				case n.ToBits == 8:
					v = int64(uint8(x))
				case n.ToBits == 16 && n.ConvSign:
					v = int64(int16(x))
				case n.ToBits == 16:
					v = int64(uint16(x))
				default:
					v = int64(int32(x))
				}
				g.ReplaceUses(n, pegasus.OutValue, pegasus.V(c.constNode(n.Hyper, v, n.VT)))
				changed = true
			}
		case pegasus.KMux:
			// A mux whose predicates are constants selects statically.
			resolved := -1
			allConst := true
			for i, p := range n.Preds {
				v, ok := constOf(p)
				if !ok {
					allConst = false
					break
				}
				if v != 0 && resolved < 0 {
					resolved = i
				}
			}
			if allConst && resolved >= 0 {
				g.ReplaceUses(n, pegasus.OutValue, n.Ins[resolved])
				changed = true
			}
			// Drop inputs with constant-false predicates.
			if !allConst {
				kept := 0
				for i := range n.Ins {
					if v, ok := constOf(n.Preds[i]); ok && v == 0 {
						continue
					}
					n.Ins[kept] = n.Ins[i]
					n.Preds[kept] = n.Preds[i]
					kept++
				}
				if kept > 0 && kept < len(n.Ins) {
					n.Ins = n.Ins[:kept]
					n.Preds = n.Preds[:kept]
					changed = true
				}
				if kept == 1 {
					g.ReplaceUses(n, pegasus.OutValue, n.Ins[0])
					changed = true
				}
			}
		}
	}
	return changed, nil
}

func constOf(r pegasus.Ref) (int64, bool) {
	if r.Valid() && r.Out == pegasus.OutValue && r.N.Kind == pegasus.KConst {
		return r.N.ConstVal, true
	}
	return 0, false
}

// constNode reuses/creates a constant in the graph (per value+type).
func (c *ctx) constNode(hyper int, v int64, vt pegasus.VType) *pegasus.Node {
	if vt.Bits == 1 {
		return c.g.ConstPred(hyper, v != 0)
	}
	for _, n := range c.g.Nodes {
		if !n.Dead && n.Kind == pegasus.KConst && n.ConstVal == v && n.VT == vt {
			return n
		}
	}
	n := c.g.NewNode(pegasus.KConst, hyper)
	n.VT = vt
	n.ConstVal = v
	return n
}

func foldBin(c *ctx, n *pegasus.Node) pegasus.Ref {
	// Predicate-typed and/or/xor are owned by the BDD machinery; folding
	// them here would bypass the canonicalization tables.
	if n.VT.Bits == 1 && n.BDDOK {
		return pegasus.Ref{}
	}
	l, lok := constOf(n.Ins[0])
	r, rok := constOf(n.Ins[1])
	if lok && rok {
		v, err := cminor.EvalBinOp(n.BinOp, l, r, n.Unsigned)
		if err != nil {
			return pegasus.Ref{} // division by zero: leave for run time
		}
		return pegasus.V(c.constNode(n.Hyper, v, n.VT))
	}
	// Algebraic identities.
	switch n.BinOp {
	case cminor.OpAdd:
		if lok && l == 0 {
			return n.Ins[1]
		}
		if rok && r == 0 {
			return n.Ins[0]
		}
	case cminor.OpSub:
		if rok && r == 0 {
			return n.Ins[0]
		}
	case cminor.OpMul:
		if rok && r == 1 {
			return n.Ins[0]
		}
		if lok && l == 1 {
			return n.Ins[1]
		}
		if (rok && r == 0) || (lok && l == 0) {
			return pegasus.V(c.constNode(n.Hyper, 0, n.VT))
		}
	case cminor.OpShl, cminor.OpShr:
		if rok && r == 0 {
			return n.Ins[0]
		}
	case cminor.OpAnd:
		if (rok && r == 0) || (lok && l == 0) {
			return pegasus.V(c.constNode(n.Hyper, 0, n.VT))
		}
		if rok && r == -1 {
			return n.Ins[0]
		}
	case cminor.OpOr:
		if rok && r == 0 {
			return n.Ins[0]
		}
		if lok && l == 0 {
			return n.Ins[1]
		}
	case cminor.OpXor:
		if rok && r == 0 {
			return n.Ins[0]
		}
	case cminor.OpDiv:
		if rok && r == 1 {
			return n.Ins[0]
		}
	}
	return pegasus.Ref{}
}

// cseKey identifies structurally-equal pure nodes. Operands are keyed by
// operandKey, and val holds the constant or the object, whichever the
// kind has.
type cseKey struct {
	kind     pegasus.Kind
	op       uint8 // BinOp or UnOp
	unsigned bool
	convSign bool
	toBits   int32
	vt       pegasus.VType
	in0, in1 int64
	val      int64
}

// operandKey names an input by its producer's ID and output.
func operandKey(r pegasus.Ref) int64 { return int64(r.N.ID)<<1 | int64(r.Out) }

// commonSubexpr merges structurally identical pure value nodes.
// Commutative operators are normalized by operand ID. The table is the
// ctx's, emptied on each call, so rounds reuse its memory.
func commonSubexpr(c *ctx) (bool, error) {
	g := c.g
	if c.cse == nil {
		c.cse = make(map[cseKey]*pegasus.Node, len(g.Nodes)/2)
	}
	seen := c.cse
	clear(seen)
	changed := false
	for _, n := range c.scratch.Topo(g) {
		if n.Dead {
			continue
		}
		var key cseKey
		switch n.Kind {
		case pegasus.KBinOp:
			if len(n.Ins) != 2 {
				continue
			}
			a, b := n.Ins[0], n.Ins[1]
			if isCommutative(n.BinOp) && refOrder(b, a) {
				a, b = b, a
			}
			key = cseKey{kind: n.Kind, op: uint8(n.BinOp), unsigned: n.Unsigned, vt: n.VT,
				in0: operandKey(a), in1: operandKey(b)}
		case pegasus.KUnOp:
			key = cseKey{kind: n.Kind, op: uint8(n.UnOp), vt: n.VT, in0: operandKey(n.Ins[0])}
		case pegasus.KConv:
			key = cseKey{kind: n.Kind, toBits: int32(n.ToBits), convSign: n.ConvSign, vt: n.VT,
				in0: operandKey(n.Ins[0])}
		case pegasus.KAddrOf:
			key = cseKey{kind: n.Kind, val: int64(n.Obj)}
		case pegasus.KConst:
			key = cseKey{kind: n.Kind, val: n.ConstVal, vt: n.VT}
		default:
			continue
		}
		if prev, ok := seen[key]; ok && prev != n {
			// Respect BDD canonicalization: keep the node that carries a
			// BDD if only one does.
			g.ReplaceUses(n, pegasus.OutValue, pegasus.V(prev))
			changed = true
			continue
		}
		seen[key] = n
	}
	return changed, nil
}

func isCommutative(op cminor.BinOpKind) bool {
	switch op {
	case cminor.OpAdd, cminor.OpMul, cminor.OpAnd, cminor.OpOr, cminor.OpXor,
		cminor.OpEq, cminor.OpNe:
		return true
	}
	return false
}

func refOrder(a, b pegasus.Ref) bool {
	if a.N.ID != b.N.ID {
		return a.N.ID < b.N.ID
	}
	return a.Out < b.Out
}

// deadCode removes nodes whose outputs nobody uses, starting from the
// side-effect roots (return, stores, calls). Loads whose value is unused
// are removed too, splicing their token inputs to their token consumers
// (reads commute, so dropping a read never changes memory).
func deadCode(c *ctx) (bool, error) {
	g := c.g
	changed := false
	// First: loads with no value uses but live tokens get spliced out.
	uses := c.scratch.UseCounts(g)
	for _, n := range g.Nodes {
		if n.Dead || n.Kind != pegasus.KLoad {
			continue
		}
		if uses[n.ID].Val == 0 {
			spliceTokens(g, n)
			n.Dead = true
			changed = true
		}
	}
	// Mark phase.
	c.live = zeroed(c.live, g.MaxID())
	live, stack := c.live, c.stack[:0]
	push := func(n *pegasus.Node) {
		if n != nil && !n.Dead && !live[n.ID] {
			live[n.ID] = true
			stack = append(stack, n)
		}
	}
	for _, n := range g.Nodes {
		if n.Dead {
			continue
		}
		switch n.Kind {
		case pegasus.KReturn, pegasus.KStore, pegasus.KCall:
			push(n)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n.EachInput(func(r *pegasus.Ref, p pegasus.Port, i int) {
			if r.Valid() {
				push(r.N)
			}
		})
	}
	c.stack = stack
	for _, n := range g.Nodes {
		if !n.Dead && !live[n.ID] {
			n.Dead = true
			changed = true
		}
	}
	return changed, nil
}

// spliceTokens reroutes a memory node's token consumers to its token
// producers, preserving the transitive ordering (the Section 4.1 rule:
// "its token input is connected to its token output"). Consumers with a
// fixed single-token port (etas, merges, returns, token generators) get a
// combine when the node had several token inputs.
func spliceTokens(g *pegasus.Graph, n *pegasus.Node) {
	ins := append([]pegasus.Ref(nil), n.Toks...)
	// Single replacement ref, combining when needed (lazily created).
	var combined pegasus.Ref
	single := func() pegasus.Ref {
		if combined.Valid() {
			return combined
		}
		switch len(ins) {
		case 0:
			// Tokenless op (immutable load) with a consumer: the entry
			// token is always available.
			combined = pegasus.T(g.Entry)
		case 1:
			combined = ins[0]
		default:
			comb := g.NewNode(pegasus.KCombine, n.Hyper)
			comb.Toks = append(comb.Toks, ins...)
			combined = pegasus.T(comb)
		}
		return combined
	}
	for _, user := range g.Nodes {
		if user.Dead || user == n {
			continue
		}
		multi := user.IsMemOp() || user.Kind == pegasus.KCall || user.Kind == pegasus.KCombine
		if multi {
			found := false
			for i := 0; i < len(user.Toks); i++ {
				if user.Toks[i].N == n {
					user.Toks = append(user.Toks[:i], user.Toks[i+1:]...)
					i--
					found = true
				}
			}
			if found {
				for _, in := range ins {
					user.AddTok(in)
				}
			}
			continue
		}
		// Fixed-arity ports: substitute in place.
		for i := range user.Toks {
			if user.Toks[i].N == n {
				user.Toks[i] = single()
			}
		}
	}
}
