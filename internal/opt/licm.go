package opt

import (
	"spatial/internal/pegasus"
)

// This file implements loop-invariant load motion (paper Section 5.4).
// A load inside a loop hyperblock is invariant when its address, its
// predicate, and its token input are all loop-invariant; the token input
// is invariant exactly when the load's location class is untouched inside
// the loop (its token merge circulates unchanged). Such a load is lifted
// in front of the loop, and its value circulates through a fresh
// merge/eta pair, mirroring the paper's loop-header hyperblock.
//
// Loop-invariant *stores* are never hoisted: their token input is fresh
// every iteration (Section 5.4's closing remark).

// loopEntry describes a loop hyperblock with a unique entry edge.
type loopEntry struct {
	hyper     int
	entryPred *pegasus.Node // predicate (in the predecessor hyperblock) of the entry edge
	predHyper int
}

// findLoopEntry checks that every merge of the loop, among its given
// nodes, has exactly one non-back-edge input, all arriving from the same
// predecessor hyperblock under the same eta predicate.
func findLoopEntry(g *pegasus.Graph, hyper int, nodes []*pegasus.Node) (*loopEntry, bool) {
	hb := g.Hypers[hyper]
	if !hb.IsLoop || hb.LoopPred == nil || hb.LoopPred.Hyper != hyper {
		return nil, false
	}
	le := &loopEntry{hyper: hyper, predHyper: -1}
	for _, m := range nodes {
		if m.Dead || m.Kind != pegasus.KMerge {
			continue
		}
		entries := 0
		srcs := m.Ins
		if m.TokenOnly {
			srcs = m.Toks
		}
		for _, in := range srcs {
			if !in.Valid() || g.IsBackEdge(in.N, m) {
				continue
			}
			entries++
			eta := in.N
			if eta.Kind != pegasus.KEta {
				return nil, false
			}
			p := eta.Preds[0].N
			if le.entryPred == nil {
				le.entryPred = p
				le.predHyper = eta.Hyper
			} else if le.entryPred != p {
				return nil, false
			}
		}
		if entries != 1 {
			return nil, false
		}
	}
	if le.entryPred == nil {
		return nil, false
	}
	return le, true
}

// invariantValue reports whether a value node is loop-invariant within
// hyper, and (when materialize is true) returns a reference usable in the
// predecessor hyperblock. Static sources are usable anywhere; invariant
// merges map to their entry value; pure ops are cloned.
type hoister struct {
	c     *ctx
	le    *loopEntry
	memo  map[*pegasus.Node]pegasus.Ref
	state map[*pegasus.Node]int8 // 0 unknown, 1 invariant, 2 variant
}

func (h *hoister) invariant(n *pegasus.Node) bool {
	switch h.state[n] {
	case 1:
		return true
	case 2:
		return false
	}
	h.state[n] = 2 // default for cycles
	res := false
	switch n.Kind {
	case pegasus.KConst, pegasus.KAddrOf, pegasus.KParam:
		res = true
	case pegasus.KMerge:
		if n.Hyper == h.le.hyper {
			res = h.identityMerge(n)
		}
	case pegasus.KBinOp, pegasus.KUnOp, pegasus.KConv:
		if n.Hyper == h.le.hyper {
			res = true
			for _, in := range n.Ins {
				if !h.invariant(in.N) {
					res = false
					break
				}
			}
		}
	}
	if res {
		h.state[n] = 1
	}
	return res
}

// identityMerge reports whether a merge circulates its value unchanged
// (back-edge input is an eta whose data source is the merge itself).
func (h *hoister) identityMerge(m *pegasus.Node) bool {
	g := h.c.g
	srcs := m.Ins
	if m.TokenOnly {
		srcs = m.Toks
	}
	for _, in := range srcs {
		if !in.Valid() || !g.IsBackEdge(in.N, m) {
			continue
		}
		eta := in.N
		if eta.Kind != pegasus.KEta {
			return false
		}
		var src pegasus.Ref
		if m.TokenOnly {
			src = eta.Toks[0]
		} else {
			src = eta.Ins[0]
		}
		if src.N != m {
			return false
		}
	}
	return true
}

// entryValue returns the pre-loop value of an invariant node, cloning
// pure computation into the predecessor hyperblock as needed.
func (h *hoister) entryValue(n *pegasus.Node) pegasus.Ref {
	if r, ok := h.memo[n]; ok {
		return r
	}
	g := h.c.g
	var r pegasus.Ref
	switch n.Kind {
	case pegasus.KConst, pegasus.KAddrOf, pegasus.KParam:
		r = pegasus.V(n)
	case pegasus.KMerge:
		// The unique entry eta's data source.
		srcs := n.Ins
		for _, in := range srcs {
			if in.Valid() && !g.IsBackEdge(in.N, n) {
				r = in.N.Ins[0] // eta's source
				break
			}
		}
	case pegasus.KBinOp, pegasus.KUnOp, pegasus.KConv:
		clone := g.NewNode(n.Kind, h.le.predHyper)
		clone.VT = n.VT
		clone.BinOp = n.BinOp
		clone.UnOp = n.UnOp
		clone.Unsigned = n.Unsigned
		clone.FromBits = n.FromBits
		clone.ToBits = n.ToBits
		clone.ConvSign = n.ConvSign
		for _, in := range n.Ins {
			clone.Ins = append(clone.Ins, h.entryValue(in.N))
		}
		r = pegasus.V(clone)
	}
	h.memo[n] = r
	return r
}

// loopInvariantMotion hoists invariant loads out of single-entry loop
// hyperblocks.
func loopInvariantMotion(c *ctx) (bool, error) {
	g := c.g
	changed := false
	// Listed once: hoisting from loop h adds nodes only to h and to its
	// predecessor, which precedes it, and kills only loads it checks.
	lists := c.listHypers()
	for hyper := range g.Hypers {
		if !g.Hypers[hyper].IsLoop {
			continue
		}
		nodes := lists[hyper]
		le, ok := findLoopEntry(g, hyper, nodes)
		if !ok {
			continue
		}
		h := &hoister{c: c, le: le, memo: map[*pegasus.Node]pegasus.Ref{}, state: map[*pegasus.Node]int8{}}
		for _, l := range nodes {
			if l.Dead || l.Kind != pegasus.KLoad {
				continue
			}
			if !h.invariant(l.Ins[0].N) {
				continue
			}
			// The predicate must hold on every iteration: the wave itself
			// or the loop-continue predicate (an unconditional body load).
			// Hoisting such a load is speculation past the loop test,
			// which is safe for side-effect-free loads (Section 3.1).
			lp := l.Preds[0].N
			if !g.IsConstTrue(lp) && lp != g.Hypers[hyper].LoopPred {
				continue
			}
			// Token input: either none (immutable object) or a single
			// identity-circulating token merge (class untouched by the
			// loop).
			var tokenMerge *pegasus.Node
			if len(l.Toks) == 1 {
				tm := l.Toks[0].N
				if tm.Kind != pegasus.KMerge || !tm.TokenOnly || tm.Hyper != hyper || !h.identityMerge(tm) {
					continue
				}
				tokenMerge = tm
			} else if len(l.Toks) != 0 {
				continue
			}
			hoistLoad(c, le, l, tokenMerge)
			changed = true
		}
	}
	return changed, nil
}

// hoistLoad moves load l in front of the loop and circulates its value.
func hoistLoad(c *ctx, le *loopEntry, l *pegasus.Node, tokenMerge *pegasus.Node) {
	g := c.g
	h := &hoister{c: c, le: le, memo: map[*pegasus.Node]pegasus.Ref{}, state: map[*pegasus.Node]int8{}}
	// Lifted load in the predecessor hyperblock.
	lift := g.NewNode(pegasus.KLoad, le.predHyper)
	lift.VT = l.VT
	lift.Bytes = l.Bytes
	lift.RW = l.RW
	lift.Class = l.Class
	lift.Pos = l.Pos
	lift.Ins = []pegasus.Ref{h.entryValue(l.Ins[0].N)}
	lift.Preds = []pegasus.Ref{pegasus.V(le.entryPred)}
	if tokenMerge != nil {
		// Take the token the entry eta was carrying into the loop, and
		// make that eta wait for the lifted load instead.
		var entryEta *pegasus.Node
		for _, in := range tokenMerge.Toks {
			if in.Valid() && !g.IsBackEdge(in.N, tokenMerge) {
				entryEta = in.N
				break
			}
		}
		lift.Toks = []pegasus.Ref{entryEta.Toks[0]}
		entryEta.Toks[0] = pegasus.T(lift)
	}
	// Circulate the loaded value: entry eta → merge ←(back) eta.
	inEta := g.NewNode(pegasus.KEta, le.predHyper)
	inEta.VT = l.VT
	inEta.Ins = []pegasus.Ref{pegasus.V(lift)}
	inEta.Preds = []pegasus.Ref{pegasus.V(le.entryPred)}
	m := g.NewNode(pegasus.KMerge, le.hyper)
	m.VT = l.VT
	backEta := g.NewNode(pegasus.KEta, le.hyper)
	backEta.VT = l.VT
	backEta.Ins = []pegasus.Ref{pegasus.V(m)}
	backEta.Preds = []pegasus.Ref{pegasus.V(g.Hypers[le.hyper].LoopPred)}
	m.Ins = []pegasus.Ref{pegasus.V(inEta), pegasus.V(backEta)}
	g.ReplaceUses(l, pegasus.OutValue, pegasus.V(m))
	spliceTokens(g, l)
	l.Dead = true
}
