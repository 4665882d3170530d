package opt

import (
	"spatial/internal/pegasus"
)

// This file implements the redundant memory-access removal of paper
// Section 5: merging equivalent memory operations (5.1, Figure 7),
// store-before-store removal (5.2, Figure 8), and load-after-store
// forwarding (5.3, Figure 9). All three are local term rewrites guarded
// by boolean predicate manipulation and a reachability (cycle) check.

// sameTokenInputs reports whether two nodes consume exactly the same set
// of token outputs.
func sameTokenInputs(a, b *pegasus.Node) bool {
	if len(a.Toks) != len(b.Toks) {
		return false
	}
	set := map[pegasus.Ref]bool{}
	for _, t := range a.Toks {
		set[t] = true
	}
	for _, t := range b.Toks {
		if !set[t] {
			return false
		}
	}
	return true
}

// sameAddress reports whether two memory ops access the same address and
// the same amount of data (the optimizations do not handle mixed sizes).
func sameAddress(a, b *pegasus.Node) bool {
	return a.Ins[0] == b.Ins[0] && a.Bytes == b.Bytes
}

// memMerge merges equivalent memory operations (Section 5.1): two loads
// (or two stores) of the same address and width with identical token
// inputs become one operation executing under the OR of the predicates.
// This subsumes CSE, PRE, and code hoisting for memory accesses.
func memMerge(c *ctx) (bool, error) {
	g := c.g
	changed := false
	reach := pegasus.NewReachability(g)
	// Group candidate ops by hyperblock. Merging creates no memory
	// operations and kills only ops of the hyperblock being scanned.
	for _, ops := range c.listHypers() {
		kept := ops[:0]
		for _, n := range ops {
			if n.IsMemOp() || n.Kind == pegasus.KCall {
				kept = append(kept, n)
			}
		}
		ops = kept
		for i := 0; i < len(ops); i++ {
			a := ops[i]
			if a.Dead || a.Kind == pegasus.KCall {
				continue
			}
			for j := i + 1; j < len(ops); j++ {
				b := ops[j]
				if b.Dead || b.Kind != a.Kind {
					continue
				}
				if !sameAddress(a, b) || !sameTokenInputs(a, b) {
					continue
				}
				if a.VT != b.VT {
					continue
				}
				pa, pb := a.Preds[0].N, b.Preds[0].N
				if pa.Hyper != pb.Hyper {
					continue
				}
				if a.Kind == pegasus.KLoad {
					if mergeLoads(c, reach, a, b, pa, pb) {
						changed = true
						reach = pegasus.NewReachability(g)
					}
				} else if mergeStores(c, reach, a, b, pa, pb) {
					changed = true
					reach = pegasus.NewReachability(g)
				}
			}
		}
	}
	return changed, nil
}

// mergeLoads rewrites two compatible loads into one with predicate
// pa ∨ pb (Figure 7). The cycle-free condition: neither predicate may
// depend on the other load's value, and neither may the OR, which
// PredOr can return as an existing node with the same function built
// from other inputs.
func mergeLoads(c *ctx, reach *pegasus.Reachability, a, b, pa, pb *pegasus.Node) bool {
	g := c.g
	if reach.Reaches(a, pb) || reach.Reaches(b, pa) {
		return false
	}
	or := g.PredOr(pa, pb)
	if reach.Reaches(a, or) || reach.Reaches(b, or) {
		return false
	}
	a.Preds[0] = pegasus.V(or)
	g.ReplaceUses(b, pegasus.OutValue, pegasus.V(a))
	g.ReplaceUses(b, pegasus.OutToken, pegasus.T(a))
	b.Dead = true
	return true
}

// mergeStores rewrites two compatible stores with mutually exclusive
// predicates into one store of a muxed value under pa ∨ pb.
func mergeStores(c *ctx, reach *pegasus.Reachability, a, b, pa, pb *pegasus.Node) bool {
	g := c.g
	if !g.PredDisjoint(pa, pb) {
		return false
	}
	// The mux adds edges pb→a and b.value→a.
	if reach.Reaches(a, pb) || reach.Reaches(a, b.Ins[1].N) ||
		reach.Reaches(b, pa) || reach.Reaches(b, a.Ins[1].N) {
		return false
	}
	mux := g.NewNode(pegasus.KMux, a.Hyper)
	mux.VT = a.Ins[1].N.VT
	if mux.VT.Bits == 0 {
		mux.VT = pegasus.I32
	}
	mux.Ins = []pegasus.Ref{a.Ins[1], b.Ins[1]}
	mux.Preds = []pegasus.Ref{pegasus.V(pa), pegasus.V(pb)}
	// Make the mux before the OR: the nodes get the same IDs whether or
	// not the merge goes ahead, and a refused merge leaves the mux dead.
	or := g.PredOr(pa, pb)
	if reach.Reaches(a, or) || reach.Reaches(b, or) {
		mux.Dead = true
		return false
	}
	a.Ins[1] = pegasus.V(mux)
	a.Preds[0] = pegasus.V(or)
	g.ReplaceUses(b, pegasus.OutToken, pegasus.T(a))
	b.Dead = true
	return true
}

// storeBeforeStore implements Figure 8: when store s1's token feeds store
// s2 at the same address (and nothing else consumes s1's token, so no
// intervening access exists), s1 needs to execute only when s2 will not
// overwrite it: pred(s1) := pred(s1) ∧ ¬pred(s2). If that predicate is
// constant false, s1 is dead and removed (Section 4.1 rule). The new
// predicate may be an existing node that depends on s1; then the rewrite
// would close a cycle and is skipped.
func storeBeforeStore(c *ctx) (bool, error) {
	g := c.g
	changed := false
	uses := c.scratch.UseCounts(g)
	reach := pegasus.NewReachability(g)
	for _, s2 := range g.Nodes {
		if s2.Dead || s2.Kind != pegasus.KStore {
			continue
		}
		for _, t := range s2.Toks {
			s1 := t.N
			if s1.Dead || s1.Kind != pegasus.KStore || s1.Hyper != s2.Hyper {
				continue
			}
			if !sameAddress(s1, s2) {
				continue
			}
			// s1's token must only feed s2.
			if uses[s1.ID].Tok != 1 {
				continue
			}
			p1, p2 := s1.Preds[0].N, s2.Preds[0].N
			if p1.Hyper != p2.Hyper {
				continue
			}
			newPred := g.PredAndNot(p1, p2)
			if newPred == p1 || reach.Reaches(s1, newPred) {
				continue // no change (e.g. already disjoint), or a cycle
			}
			s1.Preds[0] = pegasus.V(newPred)
			changed = true
			reach = pegasus.NewReachability(g)
			if g.IsConstFalse(newPred) {
				spliceTokens(g, s1)
				s1.Dead = true
				uses = c.scratch.UseCounts(g)
			}
		}
	}
	return changed, nil
}

// loadAfterStore implements Figure 9: a load whose token inputs all come
// from stores to the same address bypasses memory — its value becomes a
// decoded mux of the stored values, and the load itself runs only when no
// store did. If the stores collectively dominate the load, the load
// disappears entirely.
func loadAfterStore(c *ctx) (bool, error) {
	g := c.g
	changed := false
	reach := pegasus.NewReachability(g)
	for _, l := range g.Nodes {
		if l.Dead || l.Kind != pegasus.KLoad || len(l.Toks) == 0 {
			continue
		}
		stores := make([]*pegasus.Node, 0, len(l.Toks))
		ok := true
		for _, t := range l.Toks {
			s := t.N
			if s.Dead || s.Kind != pegasus.KStore || s.Hyper != l.Hyper || !sameAddress(s, l) {
				ok = false
				break
			}
			stores = append(stores, s)
		}
		if !ok || len(stores) == 0 {
			continue
		}
		// Cycle check: the mux consumes each store's value and predicate;
		// none of them may depend on the load's output.
		cyc := false
		for _, s := range stores {
			if reach.Reaches(l, s.Ins[1].N) || reach.Reaches(l, s.Preds[0].N) {
				cyc = true
				break
			}
		}
		if cyc {
			continue
		}
		lp := l.Preds[0].N
		if lp.Hyper != l.Hyper {
			continue
		}
		cover := stores[0].Preds[0].N
		for _, s := range stores[1:] {
			cover = g.PredOr(cover, s.Preds[0].N)
		}
		residual := g.PredAndNot(lp, cover)
		if residual == lp {
			// Already forwarded in a previous round (the predicate is
			// fixed under ∧¬cover), or the stores' predicates are
			// disjoint from the load's — either way the rewrite would be
			// a no-op (or build an ever-growing mux chain); skip.
			continue
		}
		if reach.Reaches(l, residual) {
			// The residual is an existing node that depends on the load:
			// predicating the load on it would close a cycle.
			continue
		}
		mux := g.NewNode(pegasus.KMux, l.Hyper)
		mux.VT = l.VT
		for _, s := range stores {
			mux.Ins = append(mux.Ins, s.Ins[1])
			mux.Preds = append(mux.Preds, s.Preds[0])
		}
		// Sub-word loads reinterpret the stored bytes: re-truncate the
		// forwarded value to the loaded width and signedness.
		fwd := pegasus.V(mux)
		if l.Bytes < 4 {
			conv := g.NewNode(pegasus.KConv, l.Hyper)
			conv.VT = l.VT
			conv.ToBits = l.Bytes * 8
			conv.ConvSign = l.VT.Signed
			conv.Ins = []pegasus.Ref{pegasus.V(mux)}
			fwd = pegasus.V(conv)
		}
		if !g.IsConstFalse(residual) {
			// The load may still execute; keep it under the residual
			// predicate and include its value in the mux.
			l.Preds[0] = pegasus.V(residual)
			mux.Ins = append(mux.Ins, pegasus.V(l))
			mux.Preds = append(mux.Preds, pegasus.V(residual))
			// Replace all value uses of the load except the mux's own.
			replaceValueUsesExcept(g, l, fwd, mux)
		} else {
			g.ReplaceUses(l, pegasus.OutValue, fwd)
			spliceTokens(g, l)
			l.Dead = true
		}
		changed = true
		reach = pegasus.NewReachability(g)
	}
	return changed, nil
}

// replaceValueUsesExcept rewires value uses of old to newRef, leaving the
// given user untouched.
func replaceValueUsesExcept(g *pegasus.Graph, old *pegasus.Node, newRef pegasus.Ref, except *pegasus.Node) {
	for _, n := range g.Nodes {
		if n.Dead || n == except {
			continue
		}
		n.EachInput(func(r *pegasus.Ref, p pegasus.Port, i int) {
			if r.N == old && r.Out == pegasus.OutValue {
				*r = newRef
			}
		})
	}
}
