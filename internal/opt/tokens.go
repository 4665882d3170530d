package opt

import (
	"spatial/internal/affine"
	"spatial/internal/pegasus"
)

// This file implements the token-network optimizations: dead
// memory-operation removal (Section 4.1), token-edge removal by address
// disambiguation (Section 4.3, Figure 5), and transitive reduction of the
// token graph (Section 3.4).

// deadMemOps removes side-effect operations whose controlling predicate
// is constant false: the operation never executes, so its token input is
// forwarded directly to its token consumers (Section 4.1).
func deadMemOps(c *ctx) (bool, error) {
	g := c.g
	changed := false
	for _, n := range g.Nodes {
		if n.Dead {
			continue
		}
		if n.Kind != pegasus.KLoad && n.Kind != pegasus.KStore && n.Kind != pegasus.KCall {
			continue
		}
		pred := n.Preds[0].N
		if !g.IsConstFalse(pred) {
			continue
		}
		// Loads and calls produce an arbitrary value when squashed;
		// replace value uses with 0.
		if n.HasValue() {
			g.ReplaceUses(n, pegasus.OutValue, pegasus.V(c.constNode(n.Hyper, 0, n.VT)))
		}
		spliceTokens(g, n)
		n.Dead = true
		changed = true
	}
	return changed, nil
}

// tokenRemoval removes token edges between memory operations whose
// addresses can be proven distinct by symbolic computation (Section 4.3).
// Removing edge i→j preserves the transitive closure by forwarding i's
// token inputs to j (Figure 5).
func tokenRemoval(c *ctx) (bool, error) {
	g := c.g
	ts := &c.tok
	ts.reset(g)
	changed := false
	for _, j := range g.Nodes {
		if j.Dead || !j.IsMemOp() {
			continue
		}
		for idx := 0; idx < len(j.Toks); idx++ {
			i := j.Toks[idx].N
			if i.Dead || !i.IsMemOp() || i.Hyper != j.Hyper {
				continue
			}
			// Reads never need ordering; such edges should not exist, but
			// remove them if a rewrite introduced one.
			bothReads := i.Kind == pegasus.KLoad && j.Kind == pegasus.KLoad
			if !bothReads && !affine.Distinct(ts.address(i), ts.address(j), int(i.Bytes), int(j.Bytes)) {
				continue
			}
			// Remove the edge i→j. The transitive closure of the rest of
			// the graph must be preserved (Figure 5): j inherits i's
			// token inputs (upstream ordering to j), and every consumer
			// of j's token also waits for i directly (i's ordering to
			// everything after j — this is how the "new combine at the
			// end of the program" of Figure 1B arises).
			ts.index(g)
			j.RemoveTokInput(idx)
			idx--
			ts.inherit(j, i)
			// Combines made below for j's consumers join j's list
			// after them; they need nothing more, so the loop stops at
			// the consumers it started with.
			for _, m := range ts.users[j.ID] {
				if m.Dead || m == j || m == i {
					continue
				}
				ts.addTokenAlongside(g, m, j, i)
			}
			changed = true
		}
	}
	return changed, nil
}

// tokenScratch is tokenRemoval's working memory for one pass: the affine
// form of each memory operation's address, decomposed on first use (the
// pass rewires only tokens, so an address never changes), and, from the
// pass's first removal on, an index of every node's token consumers.
type tokenScratch struct {
	slot    []int32           // by node ID: 1 + the address's index in addrs, or 0
	addrs   []affine.Expr     // in order of first use
	users   [][]*pegasus.Node // by producer ID, in consumer ID order
	indexed bool
	has     []uint32 // by node ID: == stamp while inherit's j has its token
	stamp   uint32
}

func (ts *tokenScratch) reset(g *pegasus.Graph) {
	ts.slot = zeroed(ts.slot, g.MaxID())
	clear(ts.addrs)
	ts.addrs = ts.addrs[:0]
	ts.indexed = false
}

// address returns the affine form of memory operation n's address.
func (ts *tokenScratch) address(n *pegasus.Node) affine.Expr {
	if ts.slot[n.ID] == 0 {
		ts.addrs = append(ts.addrs, affine.Decompose(n.Ins[0].N))
		ts.slot[n.ID] = int32(len(ts.addrs))
	}
	return ts.addrs[ts.slot[n.ID]-1]
}

// inherit appends i's token inputs to j's, skipping those j already has,
// as AddTok does, but marks j's inputs once instead of scanning j's list
// for each of i's.
func (ts *tokenScratch) inherit(j, i *pegasus.Node) {
	ts.stamp++
	for _, t := range j.Toks {
		ts.mark(t.N)
	}
	for _, t := range i.Toks {
		if ts.mark(t.N) {
			j.Toks = append(j.Toks, t)
			ts.addUser(t.N, j)
		}
	}
}

// mark records that inherit's j has n's token and reports whether that
// is new.
func (ts *tokenScratch) mark(n *pegasus.Node) bool {
	for len(ts.has) <= n.ID {
		ts.has = append(ts.has, 0)
	}
	if ts.has[n.ID] == ts.stamp {
		return false
	}
	ts.has[n.ID] = ts.stamp
	return true
}

// index builds the consumer index, once per pass: visiting consumers from
// it, in ID order, creates combines in the order a scan of every node
// would, without the scan per removed edge.
func (ts *tokenScratch) index(g *pegasus.Graph) {
	if ts.indexed {
		return
	}
	ts.indexed = true
	for p := range ts.users {
		ts.users[p] = ts.users[p][:0]
	}
	for _, m := range g.Nodes {
		if m.Dead {
			continue
		}
		for _, t := range m.Toks {
			ts.addUser(t.N, m)
		}
	}
}

// addUser records that m consumes p's token. The index only grows: an
// entry whose edge was cut since stays, and addTokenAlongside skips it.
func (ts *tokenScratch) addUser(p, m *pegasus.Node) {
	if !ts.indexed || p == nil {
		return
	}
	for len(ts.users) <= p.ID {
		ts.users = append(ts.users, nil)
	}
	us := ts.users[p.ID]
	k := len(us)
	for k > 0 && us[k-1].ID > m.ID {
		k--
	}
	if k > 0 && us[k-1] == m {
		return
	}
	us = append(us, nil)
	copy(us[k+1:], us[k:])
	us[k] = m
	ts.users[p.ID] = us
}

// addTokenAlongside makes consumer m (which consumes j's token) also wait
// for i's. Multi-token nodes simply gain an input; fixed-arity ports
// (etas, merges, returns, token generators) get their slot replaced by a
// combine over both.
func (ts *tokenScratch) addTokenAlongside(g *pegasus.Graph, m, j, i *pegasus.Node) {
	consumes := false
	for _, t := range m.Toks {
		if t.N == j {
			consumes = true
			break
		}
	}
	if !consumes {
		return
	}
	if m.IsMemOp() || m.Kind == pegasus.KCall || m.Kind == pegasus.KCombine {
		m.AddTok(pegasus.T(i))
		ts.addUser(i, m)
		return
	}
	for slot := range m.Toks {
		if m.Toks[slot].N != j {
			continue
		}
		comb := g.NewNode(pegasus.KCombine, m.Hyper)
		comb.Toks = []pegasus.Ref{m.Toks[slot], pegasus.T(i)}
		m.Toks[slot] = pegasus.T(comb)
		ts.addUser(j, comb)
		ts.addUser(i, comb)
		ts.addUser(comb, m)
	}
}

// transitiveReduction drops token edges implied by longer token paths
// within the same hyperblock. The compiler keeps the token graph reduced
// throughout (Section 3.4); rewrites such as tokenRemoval's input
// forwarding can introduce redundant edges.
func transitiveReduction(c *ctx) (bool, error) {
	g := c.g
	changed := false
	// Transitive closure of intra-hyperblock token inputs per node.
	closure := map[*pegasus.Node]map[*pegasus.Node]bool{}
	var reach func(n *pegasus.Node) map[*pegasus.Node]bool
	reach = func(n *pegasus.Node) map[*pegasus.Node]bool {
		if m, ok := closure[n]; ok {
			return m
		}
		m := map[*pegasus.Node]bool{}
		closure[n] = m // breaks cycles through back edges defensively
		for _, t := range n.Toks {
			if !t.Valid() || t.N.Hyper != n.Hyper || g.IsBackEdge(t.N, n) {
				continue
			}
			m[t.N] = true
			for k := range reach(t.N) {
				m[k] = true
			}
		}
		return m
	}
	for _, n := range g.Nodes {
		if n.Dead || len(n.Toks) < 2 {
			continue
		}
		for idx := 0; idx < len(n.Toks); idx++ {
			ti := n.Toks[idx].N
			if ti.Hyper != n.Hyper {
				continue
			}
			redundant := false
			for jdx, tj := range n.Toks {
				if jdx == idx || !tj.Valid() || tj.N.Hyper != n.Hyper {
					continue
				}
				if reach(tj.N)[ti] {
					redundant = true
					break
				}
			}
			if redundant {
				n.RemoveTokInput(idx)
				idx--
				changed = true
			}
		}
	}
	return changed, nil
}
