package opt

import (
	"slices"
	"sort"

	"spatial/internal/affine"
	"spatial/internal/pegasus"
)

// This file implements the loop pipelining transformations of paper
// Section 6: read-only loop splitting (6.1), monotone-address loops
// (6.2), and loop decoupling with token generators (6.3). All three
// operate on a location class's token circuit inside a loop hyperblock:
//
//	entry eta → [token merge tm] → class ops … → boundary combine
//	     ↑___________ back eta ________________________|
//
// Serialization across iterations comes from the back eta waiting for the
// boundary combine. The transformations reroute the back eta straight to
// tm (a free-running "generator" loop), leaving the per-iteration
// boundary combine consumed by the exit etas (the "collector"), and — for
// decoupling — inserting a token generator tk(d) that paces the trailing
// access group.

// circuit describes one class's token plumbing in a loop hyperblock.
type circuit struct {
	class   int
	tm      *pegasus.Node // token merge
	backEta *pegasus.Node
	ops     []*pegasus.Node // loads/stores of the class in the hyperblock
	calls   bool            // a call touches the class in the loop
}

// findCircuit locates the token circuit of class cl in loop hyperblock h,
// whose live nodes are given. It requires the single-hyperblock loop
// shape: the back eta lives in the same hyperblock.
func findCircuit(c *ctx, h int32, nodes []*pegasus.Node, cl int) (*circuit, bool) {
	g := c.g
	cir := &circuit{class: cl}
	for _, n := range nodes {
		if n.Dead {
			continue
		}
		switch {
		case n.Kind == pegasus.KMerge && n.TokenOnly && int(n.TokClass) == cl:
			if cir.tm != nil {
				return nil, false
			}
			cir.tm = n
		case n.IsMemOp() && int(n.Class) == cl:
			cir.ops = append(cir.ops, n)
		case n.Kind == pegasus.KCall:
			for _, cc := range c.prog.Alias.ClassesOf(n.RW) {
				if int(cc) == cl {
					cir.calls = true
				}
			}
		}
	}
	if cir.tm == nil {
		return nil, false
	}
	backs := 0
	for _, in := range cir.tm.Toks {
		if !in.Valid() {
			return nil, false
		}
		if g.IsBackEdge(in.N, cir.tm) {
			backs++
			if in.N.Kind != pegasus.KEta || in.N.Hyper != h {
				return nil, false
			}
			cir.backEta = in.N
		}
	}
	if backs != 1 || cir.backEta == nil {
		return nil, false
	}
	sort.Slice(cir.ops, func(i, j int) bool { return cir.ops[i].ID < cir.ops[j].ID })
	return cir, true
}

// alreadyFree reports whether the generator loop is already free-running.
func (cir *circuit) alreadyFree() bool {
	return cir.backEta.Toks[0].N == cir.tm
}

// freeRun reroutes the back eta to circulate the class token without
// waiting for the iteration's accesses. The old boundary token keeps its
// other consumers (the exit etas), which act as the collector loop.
func (cir *circuit) freeRun() {
	cir.backEta.Toks[0] = pegasus.T(cir.tm)
}

// classesIn returns the distinct classes with a token merge among nodes,
// in increasing order.
func classesIn(nodes []*pegasus.Node) []int {
	var out []int
	for _, n := range nodes {
		if !n.Dead && n.Kind == pegasus.KMerge && n.TokenOnly {
			out = append(out, int(n.TokClass))
		}
	}
	sort.Ints(out)
	return slices.Compact(out)
}

// readOnlyLoops applies the Section 6.1 transformation: a class accessed
// only by loads inside a loop gets a free-running token generator loop so
// reads from many iterations issue simultaneously; the exit etas keep
// collecting every iteration's read tokens, so the loop still terminates
// only after all reads complete.
func readOnlyLoops(c *ctx) (bool, error) {
	return pipelineLoops(c, false, false)
}

// monotoneLoops applies Section 6.2: classes whose in-loop accesses
// (including stores) all advance strictly monotonically, with any
// same-iteration conflicts already ordered by retained token edges, also
// get the free-running treatment.
func monotoneLoops(c *ctx) (bool, error) {
	return pipelineLoops(c, true, false)
}

// loopDecouple applies Section 6.3 on top: two access groups at a
// constant dependence distance are split; the trailing group is paced by
// a token generator tk(d) credited by the leading group's completions.
func loopDecouple(c *ctx) (bool, error) {
	return pipelineLoops(c, true, true)
}

func pipelineLoops(c *ctx, allowWrites, decouple bool) (bool, error) {
	g := c.g
	changed := false
	// Listed once: a decoupling adds nodes only to the loop being
	// transformed, which picks them up below.
	lists := c.listHypers()
	for i, hb := range g.Hypers {
		h := int32(i)
		if !hb.IsLoop || hb.LoopPred == nil || hb.LoopPred.Hyper != h {
			continue
		}
		nodes, listed := lists[h], len(g.Nodes)
		inds := affine.FindInductions(g, h, nodes)
		invariant := func(n *pegasus.Node) bool {
			switch n.Kind {
			case pegasus.KConst, pegasus.KAddrOf, pegasus.KParam:
				return true
			case pegasus.KMerge:
				if n.Hyper != h || n.TokenOnly {
					return false
				}
				le := &hoister{c: c, le: &loopEntry{hyper: h}, state: map[*pegasus.Node]int8{}}
				return le.identityMerge(n)
			}
			return false
		}
		for _, cl := range classesIn(nodes) {
			// Nothing here kills a node, so h's list grows only by the
			// nodes a decoupling appends to the graph.
			for _, n := range g.Nodes[listed:] {
				if n.Hyper == h {
					nodes = append(nodes, n)
				}
			}
			listed = len(g.Nodes)
			cir, ok := findCircuit(c, h, nodes, cl)
			if !ok || cir.calls || cir.alreadyFree() {
				continue
			}
			if len(cir.ops) == 0 {
				// Untouched class: circulate freely.
				cir.freeRun()
				changed = true
				continue
			}
			allReads := true
			for _, op := range cir.ops {
				if op.Kind != pegasus.KLoad {
					allReads = false
					break
				}
			}
			if allReads {
				// Section 6.1.
				cir.freeRun()
				changed = true
				continue
			}
			if !allowWrites {
				continue
			}
			ok, groups := classifyAccesses(g, cir, inds, invariant)
			if !ok {
				continue
			}
			switch {
			case len(groups) == 1:
				// Section 6.2: all accesses monotone, no cross-iteration
				// conflicts.
				cir.freeRun()
				changed = true
			case len(groups) == 2 && decouple:
				if decoupleGroups(c, h, cir, groups) {
					changed = true
				}
			}
		}
	}
	return changed, nil
}

// group is a set of same-offset accesses within a class.
type group struct {
	offset int64
	ops    []*pegasus.Node
}

// classifyAccesses checks the affine structure required by Sections
// 6.2/6.3: every access decomposes to the same base terms plus one
// induction atom with a fixed coefficient; per-iteration movement covers
// the access width; accesses group by constant offset. It returns the
// groups sorted by offset in the direction of movement (trailing group
// first).
func classifyAccesses(g *pegasus.Graph, cir *circuit, inds map[*pegasus.Node]*affine.Induction, invariant func(*pegasus.Node) bool) (bool, []*group) {
	type shape struct {
		expr  affine.Expr
		bytes int
	}
	exprs := make([]shape, len(cir.ops))
	for i, op := range cir.ops {
		e := affine.Decompose(op.Ins[0].N)
		if !affine.Monotone(e, inds, invariant, int(op.Bytes)) {
			return false, nil
		}
		exprs[i] = shape{expr: e, bytes: int(op.Bytes)}
	}
	// All pairs must share the same symbolic part; group by the constant
	// difference measured in iterations.
	base := exprs[0].expr
	var move int64
	for _, t := range base.Terms {
		if iv, ok := inds[t.Atom]; ok {
			move = t.Coeff * iv.Step
		}
	}
	if move == 0 {
		return false, nil
	}
	byOffset := map[int64]*group{}
	for i, s := range exprs {
		d, ok := affine.Distance(base, s.expr, inds)
		if !ok {
			// Either differing symbolic parts or a fractional iteration
			// distance; only the exactly-aligned cases are transformed.
			return false, nil
		}
		grp := byOffset[d]
		if grp == nil {
			grp = &group{offset: d}
			byOffset[d] = grp
		}
		grp.ops = append(grp.ops, cir.ops[i])
	}
	var groups []*group
	for _, grp := range byOffset {
		groups = append(groups, grp)
	}
	// Offsets are measured in iterations (Distance divides by the
	// per-iteration movement), so regardless of direction the group with
	// the smaller offset revisits addresses the larger-offset group
	// touched earlier — it is the trailing group and must wait.
	sort.Slice(groups, func(i, j int) bool { return groups[i].offset < groups[j].offset })
	return true, groups
}

// decoupleGroups splits the class circuit into two independent loops with
// a token generator bounding the slip (Figure 16).
func decoupleGroups(c *ctx, h int32, cir *circuit, groups []*group) bool {
	g := c.g
	trail, lead := groups[0], groups[1]
	d := lead.offset - trail.offset
	if d < 0 {
		d = -d
	}
	if d == 0 || d > 1<<20 {
		return false
	}
	// Same-wave addresses of the two groups are provably distinct, so
	// token removal should already have cut any cross-group edges; if one
	// survives (unusual pass combinations), leave the circuit alone.
	inGroup := func(grp *group, n *pegasus.Node) bool {
		for _, op := range grp.ops {
			if op == n {
				return true
			}
		}
		return false
	}
	for _, op := range cir.ops {
		for _, t := range op.Toks {
			if inGroup(trail, op) && inGroup(lead, t.N) ||
				inGroup(lead, op) && inGroup(trail, t.N) {
				return false
			}
		}
	}
	// The leading group runs freely off the class merge; credits flow
	// from its per-iteration completions into tk(d), which paces the
	// trailing group.
	cir.freeRun()
	var credit pegasus.Ref
	if len(lead.ops) == 1 {
		credit = pegasus.T(lead.ops[0])
	} else {
		comb := g.NewNode(pegasus.KCombine, h)
		for _, op := range lead.ops {
			comb.Toks = append(comb.Toks, pegasus.T(op))
		}
		credit = pegasus.T(comb)
	}
	tk := g.NewNode(pegasus.KTokenGen, h)
	tk.TokN = int32(d)
	// The predicate input fires once per wave — the hyperblock's control
	// wave — so the trailing group receives a token even in the final
	// (squashed) wave. Credits self-balance because squashed leading
	// accesses still emit tokens.
	tk.Preds = []pegasus.Ref{pegasus.V(g.ConstPred(h, true))}
	tk.Toks = []pegasus.Ref{credit}
	for _, op := range trail.ops {
		// Keep intra-group ordering edges and the class merge token (it
		// carries the ordering against accesses *before* the loop and is
		// free-running per wave), and add the generator's pacing token.
		var kept []pegasus.Ref
		for _, t := range op.Toks {
			if inGroup(trail, t.N) {
				kept = append(kept, t)
			}
		}
		kept = append(kept, pegasus.T(cir.tm))
		op.Toks = kept
		op.AddTok(pegasus.T(tk))
	}
	return true
}
