package pegasus

import "fmt"

// Port classifies which input slice of a node an edge lands in.
type Port uint8

// Port classes.
const (
	PortIn Port = iota
	PortPred
	PortTok
)

// UseCount counts the uses of one node's value and token outputs.
type UseCount struct {
	Val, Tok int32
}

// EachInput invokes f over every input reference of n. The pointer allows
// in-place rewiring.
func (n *Node) EachInput(f func(r *Ref, port Port, idx int)) {
	for i := range n.Ins {
		f(&n.Ins[i], PortIn, i)
	}
	for i := range n.Preds {
		f(&n.Preds[i], PortPred, i)
	}
	for i := range n.Toks {
		f(&n.Toks[i], PortTok, i)
	}
}

// Scratch is working memory the whole-graph analyses (Verify, Topo,
// UseCounts) reuse from call to call. A pass driver keeps one per graph
// and drops it when the graph is done, so none of it stays reachable from
// the graph; Graph.Verify and Graph.Topo use a fresh one. A Scratch
// serves one goroutine, and a result it returns is valid until its next
// call. The zero value is ready to use.
type Scratch struct {
	state  []uint8
	order  []*Node
	counts []UseCount
}

// UseCounts counts the uses of every node's outputs by live nodes,
// indexed by producer ID (length MaxID).
func (s *Scratch) UseCounts(g *Graph) []UseCount {
	s.counts = resize(s.counts, g.nextID)
	counts := s.counts
	for _, n := range g.Nodes {
		if n.Dead {
			continue
		}
		n.EachInput(func(r *Ref, port Port, idx int) {
			if !r.Valid() {
				return
			}
			if r.Out == OutToken {
				counts[r.N.ID].Tok++
			} else {
				counts[r.N.ID].Val++
			}
		})
	}
	return counts
}

// resize returns buf with length n and every element zero, reusing its
// array when it is large enough. A new array leaves room for the graph to
// grow by a quarter.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/4)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// ReplaceUses rewires every use of output (old, out) to point at newRef.
func (g *Graph) ReplaceUses(old *Node, out Out, newRef Ref) {
	for _, n := range g.Nodes {
		if n.Dead {
			continue
		}
		n.EachInput(func(r *Ref, port Port, idx int) {
			if r.N == old && r.Out == out {
				*r = newRef
			}
		})
	}
}

// RemoveTokInput deletes token input idx from n.
func (n *Node) RemoveTokInput(idx int) {
	n.Toks = append(n.Toks[:idx], n.Toks[idx+1:]...)
}

// AddTok appends a token input, skipping duplicates and invalid refs.
func (n *Node) AddTok(r Ref) {
	if !r.Valid() {
		return
	}
	for _, t := range n.Toks {
		if t == r {
			return
		}
	}
	n.Toks = append(n.Toks, r)
}

// IsBackEdge reports whether the edge from producer p into consumer c is a
// loop back edge: an edge into a merge node of a loop hyperblock from a
// hyperblock at the same or a later position. Hyperblock IDs are assigned
// in reverse postorder of their seeds, so forward inter-hyperblock edges
// always increase the ID; only back edges (from the loop body itself or
// from a later hyperblock inside the same loop) go backward or sideways.
func (g *Graph) IsBackEdge(p, c *Node) bool {
	return c.Kind == KMerge && g.Hypers[c.Hyper].IsLoop && p.Hyper >= c.Hyper
}

// eachForward calls f on the live producer of every forward input edge of
// n, in input order (values, predicates, tokens), and stops as soon as f
// returns false; it reports whether f always returned true. Back edges
// into loop merges are skipped, and so is a token generator's credit
// input (its token port): the credit returned by the leading loop is
// consumed by a *later* iteration of the trailing loop, through the
// generator's internal counter — it is a cross-iteration edge, not a
// combinational path (paper Section 6.3). A producer feeding n through
// several edges is passed once per edge; the walks below skip repeats by
// their visit state, which keeps their order that of the first edge.
func (g *Graph) eachForward(n *Node, f func(p *Node) bool) bool {
	toks := n.Toks
	if n.Kind == KTokenGen {
		toks = nil
	}
	for _, rs := range [...][]Ref{n.Ins, n.Preds, toks} {
		for _, r := range rs {
			if !r.Valid() || r.N.Dead || g.IsBackEdge(r.N, n) {
				continue
			}
			if !f(r.N) {
				return false
			}
		}
	}
	return true
}

// Visit states of a depth-first walk, indexed by Node.ID; the zero
// state is unvisited.
const (
	onPath uint8 = iota + 1
	finished
)

// walk visits the live nodes depth first along forward edges, in node
// order, appending each to s.order in postorder when order is set. If the
// walk meets a node already on its path, it stops and returns that node
// as cycle (the order is then partial).
func (s *Scratch) walk(g *Graph, order bool) (cycle *Node) {
	s.state = resize(s.state, g.nextID)
	s.order = s.order[:0]
	if order && cap(s.order) < len(g.Nodes) {
		s.order = make([]*Node, 0, len(g.Nodes))
	}
	var visit func(n *Node) bool
	visit = func(n *Node) bool {
		switch s.state[n.ID] {
		case onPath:
			cycle = n
			return false
		case finished:
			return true
		}
		s.state[n.ID] = onPath
		if !g.eachForward(n, visit) {
			return false
		}
		s.state[n.ID] = finished
		if order {
			s.order = append(s.order, n)
		}
		return true
	}
	for _, n := range g.Nodes {
		if !n.Dead && !visit(n) {
			return cycle
		}
	}
	return nil
}

// Topo returns all live nodes in a topological order of the forward edges
// (back edges into loop merges are ignored). It panics on an unexpected
// cycle; Verify reports cycles with diagnostics first.
func (g *Graph) Topo() []*Node { return new(Scratch).Topo(g) }

// Topo is Graph.Topo into s's memory.
func (s *Scratch) Topo(g *Graph) []*Node {
	if cycle := s.walk(g, true); cycle != nil {
		panic(fmt.Sprintf("pegasus: cycle through %s in %s", cycle, g.Name))
	}
	return s.order
}

// Reachability answers "can a value/token flow from a to b along forward
// edges?" It is the cycle test the paper's rewriting rules need
// (Section 5: "testing for the cycle-free condition is easily accomplished
// with a reachability computation which ignores the back-edges"). The
// result is cached for a batch of queries and must be invalidated (by
// building a new Reachability) after the graph changes.
type Reachability struct {
	g *Graph
	// reachedBy[to.ID] is the set of node IDs that reach to, one bit
	// per ID; nil until to is first queried.
	reachedBy [][]uint64
}

// NewReachability creates a fresh reachability cache for g.
func NewReachability(g *Graph) *Reachability {
	return &Reachability{g: g}
}

// Reaches reports whether from can reach to along forward dataflow edges
// (to's inputs are searched transitively for from).
func (r *Reachability) Reaches(from, to *Node) bool {
	if from == to {
		return true
	}
	if to.ID >= len(r.reachedBy) {
		r.reachedBy = append(r.reachedBy, make([][]uint64, r.g.nextID-len(r.reachedBy))...)
	}
	set := r.reachedBy[to.ID]
	if set == nil {
		set = make([]uint64, (r.g.nextID+63)/64)
		var mark func(p *Node) bool
		mark = func(p *Node) bool {
			if w, b := p.ID/64, uint64(1)<<(p.ID%64); set[w]&b == 0 {
				set[w] |= b
				r.g.eachForward(p, mark)
			}
			return true
		}
		r.g.eachForward(to, mark)
		r.reachedBy[to.ID] = set
	}
	return from.ID < len(set)*64 && set[from.ID/64]&(uint64(1)<<(from.ID%64)) != 0
}

// NodesInHyper returns the live nodes of hyperblock h.
func (g *Graph) NodesInHyper(h int) []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if !n.Dead && n.Hyper == h {
			out = append(out, n)
		}
	}
	return out
}
