package dataflow

import (
	"fmt"
	"strings"

	"spatial/internal/pegasus"
)

// This file diagnoses stuck simulations. When the event queue drains
// with the entry activation incomplete (deadlock) or the cycle budget
// trips (livelock), the machine walks every live activation and
// classifies each unfired node by what it is waiting for, producing a
// wait-for graph: node → the peers that must act before it can fire. The
// strongly-connected components of that graph are the actual deadlock
// cycles — a token loop, a starved mux, a backpressure ring — and the
// StuckReport names them instead of the old bare "no events left".

// WaitKind classifies what a blocked node is waiting for.
type WaitKind uint8

// Wait kinds.
const (
	// WaitData: a value or predicate input has not arrived.
	WaitData WaitKind = iota
	// WaitToken: a token input has not arrived (memory-dependence wait).
	WaitToken
	// WaitCredit: a token generator's credit counter is exhausted; it
	// waits for the trailing loop to return a token.
	WaitCredit
	// WaitBackpressure: an output edge buffer is full; the node waits
	// for the consumer at the far end to drain it.
	WaitBackpressure
)

var waitNames = [...]string{
	WaitData: "data-wait", WaitToken: "token-wait",
	WaitCredit: "credit-wait", WaitBackpressure: "backpressure",
}

// String names the wait kind.
func (w WaitKind) String() string { return waitNames[w] }

// WaitEdge is one edge of the wait-for graph: the blocked node cannot
// proceed until Peer (in activation PeerAct) acts — by producing the
// missing input (WaitData/WaitToken/WaitCredit) or by consuming from the
// full edge (WaitBackpressure).
type WaitEdge struct {
	Kind WaitKind
	// Port and Idx identify the input slot being waited on (input
	// waits), or the consumer's input slot at the far end of the full
	// edge (backpressure).
	Port pegasus.Port
	Idx  int
	Peer *pegasus.Node
	// PeerAct is the peer's activation ID.
	PeerAct int
}

// BlockedNode is one stuck node with its wait-for out-edges.
type BlockedNode struct {
	Graph string
	// Act is the activation ID (several activations of one graph may be
	// live at once).
	Act  int
	Node *pegasus.Node
	// Arrived counts dynamic inputs already latched — a partially-fed
	// node is more telling than an idle one.
	Arrived int
	Waits   []WaitEdge
}

func (b BlockedNode) key() actNodeKey { return actNodeKey{b.Act, b.Node.ID} }

type actNodeKey struct {
	act  int
	node int
}

// StuckReport is the structured diagnosis of a stuck simulation.
type StuckReport struct {
	// Kind is "deadlock" (event queue drained) or "livelock" (cycle
	// budget exceeded).
	Kind string
	// Cycle is the simulation time at which the run was declared stuck.
	Cycle int64
	// Blocked lists every node that could not fire, with its wait-for
	// edges. Partially-fed nodes sort first.
	Blocked []BlockedNode
	// SCC is the largest strongly-connected component of the wait-for
	// graph with more than one node: the cycle of mutual waits that
	// wedged the machine. Empty when the graph is acyclic (pure
	// starvation: something upstream simply never produced).
	SCC []BlockedNode
}

// Render formats the report; the first line is a one-line summary.
func (r *StuckReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dataflow: %s at cycle %d: %d blocked node(s)", r.Kind, r.Cycle, len(r.Blocked))
	if len(r.SCC) > 0 {
		fmt.Fprintf(&b, ", wait cycle of %d", len(r.SCC))
	}
	b.WriteByte('\n')
	if len(r.SCC) > 0 {
		b.WriteString("  wait cycle (SCC):\n")
		renderNodes(&b, r.SCC, len(r.SCC))
	}
	inSCC := map[actNodeKey]bool{}
	for _, n := range r.SCC {
		inSCC[n.key()] = true
	}
	var rest []BlockedNode
	for _, n := range r.Blocked {
		if !inSCC[n.key()] {
			rest = append(rest, n)
		}
	}
	if len(rest) > 0 {
		if len(r.SCC) > 0 {
			b.WriteString("  other blocked nodes:\n")
		}
		renderNodes(&b, rest, 16)
	}
	return strings.TrimRight(b.String(), "\n")
}

func renderNodes(b *strings.Builder, ns []BlockedNode, limit int) {
	for i, n := range ns {
		if i >= limit {
			fmt.Fprintf(b, "    … and %d more\n", len(ns)-limit)
			return
		}
		fmt.Fprintf(b, "    %s\n", n.describe())
	}
}

func (b BlockedNode) describe() string {
	var s strings.Builder
	fmt.Fprintf(&s, "%s/act%d %s", b.Graph, b.Act, b.Node)
	if len(b.Waits) == 0 {
		s.WriteString(" blocked")
	} else {
		w := b.Waits[0]
		switch w.Kind {
		case WaitBackpressure:
			fmt.Fprintf(&s, " blocked by full edge to %s [%s]", w.Peer, w.Kind)
		case WaitCredit:
			fmt.Fprintf(&s, " out of credit, waiting on token from %s [%s]", w.Peer, w.Kind)
		default:
			fmt.Fprintf(&s, " waiting on %s[%d] from %s [%s]", portName(w.Port), w.Idx, w.Peer, w.Kind)
		}
		if len(b.Waits) > 1 {
			fmt.Fprintf(&s, " (+%d more waits)", len(b.Waits)-1)
		}
	}
	if b.Arrived > 0 {
		fmt.Fprintf(&s, " (%d input(s) latched)", b.Arrived)
	}
	return s.String()
}

func portName(p pegasus.Port) string {
	switch p {
	case pegasus.PortIn:
		return "in"
	case pegasus.PortPred:
		return "pred"
	default:
		return "tok"
	}
}

// ContainsNode reports whether the given node (by graph and ID) appears
// in the report's blocked set — handy for tests and fault triage.
func (r *StuckReport) ContainsNode(graph string, nodeID int) bool {
	for _, b := range r.Blocked {
		if b.Graph == graph && b.Node.ID == nodeID {
			return true
		}
	}
	return false
}

// stuckReport builds the diagnosis from the machine's current state.
func (m *machine) stuckReport(kind string) *StuckReport {
	var blocked []BlockedNode
	for _, a := range m.acts {
		if a.done {
			continue
		}
		for _, n := range a.gi.g.Nodes {
			if n.Dead || a.gi.static[n.ID] || n.Kind == pegasus.KEntryTok {
				continue
			}
			b, isBlocked := m.classifyBlocked(a, n)
			if !isBlocked {
				continue
			}
			blocked = append(blocked, b)
		}
	}
	return NewStuckReport(kind, m.now, blocked)
}

// NewStuckReport assembles a StuckReport from an already-classified
// blocked set: it orders the nodes (partially-fed first) and extracts
// the largest wait cycle. Alternative engines (internal/codegen) build
// their BlockedNode lists natively and share the ordering and SCC logic
// through this constructor, so both backends render identical reports.
func NewStuckReport(kind string, cycle int64, blocked []BlockedNode) *StuckReport {
	r := &StuckReport{Kind: kind, Cycle: cycle, Blocked: blocked}
	sortBlocked(r.Blocked, map[actNodeKey]int{})
	r.SCC = waitSCC(r.Blocked)
	return r
}

func sortBlocked(bs []BlockedNode, index map[actNodeKey]int) {
	// Insertion sort by (fed-first, act, node ID) — blocked sets are
	// small and this keeps the report deterministic.
	less := func(x, y BlockedNode) bool {
		xf, yf := x.Arrived > 0, y.Arrived > 0
		if xf != yf {
			return xf
		}
		if x.Act != y.Act {
			return x.Act < y.Act
		}
		return x.Node.ID < y.Node.ID
	}
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && less(bs[j], bs[j-1]); j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
	for i, b := range bs {
		index[b.key()] = i
	}
}

// classifyBlocked mirrors the firing rules of dispatch: it reports
// whether (a, n) is blocked and, if so, on what.
func (m *machine) classifyBlocked(a *activation, n *pegasus.Node) (BlockedNode, bool) {
	b := BlockedNode{Graph: a.gi.g.Name, Act: a.id, Node: n}
	ns := &a.st.nodes[n.ID]
	if a.gi.dynIns[n.ID] == 0 {
		// Fire-once node: blocked only if it never managed to fire,
		// which can only be backpressure.
		if ns.firedOnce {
			return b, false
		}
		b.Waits = m.backpressureEdges(a, n)
		return b, len(b.Waits) > 0
	}
	var missing []WaitEdge
	n.EachInput(func(r *pegasus.Ref, cls pegasus.Port, idx int) {
		if !r.Valid() || a.gi.static[r.N.ID] {
			return
		}
		if m.has(a, n, port{cls, idx}) {
			b.Arrived++
			return
		}
		k := WaitData
		if cls == pegasus.PortTok {
			k = WaitToken
		}
		missing = append(missing, WaitEdge{Kind: k, Port: cls, Idx: idx, Peer: r.N, PeerAct: a.id})
	})
	switch n.Kind {
	case pegasus.KMerge:
		// A merge fires on ANY arrived input; it is input-starved only
		// when none arrived, and otherwise blocked by backpressure.
		if b.Arrived == 0 {
			b.Waits = missing
			return b, len(b.Waits) > 0
		}
		b.Waits = m.backpressureEdges(a, n)
		return b, len(b.Waits) > 0
	case pegasus.KTokenGen:
		// Token inputs are absorbed eagerly, so only the predicate path
		// can block: pred missing, credit exhausted, or output full.
		if !m.inputReady(a, n, pegasus.PortPred, 0, n.Preds[0]) {
			for _, w := range missing {
				if w.Port == pegasus.PortPred {
					b.Waits = append(b.Waits, w)
				}
			}
			return b, len(b.Waits) > 0
		}
		var predVal int64
		if a.gi.static[n.Preds[0].N.ID] {
			predVal = m.staticValue(a, n.Preds[0])
		} else {
			predVal = m.peek(a, n, port{pegasus.PortPred, 0})
		}
		if predVal == 0 {
			return b, false // would fire (counter reset); not blocked
		}
		if ns.counter <= 0 {
			b.Waits = []WaitEdge{{Kind: WaitCredit, Port: pegasus.PortTok, Idx: 0, Peer: n.Toks[0].N, PeerAct: a.id}}
			return b, true
		}
		b.Waits = m.backpressureEdges(a, n)
		return b, len(b.Waits) > 0
	default:
		if len(missing) > 0 {
			b.Waits = missing
			return b, true
		}
		// Every input present yet unfired: output edges must be full.
		b.Waits = m.backpressureEdges(a, n)
		return b, len(b.Waits) > 0
	}
}

// backpressureEdges lists wait edges to the consumers of (a, n)'s full
// output edges.
func (m *machine) backpressureEdges(a *activation, n *pegasus.Node) []WaitEdge {
	var out []WaitEdge
	occVal := a.st.occVal[a.gi.valEdgeOff[n.ID]:]
	for i, c := range a.gi.valConsumers[n.ID] {
		if occVal[i] > 0 {
			out = append(out, WaitEdge{Kind: WaitBackpressure, Port: c.p.cls, Idx: c.p.idx, Peer: c.node, PeerAct: a.id})
		}
	}
	occTok := a.st.occTok[a.gi.tokEdgeOff[n.ID]:]
	for i, c := range a.gi.tokConsumers[n.ID] {
		if occTok[i] > 0 {
			out = append(out, WaitEdge{Kind: WaitBackpressure, Port: c.p.cls, Idx: c.p.idx, Peer: c.node, PeerAct: a.id})
		}
	}
	return out
}

// waitSCC returns the largest strongly-connected component (size > 1) of
// the wait-for graph over the blocked set, using Tarjan's algorithm.
func waitSCC(blocked []BlockedNode) []BlockedNode {
	index := map[actNodeKey]int{}
	for i, b := range blocked {
		index[b.key()] = i
	}
	adj := make([][]int, len(blocked))
	for i, b := range blocked {
		for _, w := range b.Waits {
			if j, ok := index[actNodeKey{w.PeerAct, w.Peer.ID}]; ok {
				adj[i] = append(adj[i], j)
			}
		}
	}
	n := len(blocked)
	const unvisited = -1
	idx := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range idx {
		idx[i] = unvisited
	}
	var stack []int
	var best []int
	counter := 0
	// Iterative Tarjan to survive adversarially deep wait chains.
	type frame struct {
		v, ei int
	}
	for root := 0; root < n; root++ {
		if idx[root] != unvisited {
			continue
		}
		frames := []frame{{root, 0}}
		idx[root], low[root] = counter, counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(adj[f.v]) {
				w := adj[f.v][f.ei]
				f.ei++
				if idx[w] == unvisited {
					idx[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && idx[w] < low[f.v] {
					low[f.v] = idx[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == idx[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				if len(comp) == 1 {
					// A single node is a cycle only via a self-edge.
					self := false
					for _, w := range adj[comp[0]] {
						self = self || w == comp[0]
					}
					if !self {
						comp = nil
					}
				}
				if len(comp) > len(best) {
					best = comp
				}
			}
		}
	}
	if len(best) == 0 {
		return nil
	}
	// Restore deterministic order (ascending blocked index).
	for i := 1; i < len(best); i++ {
		for j := i; j > 0 && best[j] < best[j-1]; j-- {
			best[j], best[j-1] = best[j-1], best[j]
		}
	}
	out := make([]BlockedNode, len(best))
	for i, bi := range best {
		out[i] = blocked[bi]
	}
	return out
}
