package codegen

// Stuck-state diagnosis for the compiled backend. The classification
// mirrors the interpreter's (dataflow/stuck.go) rule for rule, reading
// the VM's flat state instead of the interpreter's; the ordering and
// wait-cycle extraction are shared through dataflow.NewStuckReport, so
// a deadlock diagnosed by either backend renders identically.

import (
	"spatial/internal/dataflow"
	"spatial/internal/pegasus"
)

func (m *vm) stuckReport(kind string) *dataflow.StuckReport {
	var blocked []dataflow.BlockedNode
	layouts := map[*gprog]ruleLayout{}
	for _, a := range m.acts {
		if a.done {
			continue
		}
		l, ok := layouts[a.gp]
		if !ok {
			l = a.gp.layout()
			layouts[a.gp] = l
		}
		// Rules are in graph node order, the interpreter's scan order.
		for ri, n := range l.nodes {
			if n.Kind == pegasus.KEntryTok {
				continue
			}
			b, isBlocked := m.classifyBlocked(a, l, int32(ri))
			if !isBlocked {
				continue
			}
			blocked = append(blocked, b)
		}
	}
	return dataflow.NewStuckReport(kind, m.now, blocked)
}

// classifyBlocked mirrors dataflow.(*machine).classifyBlocked against
// the VM's state.
func (m *vm) classifyBlocked(a *vact, l ruleLayout, ri int32) (dataflow.BlockedNode, bool) {
	gp := a.gp
	n := l.nodes[ri]
	b := dataflow.BlockedNode{Graph: gp.name, Act: a.id, Node: n}
	r := &gp.rules[ri]
	ns := &a.st.nodes[ri]
	if gp.nodeInit[ri].missing == 0 {
		// Fire-once node: blocked only if it never managed to fire
		// (firing closes its gate for good), which can only be
		// backpressure.
		if ns.gate == gateNever {
			return b, false
		}
		b.Waits = m.backpressureEdges(a, l, r)
		return b, len(b.Waits) > 0
	}
	var missing []dataflow.WaitEdge
	p := l.firstPort[ri]
	n.EachInput(func(ref *pegasus.Ref, cls pegasus.Port, idx int) {
		port := p
		p++
		if gp.ports[port].prod < 0 {
			return // an activation-static input
		}
		if a.st.ports[port].held {
			b.Arrived++
			return
		}
		k := dataflow.WaitData
		if cls == pegasus.PortTok {
			k = dataflow.WaitToken
		}
		missing = append(missing, dataflow.WaitEdge{Kind: k, Port: cls, Idx: idx, Peer: ref.N, PeerAct: a.id})
	})
	switch n.Kind {
	case pegasus.KMerge:
		// A merge fires on ANY arrived input; it is input-starved only
		// when none arrived, and otherwise blocked by backpressure.
		if b.Arrived == 0 {
			b.Waits = missing
			return b, len(b.Waits) > 0
		}
		b.Waits = m.backpressureEdges(a, l, r)
		return b, len(b.Waits) > 0
	case pegasus.KTokenGen:
		// Token inputs are absorbed eagerly, so only the predicate path
		// can block: pred missing, credit exhausted, or output full.
		if r.predArg.mode == argPort && !a.st.ports[r.predArg.idx].held {
			for _, w := range missing {
				if w.Port == pegasus.PortPred {
					b.Waits = append(b.Waits, w)
				}
			}
			return b, len(b.Waits) > 0
		}
		var predVal int64
		switch r.predArg.mode {
		case argImm:
			predVal = r.predArg.imm
		case argSlot:
			predVal = a.st.slots[r.predArg.idx]
		default:
			predVal = a.st.ports[r.predArg.idx].v
		}
		if predVal == 0 {
			return b, false // would fire (counter reset); not blocked
		}
		if ns.counter <= 0 {
			b.Waits = []dataflow.WaitEdge{{Kind: dataflow.WaitCredit, Port: pegasus.PortTok, Idx: 0, Peer: n.Toks[0].N, PeerAct: a.id}}
			return b, true
		}
		b.Waits = m.backpressureEdges(a, l, r)
		return b, len(b.Waits) > 0
	default:
		if len(missing) > 0 {
			b.Waits = missing
			return b, true
		}
		// Every input present yet unfired: output edges must be full.
		b.Waits = m.backpressureEdges(a, l, r)
		return b, len(b.Waits) > 0
	}
}

// backpressureEdges lists wait edges to the consumers of the rule's full
// output edges, in the interpreter's order (value edges, then token).
func (m *vm) backpressureEdges(a *vact, l ruleLayout, r *rule) []dataflow.WaitEdge {
	var out []dataflow.WaitEdge
	gp := a.gp
	for _, tok := range [2]bool{false, true} {
		cons, base := gp.consumers(r, tok)
		for i, d := range cons {
			if a.st.occ[base+int32(i)] > 0 {
				peer := l.nodes[d.rule]
				cls, idx := portClass(peer, int(d.port-l.firstPort[d.rule]))
				out = append(out, dataflow.WaitEdge{Kind: dataflow.WaitBackpressure, Port: cls, Idx: idx, Peer: peer, PeerAct: a.id})
			}
		}
	}
	return out
}
