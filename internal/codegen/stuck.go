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
	for _, a := range m.acts {
		if a.done {
			continue
		}
		for _, n := range a.gp.g.Nodes {
			if n.Dead || a.gp.static[n.ID] || n.Kind == pegasus.KEntryTok {
				continue
			}
			b, isBlocked := m.classifyBlocked(a, n)
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
func (m *vm) classifyBlocked(a *vact, n *pegasus.Node) (dataflow.BlockedNode, bool) {
	gp := a.gp
	b := dataflow.BlockedNode{Graph: gp.name, Act: a.id, Node: n}
	ri := gp.ruleOf[n.ID]
	r := &gp.rules[ri]
	ns := &a.st.nodes[ri]
	if gp.dynIns[n.ID] == 0 {
		// Fire-once node: blocked only if it never managed to fire
		// (firing closes its gate for good), which can only be
		// backpressure.
		if ns.gate == gateNever {
			return b, false
		}
		b.Waits = m.backpressureEdges(a, r)
		return b, len(b.Waits) > 0
	}
	var missing []dataflow.WaitEdge
	n.EachInput(func(ref *pegasus.Ref, cls pegasus.Port, idx int) {
		if !ref.Valid() || gp.static[ref.N.ID] {
			return
		}
		if a.st.ports[gp.portIndex(n, cls, idx)].held {
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
		b.Waits = m.backpressureEdges(a, r)
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
		b.Waits = m.backpressureEdges(a, r)
		return b, len(b.Waits) > 0
	default:
		if len(missing) > 0 {
			b.Waits = missing
			return b, true
		}
		// Every input present yet unfired: output edges must be full.
		b.Waits = m.backpressureEdges(a, r)
		return b, len(b.Waits) > 0
	}
}

// backpressureEdges lists wait edges to the consumers of the rule's full
// output edges, in the interpreter's order (value edges, then token).
func (m *vm) backpressureEdges(a *vact, r *rule) []dataflow.WaitEdge {
	var out []dataflow.WaitEdge
	gp := a.gp
	for _, tok := range [2]bool{false, true} {
		cons, base := gp.consumers(r, tok)
		for i, d := range cons {
			if a.st.occ[base+int32(i)] > 0 {
				peer, cls, idx := gp.portLoc(d.port)
				out = append(out, dataflow.WaitEdge{Kind: dataflow.WaitBackpressure, Port: cls, Idx: idx, Peer: peer, PeerAct: a.id})
			}
		}
	}
	return out
}
