package pegasus

// Role is how the simulation engines treat a node (see Classify).
type Role uint8

// Node roles, in order: a role at or above RoleOnce is dynamic. The zero
// role is RoleDead, so an ID that no live node holds reads as dead.
const (
	// RoleDead: a removed node, never simulated.
	RoleDead Role = iota
	// RoleStatic: fixed for a whole activation. Constants, parameters,
	// object addresses, and pure operations (binop, unop, conv, mux) over
	// static inputs. A static node does not handshake: its consumers read
	// it directly, as hardware wires it from the environment.
	RoleStatic
	// RoleOnce: dynamic, with no dynamic input. Such a node has no wave
	// signal, so it fires exactly once per activation (the entry token is
	// one).
	RoleOnce
	// RoleWave: dynamic, with at least one dynamic input.
	RoleWave
)

// Classification is the view of a graph that both simulation engines run
// on (the interpreter in internal/dataflow and the VM's lowerer in
// internal/codegen), so that they agree on what handshakes: every node's
// role, its dynamic-input count, and the flat layout of the dynamic
// nodes' input ports. Ports are numbered in node-ID order, and each
// dynamic node's inputs in EachInput order (values, predicates, tokens).
// Static inputs get ports too, though nothing is ever latched there, so
// a port's index follows from its node and slot alone.
type Classification struct {
	// Role and DynIns are indexed by node ID. DynIns counts the inputs
	// that a dynamic node receives from dynamic producers.
	Role   []Role
	DynIns []int32
	// PortBase[id] is the flat index of dynamic node id's first input
	// port (see PortOffset).
	PortBase []int32
	// NumPorts counts the input ports of all dynamic nodes.
	NumPorts int
}

// Classify computes g's Classification.
func Classify(g *Graph) *Classification {
	c := &Classification{
		Role:     make([]Role, g.nextID),
		DynIns:   make([]int32, g.nextID),
		PortBase: make([]int32, g.nextID),
	}
	// Static closure over pure ops. A rewrite can give a node an input
	// with a higher ID, so iterate to a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if n.Dead || c.Role[n.ID] == RoleStatic {
				continue
			}
			s := false
			switch n.Kind {
			case KConst, KParam, KAddrOf:
				s = true
			case KBinOp, KUnOp, KConv, KMux:
				s = true
				n.EachInput(func(r *Ref, _ Port, _ int) {
					if !r.Valid() || c.Role[r.N.ID] != RoleStatic {
						s = false
					}
				})
			}
			if s {
				c.Role[n.ID] = RoleStatic
				changed = true
			}
		}
	}
	off := int32(0)
	for _, n := range g.Nodes {
		if n.Dead || c.Role[n.ID] == RoleStatic {
			continue
		}
		c.PortBase[n.ID] = off
		off += int32(len(n.Ins) + len(n.Preds) + len(n.Toks))
		dyn := int32(0)
		n.EachInput(func(r *Ref, _ Port, _ int) {
			if r.Valid() && c.Role[r.N.ID] != RoleStatic {
				dyn++
			}
		})
		c.DynIns[n.ID] = dyn
		c.Role[n.ID] = RoleWave
		if dyn == 0 {
			c.Role[n.ID] = RoleOnce
		}
	}
	c.NumPorts = int(off)
	return c
}

// PortOffset is the offset of n's first input slot of class cls among
// all of n's inputs, in EachInput order: a slot's flat port index is its
// node's PortBase plus PortOffset plus the slot's index.
func PortOffset(n *Node, cls Port) int32 {
	switch cls {
	case PortIn:
		return 0
	case PortPred:
		return int32(len(n.Ins))
	default:
		return int32(len(n.Ins) + len(n.Preds))
	}
}

// PortAt inverts PortOffset: it splits an offset among n's inputs into
// the slot's class and its index within the class.
func PortAt(n *Node, off int) (Port, int) {
	switch {
	case off < len(n.Ins):
		return PortIn, off
	case off < len(n.Ins)+len(n.Preds):
		return PortPred, off - len(n.Ins)
	default:
		return PortTok, off - len(n.Ins) - len(n.Preds)
	}
}
