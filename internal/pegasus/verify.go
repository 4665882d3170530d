package pegasus

import "fmt"

// Verify checks the structural invariants of a graph. It is run after
// construction and after every optimization pass in tests; a failure
// indicates a compiler bug, not a user error.
//
// Invariants:
//   - every input Ref points at a live node and at an output the producer
//     actually has (value refs need HasValue, token refs need HasToken);
//   - predicate inputs are 1-bit values;
//   - mux nodes pair each data input with a predicate input;
//   - memory operations carry a predicate, an address, and a size;
//   - the graph is acyclic when loop back edges (into merges of loop
//     hyperblocks) are ignored;
//   - hyperblock indices are in range.
func (g *Graph) Verify() error { return new(Scratch).Verify(g) }

// Verify is Graph.Verify with s's memory for the acyclicity walk.
func (s *Scratch) Verify(g *Graph) error {
	for _, n := range g.Nodes {
		if n.Dead {
			continue
		}
		if n.Hyper < 0 || n.Hyper >= len(g.Hypers) {
			return fmt.Errorf("%s: %s has bad hyperblock %d", g.Name, n, n.Hyper)
		}
		var err error
		n.EachInput(func(r *Ref, port Port, idx int) {
			if err != nil {
				return
			}
			if !r.Valid() {
				err = fmt.Errorf("%s: %s has missing input (port %d, idx %d)", g.Name, n, port, idx)
				return
			}
			if r.N.Dead {
				err = fmt.Errorf("%s: %s uses dead node %s", g.Name, n, r.N)
				return
			}
			switch port {
			case PortIn:
				if r.Out != OutValue || !r.N.HasValue() {
					err = fmt.Errorf("%s: %s value input %d references %s, which has no value output", g.Name, n, idx, r.N)
				}
			case PortPred:
				if r.Out != OutValue || !r.N.HasValue() {
					err = fmt.Errorf("%s: %s predicate input %d references non-value %s", g.Name, n, idx, r.N)
				} else if r.N.VT.Bits != 1 {
					err = fmt.Errorf("%s: %s predicate input %d references %d-bit %s", g.Name, n, idx, r.N.VT.Bits, r.N)
				}
			case PortTok:
				if r.Out != OutToken || !r.N.HasToken() {
					err = fmt.Errorf("%s: %s token input %d references %s, which has no token output", g.Name, n, idx, r.N)
				}
			}
		})
		if err != nil {
			return err
		}
		if err := g.verifyShape(n); err != nil {
			return err
		}
	}
	if cycle := s.walk(g, false); cycle != nil {
		return fmt.Errorf("%s: forward-edge cycle through %s", g.Name, cycle)
	}
	return nil
}

func (g *Graph) verifyShape(n *Node) error {
	bad := func(format string, args ...interface{}) error {
		return fmt.Errorf("%s: %s: %s", g.Name, n, fmt.Sprintf(format, args...))
	}
	switch n.Kind {
	case KConst, KParam, KAddrOf, KEntryTok:
		if len(n.Ins)+len(n.Preds)+len(n.Toks) != 0 {
			return bad("source node must have no inputs")
		}
	case KBinOp:
		if len(n.Ins) != 2 {
			return bad("binop needs 2 inputs, has %d", len(n.Ins))
		}
	case KUnOp, KConv:
		if len(n.Ins) != 1 {
			return bad("unary op needs 1 input, has %d", len(n.Ins))
		}
	case KMux:
		if len(n.Ins) == 0 || len(n.Ins) != len(n.Preds) {
			return bad("mux has %d inputs and %d predicates", len(n.Ins), len(n.Preds))
		}
	case KMerge:
		if n.TokenOnly {
			if len(n.Toks) == 0 || len(n.Ins) != 0 {
				return bad("token merge must have only token inputs")
			}
		} else if len(n.Ins) == 0 || len(n.Toks) != 0 {
			return bad("value merge must have only value inputs")
		}
	case KEta:
		if len(n.Preds) != 1 {
			return bad("eta needs exactly 1 predicate")
		}
		if n.TokenOnly {
			if len(n.Toks) != 1 || len(n.Ins) != 0 {
				return bad("token eta needs exactly 1 token input")
			}
		} else if len(n.Ins) != 1 || len(n.Toks) != 0 {
			return bad("value eta needs exactly 1 value input")
		}
	case KLoad:
		if len(n.Ins) != 1 || len(n.Preds) != 1 {
			return bad("load needs 1 address and 1 predicate")
		}
		if n.Bytes != 1 && n.Bytes != 2 && n.Bytes != 4 {
			return bad("load has bad size %d", n.Bytes)
		}
	case KStore:
		if len(n.Ins) != 2 || len(n.Preds) != 1 {
			return bad("store needs address+value and 1 predicate")
		}
		if n.Bytes != 1 && n.Bytes != 2 && n.Bytes != 4 {
			return bad("store has bad size %d", n.Bytes)
		}
	case KCall:
		if n.Callee == nil {
			return bad("call has no callee")
		}
		if len(n.Preds) != 1 {
			return bad("call needs 1 predicate")
		}
	case KReturn:
		if len(n.Ins) > 1 {
			return bad("return has %d values", len(n.Ins))
		}
		if len(n.Toks) != 1 {
			return bad("return needs exactly 1 token input, has %d", len(n.Toks))
		}
	case KCombine:
		if len(n.Toks) < 1 {
			return bad("combine needs token inputs")
		}
	case KTokenGen:
		if len(n.Preds) != 1 || len(n.Toks) != 1 {
			return bad("token generator needs 1 predicate and 1 token input")
		}
		if n.TokN <= 0 {
			return bad("token generator has non-positive count %d", n.TokN)
		}
	}
	return nil
}
