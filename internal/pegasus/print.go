package pegasus

import (
	"fmt"
	"sort"
	"strings"
)

// Dump renders the graph as text, one hyperblock at a time, in a stable
// order. It is the primary debugging aid and is exercised by golden
// tests.
func (g *Graph) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s (%d hyperblocks, %d nodes)\n", g.Name, len(g.Hypers), g.NumLive())
	byHyper := map[int32][]*Node{}
	for _, n := range g.Nodes {
		if !n.Dead {
			byHyper[n.Hyper] = append(byHyper[n.Hyper], n)
		}
	}
	for h := range g.Hypers {
		nodes := byHyper[int32(h)]
		if len(nodes) == 0 {
			continue
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
		tag := ""
		if g.Hypers[h].IsLoop {
			tag = " (loop)"
		}
		fmt.Fprintf(&sb, " hyper %d%s:\n", h, tag)
		for _, n := range nodes {
			fmt.Fprintf(&sb, "  %s\n", g.describe(n))
		}
	}
	return sb.String()
}

func refString(r Ref) string {
	if !r.Valid() {
		return "_"
	}
	if r.Out == OutToken {
		return fmt.Sprintf("n%d.t", r.N.ID)
	}
	return fmt.Sprintf("n%d", r.N.ID)
}

func refs(rs []Ref) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = refString(r)
	}
	return strings.Join(parts, ",")
}

func (g *Graph) describe(n *Node) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n%-3d %-8s", n.ID, n.opName())
	if len(n.Ins) > 0 {
		fmt.Fprintf(&sb, " ins=[%s]", refs(n.Ins))
	}
	if len(n.Preds) > 0 {
		fmt.Fprintf(&sb, " preds=[%s]", refs(n.Preds))
	}
	if len(n.Toks) > 0 {
		fmt.Fprintf(&sb, " toks=[%s]", refs(n.Toks))
	}
	if n.IsMemOp() {
		fmt.Fprintf(&sb, " bytes=%d class=c%d rw=%s", n.Bytes, n.Class, n.RW)
	}
	if n.Kind == KCall {
		fmt.Fprintf(&sb, " callee=%s", n.Callee.Name)
	}
	return sb.String()
}

func (n *Node) opName() string {
	switch n.Kind {
	case KConst:
		return fmt.Sprintf("const(%d)", n.ConstVal)
	case KParam:
		return fmt.Sprintf("param(%d)", n.ParamIdx)
	case KAddrOf:
		return fmt.Sprintf("addrof(o%d)", n.Obj)
	case KBinOp:
		return fmt.Sprintf("'%s'", n.BinOp)
	case KUnOp:
		return n.UnOp.String()
	case KConv:
		sign := "z"
		if n.ConvSign {
			sign = "s"
		}
		return fmt.Sprintf("conv%d%s", n.ToBits, sign)
	case KTokenGen:
		return fmt.Sprintf("tk(%d)", n.TokN)
	case KMerge:
		if n.TokenOnly {
			return "tmerge"
		}
		return "merge"
	case KEta:
		if n.TokenOnly {
			return "teta"
		}
		return "eta"
	default:
		return n.Kind.String()
	}
}

// Dot renders the graph in Graphviz format; predicate edges are dotted and
// token edges dashed, matching the paper's figures.
func (g *Graph) Dot() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=TB;\n", g.Name)
	for h := range g.Hypers {
		nodes := g.NodesInHyper(int32(h))
		if len(nodes) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "  subgraph cluster_%d {\n    label=\"hyper %d\";\n", h, h)
		for _, n := range nodes {
			shape := "box"
			switch n.Kind {
			case KMux:
				shape = "trapezium"
			case KMerge:
				shape = "triangle"
			case KEta:
				shape = "invtriangle"
			case KCombine:
				shape = "invhouse"
			case KTokenGen:
				shape = "doublecircle"
			}
			fmt.Fprintf(&sb, "    n%d [label=%q shape=%s];\n", n.ID, n.opName(), shape)
		}
		fmt.Fprintf(&sb, "  }\n")
	}
	for _, n := range g.Nodes {
		if n.Dead {
			continue
		}
		for _, r := range n.Ins {
			if r.Valid() {
				fmt.Fprintf(&sb, "  n%d -> n%d;\n", r.N.ID, n.ID)
			}
		}
		for _, r := range n.Preds {
			if r.Valid() {
				fmt.Fprintf(&sb, "  n%d -> n%d [style=dotted];\n", r.N.ID, n.ID)
			}
		}
		for _, r := range n.Toks {
			if r.Valid() {
				fmt.Fprintf(&sb, "  n%d -> n%d [style=dashed];\n", r.N.ID, n.ID)
			}
		}
	}
	fmt.Fprintf(&sb, "}\n")
	return sb.String()
}
