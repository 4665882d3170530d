// Package hw estimates hardware cost for Pegasus graphs. Spatial
// computation synthesizes every operation into its own circuit operator
// (the ASPLOS'04 ASH evaluation reports per-program area and resource
// counts); this package provides the analogous static estimates: operator
// counts by functional class, an area score in gate-equivalent units,
// wire (edge) counts, and the combinational depth of each hyperblock's
// wave.
package hw

import (
	"fmt"
	"sort"
	"strings"

	"spatial/internal/cminor"
	"spatial/internal/pegasus"
)

// Area units per operator, in rough gate equivalents for 32-bit
// datapaths. The absolute scale is arbitrary; ratios follow standard
// synthesis folklore (a multiplier ≈ 20 adders, a divider ≈ 80, muxes
// and token logic are cheap).
const (
	areaAdder   = 100
	areaLogic   = 40
	areaShift   = 90
	areaCompare = 60
	areaMul     = 2000
	areaDiv     = 8000
	areaMux2    = 30 // per 2:1 mux slice; n-way decoded mux scales by n-1
	areaMerge   = 35
	areaEta     = 20
	areaReg     = 60 // pipeline register on an edge
	areaToken   = 8  // token latch / combine input
	areaMemPort = 400
	areaTokGen  = 120
	areaConv    = 15
	areaCall    = 200
)

// Report is the cost estimate of one function's circuit.
type Report struct {
	Name string
	// Ops counts operators by class name.
	Ops map[string]int
	// Area is the gate-equivalent estimate.
	Area int64
	// Edges counts point-to-point connections (wires with handshake
	// registers).
	Edges int
	// MemPorts is the number of memory operations (each needs LSQ
	// access circuitry).
	MemPorts int
	// Depth maps hyperblock ID to its combinational (unit-latency)
	// depth: the longest forward path through one wave.
	Depth map[int]int
	// MaxDepth is the deepest hyperblock's depth.
	MaxDepth int
}

// Estimate computes the report for one graph.
func Estimate(g *pegasus.Graph) *Report {
	r := &Report{Name: g.Name, Ops: map[string]int{}, Depth: map[int]int{}}
	for _, n := range g.Nodes {
		if n.Dead {
			continue
		}
		class, area := classify(n)
		r.Ops[class]++
		r.Area += area
		n.EachInput(func(ref *pegasus.Ref, p pegasus.Port, i int) {
			if ref.Valid() {
				r.Edges++
				r.Area += areaReg / 2 // handshake register amortized per edge
			}
		})
		if n.IsMemOp() {
			r.MemPorts++
		}
	}
	r.computeDepth(g)
	return r
}

func classify(n *pegasus.Node) (string, int64) {
	switch n.Kind {
	case pegasus.KConst, pegasus.KParam, pegasus.KAddrOf:
		return "const/wire", 0
	case pegasus.KBinOp:
		switch n.BinOp {
		case cminor.OpAdd, cminor.OpSub:
			return "add/sub", areaAdder
		case cminor.OpMul:
			return "mul", areaMul
		case cminor.OpDiv, cminor.OpRem:
			return "div", areaDiv
		case cminor.OpShl, cminor.OpShr:
			return "shift", areaShift
		case cminor.OpAnd, cminor.OpOr, cminor.OpXor:
			return "logic", areaLogic
		default:
			return "compare", areaCompare
		}
	case pegasus.KUnOp:
		return "logic", areaLogic
	case pegasus.KConv:
		return "conv", areaConv
	case pegasus.KMux:
		n32 := int64(len(n.Ins))
		if n32 < 2 {
			n32 = 2
		}
		return "mux", areaMux2 * (n32 - 1) * 16
	case pegasus.KMerge:
		if n.TokenOnly {
			return "token", areaToken * int64(len(n.Toks)+1)
		}
		return "merge", areaMerge * 16
	case pegasus.KEta:
		if n.TokenOnly {
			return "token", areaToken * 2
		}
		return "eta", areaEta * 16
	case pegasus.KCombine:
		return "token", areaToken * int64(len(n.Toks))
	case pegasus.KTokenGen:
		return "token", areaTokGen
	case pegasus.KLoad:
		return "load", areaMemPort
	case pegasus.KStore:
		return "store", areaMemPort
	case pegasus.KCall:
		return "call", areaCall
	case pegasus.KReturn, pegasus.KEntryTok:
		return "control", areaToken
	}
	return "other", 0
}

// computeDepth finds each hyperblock's longest forward path (in nodes,
// excluding zero-area wire nodes) through one execution wave.
func (r *Report) computeDepth(g *pegasus.Graph) {
	depth := map[*pegasus.Node]int{}
	for _, n := range g.Topo() {
		if n.Dead {
			continue
		}
		d := 0
		n.EachInput(func(ref *pegasus.Ref, p pegasus.Port, i int) {
			if !ref.Valid() || g.IsBackEdge(ref.N, n) {
				return
			}
			// Only intra-hyperblock edges contribute to a wave's depth.
			if ref.N.Hyper != n.Hyper {
				return
			}
			if depth[ref.N] > d {
				d = depth[ref.N]
			}
		})
		cost := 1
		switch n.Kind {
		case pegasus.KConst, pegasus.KParam, pegasus.KAddrOf:
			cost = 0
		}
		depth[n] = d + cost
		if h := int(n.Hyper); depth[n] > r.Depth[h] {
			r.Depth[h] = depth[n]
		}
		if depth[n] > r.MaxDepth {
			r.MaxDepth = depth[n]
		}
	}
}

// EstimateProgram sums reports over every function.
func EstimateProgram(p *pegasus.Program) []*Report {
	var names []string
	for name := range p.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []*Report
	for _, name := range names {
		out = append(out, Estimate(p.Funcs[name]))
	}
	return out
}

// Format renders reports as a table.
func Format(reports []*Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %10s %7s %8s %8s  %s\n",
		"function", "area(GE)", "edges", "memports", "depth", "operators")
	var totalArea int64
	for _, r := range reports {
		var classes []string
		for c := range r.Ops {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		var ops []string
		for _, c := range classes {
			if c == "const/wire" {
				continue
			}
			ops = append(ops, fmt.Sprintf("%s:%d", c, r.Ops[c]))
		}
		fmt.Fprintf(&sb, "%-16s %10d %7d %8d %8d  %s\n",
			r.Name, r.Area, r.Edges, r.MemPorts, r.MaxDepth, strings.Join(ops, " "))
		totalArea += r.Area
	}
	fmt.Fprintf(&sb, "%-16s %10d\n", "total", totalArea)
	return sb.String()
}
