package dataflow

import (
	"fmt"
	"sort"
	"strings"

	"spatial/internal/pegasus"
)

// Profile aggregates per-node firing counts across a simulation — the
// spatial analogue of an instruction-frequency profile: it shows which
// operators in the circuit are hot and how busy each was relative to the
// total cycle count.
type Profile struct {
	// Fires maps node (per function) to the number of times it fired.
	fires map[*pegasus.Node]int64
	// ByKind accumulates firings per node kind name.
	ByKind map[string]int64
	cycles int64
	// prog is the profiled program, set when the run ends; Hot names each
	// node's function from it.
	prog *pegasus.Program
}

// NewProfile returns an empty profile to pass as Hooks.Profile.
func NewProfile() *Profile {
	return &Profile{fires: map[*pegasus.Node]int64{}, ByKind: map[string]int64{}}
}

func (p *Profile) record(n *pegasus.Node) {
	if p == nil {
		return
	}
	p.fires[n]++
	p.ByKind[n.Kind.String()]++
}

// Fires returns the firing count of a node.
func (p *Profile) Fires(n *pegasus.Node) int64 { return p.fires[n] }

// HotNode is one entry of the hot-node report.
type HotNode struct {
	Node *pegasus.Node
	// Func names the function Node belongs to.
	Func  string
	Count int64
	// Utilization is the fraction of cycles the operator fired.
	Utilization float64
}

// Hot returns the top-k most-fired nodes. Equal counts are ordered by
// function name, then node ID, so the order is the same on every call.
func (p *Profile) Hot(k int) []HotNode {
	fn := p.funcNames()
	var out []HotNode
	for n, c := range p.fires {
		u := 0.0
		if p.cycles > 0 {
			u = float64(c) / float64(p.cycles)
		}
		out = append(out, HotNode{Node: n, Func: fn[n], Count: c, Utilization: u})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Func != out[j].Func {
			return out[i].Func < out[j].Func
		}
		return out[i].Node.ID < out[j].Node.ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// funcNames maps every fired node of the profiled program to the name of
// its function. It walks the program when a report asks, not when the
// run ends: inlined into Shared.run, the walk made the sim-interp-realmem
// benchmark's set-up about 25% slower, although none of its runs profile.
func (p *Profile) funcNames() map[*pegasus.Node]string {
	if p.prog == nil {
		return nil
	}
	fn := make(map[*pegasus.Node]string, len(p.fires))
	for name, g := range p.prog.Funcs {
		for _, n := range g.Nodes {
			if _, ok := p.fires[n]; ok {
				fn[n] = name
			}
		}
	}
	return fn
}

// Format renders the profile.
func (p *Profile) Format(topK int) string {
	var sb strings.Builder
	sb.WriteString("firing counts by kind:\n")
	var kinds []string
	for k := range p.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&sb, "  %-10s %10d\n", k, p.ByKind[k])
	}
	fmt.Fprintf(&sb, "hottest %d operators:\n", topK)
	for _, h := range p.Hot(topK) {
		fmt.Fprintf(&sb, "  %-24s fired %8d (%.1f%% of cycles)\n",
			h.Func+"."+h.Node.String(), h.Count, 100*h.Utilization)
	}
	return sb.String()
}
