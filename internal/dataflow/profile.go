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
	Node  *pegasus.Node
	Count int64
	// Utilization is the fraction of cycles the operator fired.
	Utilization float64
}

// Hot returns the top-k most-fired nodes.
func (p *Profile) Hot(k int) []HotNode {
	var out []HotNode
	for n, c := range p.fires {
		u := 0.0
		if p.cycles > 0 {
			u = float64(c) / float64(p.cycles)
		}
		out = append(out, HotNode{Node: n, Count: c, Utilization: u})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Node.ID < out[j].Node.ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
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
			h.Node.String(), h.Count, 100*h.Utilization)
	}
	return sb.String()
}
