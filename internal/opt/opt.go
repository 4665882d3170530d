// Package opt implements CASH's optimization passes over Pegasus graphs
// (paper Sections 4–6): scalar cleanups (constant folding, CSE, dead
// code), token-network optimizations (dead memory operations, token-edge
// removal by address disambiguation, transitive reduction), redundant
// memory-access removal (load/store merging, store-before-store,
// load-after-store, loop-invariant load motion), and the loop pipelining
// transformations (read-only loops, monotone addresses, loop decoupling
// with token generators).
package opt

import (
	"fmt"

	"spatial/internal/pegasus"
)

// Level names a preset optimization bundle, mirroring the paper's
// experimental configurations.
type Level int

// Optimization levels.
const (
	// None performs no optimization at all (the coarse initial graph).
	None Level = iota
	// Basic runs scalar optimizations only.
	Basic
	// Medium adds the memory-parallelism set the paper found most
	// profitable: token-edge removal via address disambiguation,
	// transitive reduction, and induction-variable loop pipelining
	// (Sections 4.3 and 6.2).
	Medium
	// Full adds redundant memory-operation removal, loop-invariant load
	// motion, read-only loop splitting, and loop decoupling
	// (Sections 4.1, 5, 6.1, 6.3).
	Full
)

// levelNames maps every spelling ParseLevel accepts to its level.
var levelNames = map[string]Level{"none": None, "O0": None, "basic": Basic,
	"medium": Medium, "O1": Medium, "full": Full, "O2": Full}

// ParseLevel inverts String, and also accepts the conventional spellings
// O0 (None), O1 (Medium) and O2 (Full, the paper's memory-optimized
// configuration).
func ParseLevel(s string) (Level, error) {
	if l, ok := levelNames[s]; ok {
		return l, nil
	}
	return 0, fmt.Errorf("unknown optimization level %q", s)
}

// String names the level.
func (l Level) String() string {
	switch l {
	case None:
		return "none"
	case Basic:
		return "basic"
	case Medium:
		return "medium"
	case Full:
		return "full"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Options toggles individual passes (for ablation studies).
type Options struct {
	ConstFold bool
	CSE       bool
	DCE       bool

	DeadMemOps          bool // Section 4.1
	TokenRemoval        bool // Section 4.3
	TransitiveReduction bool // Section 3.4

	MemMerge         bool // Section 5.1
	StoreBeforeStore bool // Section 5.2
	LoadAfterStore   bool // Section 5.3
	LICM             bool // Section 5.4

	ReadOnlyLoops bool // Section 6.1
	MonotoneLoops bool // Section 6.2
	LoopDecouple  bool // Section 6.3
}

// LevelOptions returns the preset for a level.
func LevelOptions(l Level) Options {
	var o Options
	if l >= Basic {
		o.ConstFold = true
		o.CSE = true
		o.DCE = true
	}
	if l >= Medium {
		o.DeadMemOps = true
		o.TokenRemoval = true
		o.TransitiveReduction = true
		o.MonotoneLoops = true
	}
	if l >= Full {
		o.MemMerge = true
		o.StoreBeforeStore = true
		o.LoadAfterStore = true
		o.LICM = true
		o.ReadOnlyLoops = true
		o.LoopDecouple = true
	}
	return o
}

// Optimize runs the selected passes on every function of the program to a
// fixpoint (bounded), verifying graph integrity after each iteration.
func Optimize(p *pegasus.Program, o Options) error {
	for name, g := range p.Funcs {
		if err := optimizeGraph(p, g, o); err != nil {
			return fmt.Errorf("optimizing %s: %w", name, err)
		}
	}
	return nil
}

// OptimizeAt is a convenience wrapper using a level preset.
func OptimizeAt(p *pegasus.Program, l Level) error { return Optimize(p, LevelOptions(l)) }

type pass struct {
	name    string
	enabled bool
	run     func(*ctx) (bool, error)
}

// ctx carries shared state across passes for one graph, with working
// memory the passes reuse from round to round. optimizeGraph owns it and
// drops it when the graph is done, so none of it stays reachable from the
// optimized graph.
type ctx struct {
	prog *pegasus.Program
	g    *pegasus.Graph

	scratch pegasus.Scratch          // Verify, Topo and UseCounts
	cse     map[cseKey]*pegasus.Node // commonSubexpr's table
	hypers  [][]*pegasus.Node        // listHypers' per-hyperblock lists
	tok     tokenScratch             // tokenRemoval's per-pass state
	live    []bool                   // deadCode's marks,
	stack   []*pegasus.Node          // and its work list
}

// zeroed returns buf with length n and every element zero, reusing its
// array when it is large enough. A new array leaves room for the graph to
// grow by a quarter.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/4)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// listHypers lists the live nodes of every hyperblock, each in node
// order, in one scan of the graph, reusing the lists' memory. The lists
// stay valid until the next call; a pass lists once and keeps track of
// the nodes it adds.
func (c *ctx) listHypers() [][]*pegasus.Node {
	g := c.g
	for len(c.hypers) < len(g.Hypers) {
		c.hypers = append(c.hypers, nil)
	}
	lists := c.hypers[:len(g.Hypers)]
	for h := range lists {
		lists[h] = lists[h][:0]
	}
	for _, n := range g.Nodes {
		if !n.Dead {
			lists[n.Hyper] = append(lists[n.Hyper], n)
		}
	}
	return lists
}

// runPass runs one pass of the iterative rounds. A round that reports
// no change ends the rewriting, so a pass must report every change it
// makes; TestNoChangeMeansNoChange wraps runPass to check that.
var runPass = func(c *ctx, ps pass) (bool, error) { return ps.run(c) }

func optimizeGraph(p *pegasus.Program, g *pegasus.Graph, o Options) error {
	c := &ctx{prog: p, g: g}
	// Pipelining transforms run once after the iterative rewriting
	// converges: they restructure token circuits and do not expose
	// further rewrites of the same kind.
	iterative := []pass{
		{"constfold", o.ConstFold, constFold},
		{"cse", o.CSE, commonSubexpr},
		{"deadmem", o.DeadMemOps, deadMemOps},
		{"tokenremove", o.TokenRemoval, tokenRemoval},
		{"transred", o.TransitiveReduction, transitiveReduction},
		{"memmerge", o.MemMerge, memMerge},
		{"storebeforestore", o.StoreBeforeStore, storeBeforeStore},
		{"loadafterstore", o.LoadAfterStore, loadAfterStore},
		{"licm", o.LICM, loopInvariantMotion},
		{"dce", o.DCE, deadCode},
	}
	restructuring := []pass{
		{"readonly", o.ReadOnlyLoops, readOnlyLoops},
		{"decouple", o.LoopDecouple, loopDecouple},
		{"monotone", o.MonotoneLoops, monotoneLoops},
		{"dce", o.DCE, deadCode},
	}
	const maxRounds = 20
	// Two macro-cycles: the loop-restructuring passes expose new
	// opportunities for the rewriting passes (e.g. a read-only class's
	// token circuit becomes identity-circulating, enabling invariant load
	// motion), and vice versa.
	for cycle := 0; cycle < 2; cycle++ {
		for round := 0; round < maxRounds; round++ {
			changed := false
			for _, ps := range iterative {
				if !ps.enabled {
					continue
				}
				ch, err := runPass(c, ps)
				if err != nil {
					return fmt.Errorf("pass %s: %w", ps.name, err)
				}
				if ch {
					changed = true
				}
			}
			if err := c.scratch.Verify(g); err != nil {
				return fmt.Errorf("after optimization round %d: %w", round, err)
			}
			if !changed {
				break
			}
		}
		for _, ps := range restructuring {
			if !ps.enabled {
				continue
			}
			if _, err := ps.run(c); err != nil {
				return fmt.Errorf("pass %s: %w", ps.name, err)
			}
			if err := c.scratch.Verify(g); err != nil {
				return fmt.Errorf("after pass %s: %w", ps.name, err)
			}
		}
	}
	g.Compact()
	return nil
}
