// Package build lowers checked cMinor programs into Pegasus dataflow
// graphs: the CASH front end of the paper (Sections 3–4). For every
// function it consumes the CFG hyperblock partition, converts each
// hyperblock into predicated SSA (path predicates canonicalized through
// the per-hyperblock BDD spaces), places merge/eta pairs on hyperblock
// boundaries and loop back edges, and threads loads, stores, and calls
// with a conservative program-order token network per location class.
// The result satisfies pegasus.Verify and runs unoptimized on both the
// dataflow simulator and the sequential interpreter; the opt passes
// refine it from there.
package build

import (
	"fmt"

	"spatial/internal/alias"
	"spatial/internal/cfg"
	"spatial/internal/cminor"
	"spatial/internal/pegasus"
)

// Compile lowers every defined function of prog into a Pegasus graph and
// assembles the whole-program memory layout and alias analysis.
func Compile(prog *cminor.Program) (*pegasus.Program, error) {
	an, err := alias.Analyze(prog)
	if err != nil {
		return nil, err
	}
	layout, err := pegasus.BuildLayout(prog, an)
	if err != nil {
		return nil, err
	}
	p := &pegasus.Program{
		Source: prog,
		Alias:  an,
		Funcs:  make(map[string]*pegasus.Graph, len(prog.Funcs)),
		Layout: layout,
	}
	for _, fn := range prog.Funcs {
		if fn.Body == nil {
			continue
		}
		g, err := buildFunc(an, fn)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", fn.Name, err)
		}
		if err := g.Verify(); err != nil {
			return nil, fmt.Errorf("build %s: %w", fn.Name, err)
		}
		p.Funcs[fn.Name] = g
	}
	return p, nil
}

func buildFunc(an *alias.Analysis, fn *cminor.FuncDecl) (*pegasus.Graph, error) {
	cg, err := cfg.Build(fn)
	if err != nil {
		return nil, err
	}
	b := &fnBuilder{
		an:     an,
		fn:     fn,
		cg:     cg,
		g:      pegasus.NewGraph(fn),
		params: map[*cminor.VarDecl]*pegasus.Node{},
		consts: map[constKey]*pegasus.Node{},
		addrs:  map[alias.ObjID]*pegasus.Node{},
		bools:  map[boolKey]*pegasus.Node{},
	}
	b.build()
	return b.g, nil
}
