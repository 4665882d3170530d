package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"spatial/internal/opt"
	"spatial/internal/progen"
	"spatial/internal/workloads"
)

// graphDigest pins every optimized graph the compiler produces for the
// 22 suite programs and progen seeds 1–40 at all four levels. CSE keeps
// whichever duplicate Topo visits first and the passes number new nodes
// in the order they create them, so any change to an analysis's
// traversal order shows up here as a different dump.
const graphDigest = "81fe18a26d030443100d1534994a818abbd34c2cb2824e63ddacdaf827392e16"

func TestOptimizedGraphsIdentical(t *testing.T) {
	type program struct{ name, src string }
	var progs []program
	for _, w := range workloads.All() {
		progs = append(progs, program{w.Name, w.Source})
	}
	for seed := int64(1); seed <= 40; seed++ {
		progs = append(progs, program{fmt.Sprintf("progen-%d", seed), progen.Generate(progen.DefaultConfig(seed))})
	}
	h := sha256.New()
	for _, p := range progs {
		for _, l := range []opt.Level{opt.None, opt.Basic, opt.Medium, opt.Full} {
			cp, err := CompileSource(p.src, WithLevel(l))
			if err != nil {
				t.Fatalf("%s at %v: %v", p.name, l, err)
			}
			var names []string
			for name := range cp.Program.Funcs {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				d, err := cp.Dump(name)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s %v %s\n%s", p.name, l, name, d)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != graphDigest {
		t.Errorf("optimized graph digest = %s, want %s", got, graphDigest)
	}
}
