package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
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
const graphDigest = "b13ddbd2386d1577aabc80058418e438a2176e7ebd569f7b3ee03f4227016d5f"

// tokenPassDigest pins the optimized graphs of the repeated-access
// program (repeatedAccess, ROADMAP item 3) at 25 and 100 repetitions and
// all four levels. Its token edges are the ones tokenRemoval cuts and
// forwards (Figure 5), so a change to the order in which that pass visits
// consumers or creates combines shows here.
const tokenPassDigest = "c658b3472b3f1d677d6e38bf4ef3db9e23eb7b1053c8cf5d7162cc77e32d5be5"

type program struct{ name, src string }

// repeatedAccess returns a program repeating `s = s + a[x]; a[x+1] = s;`
// n times: every load and store pair is provably distinct, so the token
// pass removes every edge between them.
func repeatedAccess(n int) string {
	var sb strings.Builder
	sb.WriteString("int a[256];\nint bench(int x) {\nint s = 0;\n")
	for i := 0; i < n; i++ {
		sb.WriteString("s = s + a[x]; a[x+1] = s;\n")
	}
	sb.WriteString("return s;\n}\n")
	return sb.String()
}

// digestGraphs compiles each program at all four levels and hashes the
// dumps of all its optimized graphs.
func digestGraphs(t *testing.T, progs []program) string {
	t.Helper()
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
	return hex.EncodeToString(h.Sum(nil))
}

func TestOptimizedGraphsIdentical(t *testing.T) {
	var progs []program
	for _, w := range workloads.All() {
		progs = append(progs, program{w.Name, w.Source})
	}
	for seed := int64(1); seed <= 40; seed++ {
		progs = append(progs, program{fmt.Sprintf("progen-%d", seed), progen.Generate(progen.DefaultConfig(seed))})
	}
	if got := digestGraphs(t, progs); got != graphDigest {
		t.Errorf("optimized graph digest = %s, want %s", got, graphDigest)
	}
}

func TestTokenPassGraphsIdentical(t *testing.T) {
	progs := []program{{"repeat-25", repeatedAccess(25)}, {"repeat-100", repeatedAccess(100)}}
	if got := digestGraphs(t, progs); got != tokenPassDigest {
		t.Errorf("token-pass graph digest = %s, want %s", got, tokenPassDigest)
	}
}
