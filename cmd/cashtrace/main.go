// Command cashtrace compiles a program once per optimization level, runs
// both builds on the traced dataflow simulator, and diffs their dynamic
// critical paths and token-wait stalls — making a speedup explain
// itself: which token edges left the path, which node kinds absorb the
// remaining cycles, and which memory operations stopped waiting for a
// token.
//
// Usage:
//
//	cashtrace [-a O0] [-b O2] [-entry name] [-mem perfect|real1|real2|real4]
//	          [-topk n] [-dump prefix] [file.c [args...]]
//
// Levels accept both preset names (none, basic, medium, full) and the
// conventional spellings O0 (= none), O1 (= medium), and O2 (= full, the
// paper's memory-optimized configuration). Without a source file it runs
// a built-in Section 2-flavored memory kernel. With -dump PREFIX it
// writes PREFIX-<level>.json Chrome traces loadable in about://tracing
// or Perfetto.
//
// Edges are one-place channels, so the loop-control spine is throttled
// by backpressure from the slowest consumer and memory serialization
// rarely appears as a last-arriving input on the critical path. The
// token-wait stall section shows it instead: fire attempts blocked on a
// memory token, per node.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"

	"spatial/internal/core"
	"spatial/internal/memsys"
	"spatial/internal/opt"
	"spatial/internal/pegasus"
	"spatial/internal/trace"
)

// memoptDemo exercises the paper's Section 2 pattern in a loop: every
// iteration stores a temporary into a[i], reloads it, and rewrites it,
// so the unoptimized token network serializes three memory operations
// per element that the memory optimizations collapse.
const memoptDemo = `
unsigned a[128];
unsigned w[128];

int bench(void) {
  int i;
  int s = 0;
  for (i = 0; i < 128; i++) { a[i] = i * 7 + 1; w[i] = i & 15; }
  for (i = 0; i < 126; i++) {
    a[i] += w[i];
    a[i] <<= a[i + 1] & 7;
    s += a[i];
  }
  return s & 0x7fffffff;
}`

func main() {
	levelA := flag.String("a", "O0", "baseline optimization level")
	levelB := flag.String("b", "O2", "comparison optimization level")
	entry := flag.String("entry", "bench", "entry function")
	mem := flag.String("mem", "real2", "memory system: perfect, real1, real2, real4")
	topK := flag.Int("topk", 8, "entries per report section")
	dump := flag.String("dump", "", "write Chrome trace JSON to PREFIX-<level>.json")
	flag.Parse()

	lvA, err := opt.ParseLevel(*levelA)
	if err != nil {
		fatal(err)
	}
	lvB, err := opt.ParseLevel(*levelB)
	if err != nil {
		fatal(err)
	}
	mcfg, err := memsys.Named(*mem)
	if err != nil {
		fatal(err)
	}
	src := memoptDemo
	var args []int64
	if flag.NArg() > 0 {
		raw, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		src = string(raw)
		for _, a := range flag.Args()[1:] {
			v, err := strconv.ParseInt(a, 0, 64)
			if err != nil {
				fatal(fmt.Errorf("bad argument %q: %v", a, err))
			}
			args = append(args, v)
		}
	}

	runA := runLevel(src, *entry, args, lvA, *levelA, mcfg, *topK, *dump)
	runB := runLevel(src, *entry, args, lvB, *levelB, mcfg, *topK, *dump)
	if runA.res.Value != runB.res.Value {
		fatal(fmt.Errorf("MISMATCH: %s returns %d at %s but %d at %s",
			*entry, runA.res.Value, *levelA, runB.res.Value, *levelB))
	}
	diff(runA, runB, *topK)
}

type levelRun struct {
	label string
	res   *core.SimResult
	cp    *trace.CritPath
	tr    *trace.Trace
	// waits holds each node's token-wait stalls, keyed "graph: node".
	waits map[string]int64
}

func runLevel(src, entry string, args []int64, lv opt.Level, label string, mcfg memsys.Config, topK int, dump string) levelRun {
	cp, err := core.CompileSource(src, core.WithLevel(lv), core.WithMemory(mcfg))
	if err != nil {
		fatal(err)
	}
	res, tr, err := cp.RunTracedWith(entry, args, cp.Sim, cp.Trace)
	if err != nil {
		fatal(fmt.Errorf("%s: %v", label, err))
	}
	crit := tr.CriticalPath()
	if crit == nil {
		fatal(fmt.Errorf("%s: no critical path (trace truncated?)", label))
	}
	fmt.Printf("== %s (opt %s) ==\n", label, lv)
	fmt.Printf("result %d in %d cycles, %d ops fired\n", res.Value, res.Stats.Cycles, res.Stats.OpsFired)
	fmt.Print(crit.Format(topK))
	fmt.Println()
	if dump != "" {
		path := fmt.Sprintf("%s-%s.json", dump, label)
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := tr.WriteChrome(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n\n", path)
	}
	return levelRun{label: label, res: res, cp: crit, tr: tr, waits: tokenWaits(cp.Program, tr)}
}

// tokenWaits keys each node's token-wait stall count by graph and node,
// the way the critical-path diff keys token edges.
func tokenWaits(p *pegasus.Program, tr *trace.Trace) map[string]int64 {
	graphOf := map[*pegasus.Node]string{}
	for name, g := range p.Funcs {
		for _, n := range g.Nodes {
			graphOf[n] = name
		}
	}
	out := map[string]int64{}
	for n, sc := range tr.StallsByNode {
		if w := sc[trace.StallToken]; w > 0 {
			out[fmt.Sprintf("%s: %s", graphOf[n], n)] += w
		}
	}
	return out
}

func diff(a, b levelRun, topK int) {
	fmt.Printf("== critical-path diff: %s -> %s ==\n", a.label, b.label)
	delta := a.cp.Length - b.cp.Length
	pct := 100 * float64(delta) / float64(a.cp.Length)
	switch {
	case delta > 0:
		fmt.Printf("critical path shortened by %d cycles: %d -> %d (-%.1f%%)\n",
			delta, a.cp.Length, b.cp.Length, pct)
	case delta < 0:
		fmt.Printf("critical path LENGTHENED by %d cycles: %d -> %d\n",
			-delta, a.cp.Length, b.cp.Length)
	default:
		fmt.Printf("critical path unchanged at %d cycles\n", a.cp.Length)
	}
	fmt.Printf("token-edge cycles on the path: %d -> %d (delta %+d)\n",
		a.cp.TokenCycles, b.cp.TokenCycles, b.cp.TokenCycles-a.cp.TokenCycles)

	// Token edges of the baseline path that the optimized path no longer
	// crosses: the dependences the rewrites removed or overlapped.
	after := map[string]int64{}
	for _, ec := range b.cp.TokenEdges {
		after[edgeKey(ec)] += ec.Cycles
	}
	fmt.Printf("baseline token edges (top %d) and their fate at %s:\n", topK, b.label)
	for i, ec := range a.cp.TokenEdges {
		if i >= topK {
			break
		}
		now, ok := after[edgeKey(ec)]
		switch {
		case !ok:
			fmt.Printf("  %-40s %8d cycles  -> off the critical path\n", edgeKey(ec), ec.Cycles)
		case now < ec.Cycles:
			fmt.Printf("  %-40s %8d cycles  -> %d cycles\n", edgeKey(ec), ec.Cycles, now)
		default:
			fmt.Printf("  %-40s %8d cycles  -> unchanged\n", edgeKey(ec), ec.Cycles)
		}
	}
	if len(a.cp.TokenEdges) == 0 {
		fmt.Println("  (baseline path crosses no token edges)")
	}
	kinds := map[string]bool{}
	for k := range a.cp.ByKind {
		kinds[k] = true
	}
	for k := range b.cp.ByKind {
		kinds[k] = true
	}
	fmt.Println("cycles by node kind:")
	for _, k := range sortedKeys(kinds) {
		fmt.Printf("  %-10s %10d -> %10d (%+d)\n", k, a.cp.ByKind[k], b.cp.ByKind[k],
			b.cp.ByKind[k]-a.cp.ByKind[k])
	}

	// Fire attempts blocked on a memory token: the serialization the
	// memory optimizations remove, whether or not it is on the path.
	wa, wb := a.tr.TokenWaits(), b.tr.TokenWaits()
	fmt.Printf("token-wait stalls: %d -> %d (delta %+d)\n", wa, wb, wb-wa)
	fmt.Printf("baseline token-waiting nodes (top %d) and their count at %s:\n", topK, b.label)
	hot := sortedKeys(a.waits)
	sort.SliceStable(hot, func(i, j int) bool { return a.waits[hot[i]] > a.waits[hot[j]] })
	for i, k := range hot {
		if i >= topK {
			break
		}
		fmt.Printf("  %-40s %8d -> %d\n", k, a.waits[k], b.waits[k])
	}
	if len(hot) == 0 {
		fmt.Println("  (no baseline node waited on a token)")
	}
}

func edgeKey(ec trace.EdgeCycles) string {
	return fmt.Sprintf("%s: %s -> %s", ec.Edge.Graph, ec.Edge.From, ec.Edge.To)
}

func sortedKeys[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cashtrace:", err)
	os.Exit(1)
}
