package opt

import (
	"testing"

	"spatial/internal/build"
	"spatial/internal/cminor"
	"spatial/internal/dataflow"
	"spatial/internal/interp"
	"spatial/internal/memsys"
	"spatial/internal/pegasus"
)

func compileAt(t *testing.T, src string, level Level) *pegasus.Program {
	t.Helper()
	prog, err := cminor.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := cminor.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	p, err := build.Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := OptimizeAt(p, level); err != nil {
		t.Fatalf("optimize(%v): %v", level, err)
	}
	return p
}

func countMem(g *pegasus.Graph) (loads, stores int) { return g.CountMemOps() }

// checkAllLevels compiles at every level, simulates, and compares the
// result against the interpreter oracle.
func checkAllLevels(t *testing.T, src, entry string, argSets ...[]int64) {
	t.Helper()
	if len(argSets) == 0 {
		argSets = [][]int64{nil}
	}
	for _, level := range []Level{None, Basic, Medium, Full} {
		p := compileAt(t, src, level)
		for _, args := range argSets {
			res, err := dataflow.Run(p, entry, args, dataflow.DefaultConfig())
			if err != nil {
				t.Fatalf("level %v: dataflow %s(%v): %v\n%s", level, entry, args, err, p.Graph(entry).Dump())
			}
			it := interp.New(p, memsys.PerfectConfig())
			want, err := it.Run(entry, args)
			if err != nil {
				t.Fatalf("interp: %v", err)
			}
			if res.Value != want.Value {
				t.Errorf("level %v: %s(%v) = %d, want %d\n%s", level, entry, args, res.Value, want.Value, p.Graph(entry).Dump())
			}
		}
	}
}

const section2Src = `
void f(unsigned *p, unsigned a[], int i) {
  if (p) a[i] += *p;
  else a[i] = 1;
  a[i] <<= a[i+1];
}`

func TestSection2RemovesRedundantAccesses(t *testing.T) {
	// Unoptimized: 4 loads (a[i]×2, *p, a[i+1]), 3 stores (a[i]×3).
	p0 := compileAt(t, section2Src, None)
	l0, s0 := countMem(p0.Graph("f"))
	if l0 != 4 || s0 != 3 {
		t.Fatalf("unoptimized: loads=%d stores=%d, want 4/3", l0, s0)
	}
	// Full optimization (the paper's Figure 1D): "two stores and one
	// load" are removed — the a[i] reload is forwarded through a mux and
	// the two intermediate stores die, leaving 3 loads (a[i], *p,
	// a[i+1]) and the final store.
	p := compileAt(t, section2Src, Full)
	l, s := countMem(p.Graph("f"))
	if l != 3 {
		t.Errorf("optimized loads = %d, want 3\n%s", l, p.Graph("f").Dump())
	}
	if s != 1 {
		t.Errorf("optimized stores = %d, want 1\n%s", s, p.Graph("f").Dump())
	}
}

func TestSection2EndToEnd(t *testing.T) {
	src := `
unsigned val = 5;
unsigned a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
void f(unsigned *p, unsigned *a2, int i) {
  if (p) a2[i] += *p;
  else a2[i] = 1;
  a2[i] <<= a2[i+1];
}
unsigned run(int usep) {
  if (usep) f(&val, a, 2);
  else f((unsigned*)0, a, 2);
  return a[2];
}`
	checkAllLevels(t, src, "run", []int64{1}, []int64{0})
}

func TestTokenRemovalDistinctOffsets(t *testing.T) {
	// a[i] and a[i+1] provably differ: the token edge between the final
	// store and the a[i+1] load must be gone at Medium.
	src := `
extern int a[];
int f(int i) {
  a[i] = 1;
  return a[i+1];
}`
	p := compileAt(t, src, Medium)
	g := p.Graph("f")
	var load, store *pegasus.Node
	for _, n := range g.Nodes {
		if n.Dead {
			continue
		}
		if n.Kind == pegasus.KLoad {
			load = n
		}
		if n.Kind == pegasus.KStore {
			store = n
		}
	}
	if load == nil || store == nil {
		t.Fatalf("missing ops\n%s", g.Dump())
	}
	for _, tok := range load.Toks {
		if tok.N == store {
			t.Errorf("token edge store→load not removed for distinct addresses\n%s", g.Dump())
		}
	}
}

func TestTokenKeptForSameAddress(t *testing.T) {
	src := `
extern int a[];
int f(int i, int j) {
  a[i] = 1;
  return a[j];
}`
	p := compileAt(t, src, Medium)
	g := p.Graph("f")
	loads, stores := 0, 0
	var load *pegasus.Node
	for _, n := range g.Nodes {
		if n.Dead {
			continue
		}
		if n.Kind == pegasus.KLoad {
			loads++
			load = n
		}
		if n.Kind == pegasus.KStore {
			stores++
		}
	}
	if loads != 1 || stores != 1 {
		t.Fatalf("loads=%d stores=%d", loads, stores)
	}
	found := false
	for _, tok := range load.Toks {
		if tok.N.Kind == pegasus.KStore {
			found = true
		}
	}
	if !found {
		t.Errorf("may-alias token edge removed\n%s", g.Dump())
	}
}

func TestLoadAfterStoreForwarding(t *testing.T) {
	src := `
int g;
int f(int x) {
  g = x * 2;
  return g;
}`
	p := compileAt(t, src, Full)
	gr := p.Graph("f")
	loads, _ := countMem(gr)
	if loads != 0 {
		t.Errorf("load after store not forwarded: %d loads remain\n%s", loads, gr.Dump())
	}
	checkAllLevels(t, src, "f", []int64{21})
}

func TestStoreBeforeStoreRemoval(t *testing.T) {
	src := `
int g;
void f(int x) {
  g = x;
  g = x + 1;
}`
	p := compileAt(t, src, Full)
	gr := p.Graph("f")
	_, stores := countMem(gr)
	if stores != 1 {
		t.Errorf("dead store not removed: %d stores\n%s", stores, gr.Dump())
	}
}

// cancelledPred builds by hand a predicate node computing f ∧ ¬q that
// also reads dep: (f ∧ (c ∨ ¬c)) ∧ ¬q with c the comparison dep != dep.
// Its function is f ∧ ¬q, so once it is registered the predicate algebra
// returns it whenever that function is asked for, as PredOr and
// PredAndNot can return any existing node with the wanted function.
func cancelledPred(g *pegasus.Graph, f, q, dep *pegasus.Node) *pegasus.Node {
	g.PredBDD(f)
	g.PredBDD(q)
	node := func(op cminor.BinOpKind, a, b *pegasus.Node) *pegasus.Node {
		n := g.NewNode(pegasus.KBinOp, f.Hyper)
		n.BinOp = op
		n.VT = pegasus.Pred
		n.Ins = []pegasus.Ref{pegasus.V(a), pegasus.V(b)}
		return n
	}
	c := node(cminor.OpNe, dep, dep)
	x := node(cminor.OpAnd, node(cminor.OpAnd, f, node(cminor.OpOr, c, g.PredNot(c))), g.PredNot(q))
	g.PredBDD(x)
	return x
}

// memOps compiles src with transitive reduction alone, which leaves
// each memory op waiting only on the nearest accesses before it, and
// returns f's graph with its loads and stores in node order. Accesses
// to *a share one address node, as the §5 rewrites require.
func memOps(t *testing.T, src string) (g *pegasus.Graph, loads, stores []*pegasus.Node) {
	t.Helper()
	p := compileAt(t, src, None)
	if err := Optimize(p, Options{TransitiveReduction: true}); err != nil {
		t.Fatal(err)
	}
	g = p.Graph("f")
	for _, n := range g.Nodes {
		switch n.Kind {
		case pegasus.KLoad:
			loads = append(loads, n)
		case pegasus.KStore:
			stores = append(stores, n)
		}
	}
	return g, loads, stores
}

// TestStoreBeforeStoreRefusesCycle: the predicate p1 ∧ ¬p2 that
// storeBeforeStore would give the first store already exists as a node
// reading a load that waits on the second store, which waits on the
// first (and nothing else does). Installing it would close a cycle; the
// pass must leave the first store's predicate alone and the graph
// acyclic.
func TestStoreBeforeStoreRefusesCycle(t *testing.T) {
	g, loads, stores := memOps(t, `
int a[4];
int f(int c, int d) {
  if (c) *a = 1;
  if (d) *a = 2;
  return a[2];
}`)
	if len(loads) != 1 || len(stores) != 2 {
		t.Fatalf("want 1 load and 2 stores, got %d and %d\n%s", len(loads), len(stores), g.Dump())
	}
	s1, s2 := stores[0], stores[1]
	p1 := s1.Preds[0].N
	cancelledPred(g, p1, s2.Preds[0].N, loads[0])
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
	if _, err := storeBeforeStore(&ctx{g: g}); err != nil {
		t.Fatal(err)
	}
	if err := g.Verify(); err != nil {
		t.Fatalf("storeBeforeStore closed a cycle: %v\n%s", err, g.Dump())
	}
	if s1.Preds[0].N != p1 {
		t.Errorf("first store's predicate changed to %s", s1.Preds[0].N)
	}
}

// TestLoadAfterStoreRefusesCycle: the load waits only on the store to
// its address, and the residual predicate lp ∧ ¬ps that loadAfterStore
// would give it already exists as a node reading the load's own value.
// Installing it would close a cycle; the pass must leave the load alone
// and the graph acyclic.
func TestLoadAfterStoreRefusesCycle(t *testing.T) {
	g, loads, stores := memOps(t, `
int a[4];
int f(int c, int d) {
  int x = 0;
  if (c) *a = 1;
  if (d) x = *a;
  return x;
}`)
	if len(loads) != 1 || len(stores) != 1 {
		t.Fatalf("want 1 load and 1 store, got %d and %d\n%s", len(loads), len(stores), g.Dump())
	}
	l := loads[0]
	lp := l.Preds[0].N
	cancelledPred(g, lp, stores[0].Preds[0].N, l)
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
	if _, err := loadAfterStore(&ctx{g: g}); err != nil {
		t.Fatal(err)
	}
	if err := g.Verify(); err != nil {
		t.Fatalf("loadAfterStore closed a cycle: %v\n%s", err, g.Dump())
	}
	if l.Preds[0].N != lp {
		t.Errorf("load's predicate changed to %s", l.Preds[0].N)
	}
}

func TestLoadMergeAcrossBranches(t *testing.T) {
	// Both branches load g: PRE/hoisting merges them into one load.
	src := `
int g;
int f(int c) {
  int r;
  if (c) r = g + 1;
  else r = g - 1;
  return r;
}`
	p := compileAt(t, src, Full)
	gr := p.Graph("f")
	loads, _ := countMem(gr)
	if loads != 1 {
		t.Errorf("branch loads not merged: %d loads\n%s", loads, gr.Dump())
	}
	checkAllLevels(t, src, "f", []int64{0}, []int64{1})
}

func TestStoreMergeAcrossBranches(t *testing.T) {
	// Section 5.1 "applicable to stores as well": both branches store to
	// a[i] with exclusive predicates → one store of a muxed value.
	src := `
int a[16];
void f(int c, int i, int x, int y) {
  if (c) a[i] = x;
  else a[i] = y;
}`
	p := compileAt(t, src, Full)
	gr := p.Graph("f")
	_, stores := countMem(gr)
	if stores != 1 {
		t.Errorf("branch stores not merged: %d stores\n%s", stores, gr.Dump())
	}
	checkAllLevels(t, src+`
int run(int c) { f(c, 3, 100, 200); return a[3]; }`, "run", []int64{1}, []int64{0})
}

func TestDeadPredicateMemOpRemoved(t *testing.T) {
	src := `
int g;
int f(int x) {
  if (0) g = x;
  return x + 1;
}`
	p := compileAt(t, src, Full)
	gr := p.Graph("f")
	_, stores := countMem(gr)
	if stores != 0 {
		t.Errorf("constant-false store survives: %d stores\n%s", stores, gr.Dump())
	}
}

func TestConstFoldAndCSE(t *testing.T) {
	src := `
int f(int x) {
  int a = 2 * 3 + 4;
  int b = x * 8 + x * 8;
  return a + b;
}`
	p := compileAt(t, src, Basic)
	gr := p.Graph("f")
	muls := 0
	for _, n := range gr.Nodes {
		if !n.Dead && n.Kind == pegasus.KBinOp && n.BinOp == cminor.OpMul {
			muls++
		}
	}
	if muls > 1 {
		t.Errorf("CSE left %d multiplies, want <= 1\n%s", muls, gr.Dump())
	}
	checkAllLevels(t, src, "f", []int64{5})
}

func TestLICMHoistsInvariantLoad(t *testing.T) {
	src := `
int scale;
int out[64];
void f(int n) {
  int i;
  for (i = 0; i < n; i++) out[i] = i * scale;
}`
	p := compileAt(t, src, Full)
	gr := p.Graph("f")
	// The scale load must not be inside the loop hyperblock.
	for _, n := range gr.Nodes {
		if n.Dead || n.Kind != pegasus.KLoad {
			continue
		}
		if gr.Hypers[n.Hyper].IsLoop {
			t.Errorf("invariant load still inside the loop\n%s", gr.Dump())
		}
	}
	checkAllLevels(t, src, "f", []int64{8})
}

func TestReadOnlyLoopFreeRuns(t *testing.T) {
	src := `
int tbl[64];
int acc;
void f(int n) {
  int i;
  int s = 0;
  for (i = 0; i < n; i++) s += tbl[i];
  acc = s;
}`
	p := compileAt(t, src, Full)
	gr := p.Graph("f")
	// Find the loop's token circuit for the tbl class: its back eta must
	// take the merge token directly (free-running generator).
	free := false
	for _, n := range gr.Nodes {
		if n.Dead || n.Kind != pegasus.KEta || !n.TokenOnly {
			continue
		}
		if gr.Hypers[n.Hyper].IsLoop && n.Toks[0].N.Kind == pegasus.KMerge && n.Toks[0].N.TokenOnly {
			free = true
		}
	}
	if !free {
		t.Errorf("read-only loop not split into generator/collector\n%s", gr.Dump())
	}
	checkAllLevels(t, src, "f", []int64{16})
}

func TestMonotoneStoreLoopFreeRuns(t *testing.T) {
	src := `
int dst[128];
void f(int n) {
  int i;
  for (i = 0; i < n; i++) dst[i] = i * 3;
}`
	p := compileAt(t, src, Medium)
	gr := p.Graph("f")
	free := false
	for _, n := range gr.Nodes {
		if n.Dead || n.Kind != pegasus.KEta || !n.TokenOnly {
			continue
		}
		if gr.Hypers[n.Hyper].IsLoop && n.Toks[0].N.Kind == pegasus.KMerge && n.Toks[0].N.TokenOnly {
			free = true
		}
	}
	if !free {
		t.Errorf("monotone store loop not pipelined\n%s", gr.Dump())
	}
	checkAllLevels(t, src, "f", []int64{32})
}

func TestLoopDecouplingInsertsTokenGenerator(t *testing.T) {
	// The Figure 15 example: a[i] and a[i+3] at dependence distance 3.
	src := `
int a[256];
void f(int n) {
  int i;
  for (i = 0; i < n; i++) {
    a[i] = a[i+3] + 1;
  }
}`
	p := compileAt(t, src, Full)
	gr := p.Graph("f")
	var tk *pegasus.Node
	for _, n := range gr.Nodes {
		if !n.Dead && n.Kind == pegasus.KTokenGen {
			tk = n
		}
	}
	if tk == nil {
		t.Fatalf("no token generator inserted\n%s", gr.Dump())
	}
	if tk.TokN != 3 {
		t.Errorf("tk(%d), want tk(3)", tk.TokN)
	}
	checkAllLevels(t, src, "f", []int64{64})
}

func TestDecoupledLoopCorrectness(t *testing.T) {
	// Values flow across the dependence distance: a[i] = a[i+3] shifts
	// the array left with a stride; the interpreter oracle checks every
	// level's result.
	src := `
int a[64];
int f(int n) {
  int i;
  int s = 0;
  for (i = 0; i < 64; i++) a[i] = i * i;
  for (i = 0; i < n; i++) a[i] = a[i+3] + 1;
  for (i = 0; i < 64; i++) s += a[i];
  return s;
}`
	checkAllLevels(t, src, "f", []int64{32}, []int64{61}, []int64{0})
}

func TestRecurrenceFlowDependence(t *testing.T) {
	// a[i+1] = a[i] + 1 is a distance-1 flow dependence through memory:
	// every iteration's load must see the previous iteration's store.
	// This is the sharpest test of token-edge removal + decoupling: get
	// the ordering wrong and the whole array is wrong.
	src := `
int a[64];
int f(int n) {
  int i;
  a[0] = 7;
  for (i = 0; i < n; i++) a[i+1] = a[i] + 1;
  int s = 0;
  for (i = 0; i <= n; i++) s = s * 3 + a[i];
  return s & 0x7fffffff;
}`
	checkAllLevels(t, src, "f", []int64{63}, []int64{1}, []int64{0})
}

func TestDecoupledLoopEntryOrdering(t *testing.T) {
	// A slow (division-delayed) store before the loop must be observed by
	// the decoupled loop's first iterations: the trailing group keeps the
	// class token even though the token generator paces its slip.
	src := `
int a[64];
int f(int x, int y) {
  int i;
  for (i = 0; i < 64; i++) a[i] = 1;
  a[3] = x / y;      /* 20-cycle divide delays this store */
  for (i = 0; i < 60; i++) a[i] = a[i+3] + 1;
  int s = 0;
  for (i = 0; i < 64; i++) s = s * 3 + a[i];
  return s & 0x7fffffff;
}`
	checkAllLevels(t, src, "f", []int64{1000, 3})
}

func TestDescendingRecurrence(t *testing.T) {
	// The g721 delay-line shape: dq[i] = dq[i-1] descending — an anti
	// dependence at distance 1 in a downward loop.
	src := `
int dq[16];
int f(void) {
  int i;
  for (i = 0; i < 16; i++) dq[i] = i * 5;
  int r;
  for (r = 0; r < 10; r++) {
    for (i = 15; i > 0; i--) dq[i] = dq[i-1];
    dq[0] = r;
  }
  int s = 0;
  for (i = 0; i < 16; i++) s = s * 7 + dq[i];
  return s & 0x7fffffff;
}`
	checkAllLevels(t, src, "f", nil)
}

func TestOptimizedProgramsBehave(t *testing.T) {
	srcs := map[string]struct {
		src   string
		entry string
		args  [][]int64
	}{
		"fib": {`
int fib(int k) {
  int a = 0;
  int b = 1;
  while (k) { int t = a; a = b; b = b + t; k--; }
  return a;
}`, "fib", [][]int64{{10}, {0}, {1}}},
		"memcopy": {`
int src[32];
int dst[32];
int f(int n) {
  int i;
  for (i = 0; i < 32; i++) src[i] = i * 7;
  for (i = 0; i < n; i++) dst[i] = src[i];
  return dst[5] + dst[n-1];
}`, "f", [][]int64{{32}, {6}}},
		"strided": {`
short buf[128];
int f(void) {
  int i;
  int s = 0;
  for (i = 0; i < 64; i++) buf[i*2] = (short)i;
  for (i = 0; i < 128; i++) s += buf[i];
  return s;
}`, "f", [][]int64{nil}},
		"calls": {`
int g;
int addg(int x) { g = g + x; return g; }
int f(int n) {
  int i;
  g = 0;
  for (i = 0; i < n; i++) addg(i);
  return g;
}`, "f", [][]int64{{10}}},
		"nested": {`
int m[8][8];
int f(int n) {
  int i; int j; int s = 0;
  for (i = 0; i < n; i++)
    for (j = 0; j < n; j++)
      m[i][j] = i + j;
  for (i = 0; i < n; i++)
    for (j = 0; j < n; j++)
      s += m[i][j];
  return s;
}`, "f", [][]int64{{8}, {1}}},
		"pointerwalk": {`
int data[64];
int f(int n) {
  int *p = data;
  int s = 0;
  int i;
  for (i = 0; i < n; i++) { *p = i; p = p + 1; }
  for (i = 0; i < n; i++) s += data[i];
  return s;
}`, "f", [][]int64{{20}}},
	}
	for name, tc := range srcs {
		tc := tc
		t.Run(name, func(t *testing.T) {
			checkAllLevels(t, tc.src, tc.entry, tc.args...)
		})
	}
}

func TestOptimizeReducesStaticMemOps(t *testing.T) {
	// Across a small corpus, Full must never have more memory ops than
	// None, and must remove some overall (the Figure 18 static effect).
	srcs := []string{
		section2Src,
		`int g; int f(int x) { g = x; g = g + 1; return g; }`,
		`int a[8]; int f(int i) { a[i] = 1; a[i] = 2; return a[i]; }`,
	}
	totalBefore, totalAfter := 0, 0
	for _, src := range srcs {
		p0 := compileAt(t, src, None)
		p1 := compileAt(t, src, Full)
		for name := range p0.Funcs {
			l0, s0 := p0.Funcs[name].CountMemOps()
			l1, s1 := p1.Funcs[name].CountMemOps()
			if l1 > l0 || s1 > s0 {
				t.Errorf("%s: optimization added memory ops (%d/%d → %d/%d)", name, l0, s0, l1, s1)
			}
			totalBefore += l0 + s0
			totalAfter += l1 + s1
		}
	}
	if totalAfter >= totalBefore {
		t.Errorf("no static memory ops removed: %d → %d", totalBefore, totalAfter)
	}
}

func TestPipeliningImprovesCycles(t *testing.T) {
	// The Figure 10 producer/consumer shape: with Medium optimization the
	// loop must run in fewer cycles than unoptimized.
	src := `
int src[256];
int dst[256];
void f(void) {
  int i;
  for (i = 0; i < 256; i++) dst[i] = src[i] * 3 + 1;
}`
	p0 := compileAt(t, src, None)
	p1 := compileAt(t, src, Medium)
	cfg := dataflow.DefaultConfig()
	r0, err := dataflow.Run(p0, "f", nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := dataflow.Run(p1, "f", nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Cycles >= r0.Stats.Cycles {
		t.Errorf("pipelining did not help: %d → %d cycles", r0.Stats.Cycles, r1.Stats.Cycles)
	}
}
