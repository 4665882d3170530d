package dataflow

import (
	"errors"
	"strings"
	"testing"

	"spatial/internal/cminor"
	"spatial/internal/memsys"
	"spatial/internal/opt"
	"spatial/internal/pegasus"
)

// findKind returns the first live node of the given kind.
func findKind(g *pegasus.Graph, k pegasus.Kind) *pegasus.Node {
	for _, n := range g.Nodes {
		if !n.Dead && n.Kind == k {
			return n
		}
	}
	return nil
}

func sccHasNode(r *StuckReport, id int) bool {
	for _, b := range r.SCC {
		if b.Node.ID == id {
			return true
		}
	}
	return false
}

// TestStuckTokenCycle: two combine nodes in a mutual token wait are the
// purest deadlock cycle; the report's SCC must name exactly those two
// nodes. (The mutilated graph is intentionally cyclic on forward edges,
// so Verify is not consulted — this probes the diagnoser, not the
// builder.)
func TestStuckTokenCycle(t *testing.T) {
	p := compileProgram(t, `int f(int a) { return a + 1; }`)
	g := p.Graph("f")
	h := g.Ret.Hyper
	c1 := g.NewNode(pegasus.KCombine, h)
	c2 := g.NewNode(pegasus.KCombine, h)
	c1.Toks = []pegasus.Ref{pegasus.T(c2), pegasus.T(g.Entry)}
	c2.Toks = []pegasus.Ref{pegasus.T(c1)}
	g.Ret.Toks = []pegasus.Ref{pegasus.T(c1)}

	_, err := Run(p, "f", []int64{1}, DefaultConfig())
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlockError, got %v", err)
	}
	r := de.Report
	if r.Kind != "deadlock" {
		t.Fatalf("report kind = %q", r.Kind)
	}
	if len(r.SCC) != 2 || !sccHasNode(r, c1.ID) || !sccHasNode(r, c2.ID) {
		t.Fatalf("SCC should be exactly the combine pair {n%d, n%d}:\n%s", c1.ID, c2.ID, r.Render())
	}
	for _, b := range r.SCC {
		if len(b.Waits) == 0 || b.Waits[0].Kind != WaitToken {
			t.Fatalf("combine should be token-waiting: %+v", b)
		}
	}
	if !strings.Contains(r.Render(), "wait cycle") {
		t.Fatalf("rendering should announce the wait cycle:\n%s", r.Render())
	}
}

// TestStuckStarvedMux: a mux whose data input is rerouted through an
// eta that never forwards (constant-false predicate) starves forever.
// Starvation is an acyclic wait chain — no SCC — but the report must
// name the mux and the eta it waits on.
func TestStuckStarvedMux(t *testing.T) {
	src := `
int tbl[4];
int f(int a) {
  int r;
  if (a > 0) { r = tbl[0]; } else { r = tbl[1]; }
  return r;
}`
	p := compileProgram(t, src)
	g := p.Graph("f")
	mux := findKind(g, pegasus.KMux)
	if mux == nil {
		t.Skip("no mux produced by this build")
	}
	victim := mux.Ins[0]
	eta := g.NewNode(pegasus.KEta, mux.Hyper)
	eta.VT = victim.N.VT
	eta.Ins = []pegasus.Ref{victim}
	eta.Preds = []pegasus.Ref{pegasus.V(g.ConstPred(mux.Hyper, false))}
	mux.Ins[0] = pegasus.V(eta)
	if err := g.Verify(); err != nil {
		t.Fatalf("mutilated graph should still be structurally valid: %v", err)
	}

	_, err := Run(p, "f", []int64{1}, DefaultConfig())
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlockError, got %v", err)
	}
	r := de.Report
	if !r.ContainsNode("f", mux.ID) {
		t.Fatalf("report should name the starved mux n%d:\n%s", mux.ID, r.Render())
	}
	var muxEntry *BlockedNode
	for i := range r.Blocked {
		if r.Blocked[i].Node.ID == mux.ID {
			muxEntry = &r.Blocked[i]
		}
	}
	if len(muxEntry.Waits) == 0 || muxEntry.Waits[0].Peer.ID != eta.ID || muxEntry.Waits[0].Kind != WaitData {
		t.Fatalf("mux should data-wait on the starving eta n%d: %+v", eta.ID, muxEntry)
	}
	if len(r.SCC) != 0 {
		t.Fatalf("pure starvation should have no wait cycle:\n%s", r.Render())
	}
}

// TestStuckBackpressureLoop: a never-firing extra consumer on a
// loop-carried value fills its one-place input edge, so the loop's
// merge wedges on backpressure; the report must show the merge blocked
// by the full edge to that consumer.
func TestStuckBackpressureLoop(t *testing.T) {
	src := `
int g;
int f(int n) {
  int i;
  for (i = 0; i < n; i++) { g = g + i; }
  return g;
}`
	p := compileProgram(t, src)
	g := p.Graph("f")
	// The loop-carried i lives in a merge inside the loop hyperblock.
	var merge *pegasus.Node
	for _, n := range g.Nodes {
		if !n.Dead && n.Kind == pegasus.KMerge && !n.TokenOnly && g.Hypers[n.Hyper].IsLoop {
			merge = n
			break
		}
	}
	if merge == nil {
		t.Skip("no loop value merge produced by this build")
	}
	// An extra consumer that also needs a value that never arrives: the
	// starving eta idiom again, feeding the second operand.
	starve := g.NewNode(pegasus.KEta, merge.Hyper)
	starve.VT = merge.VT
	starve.Ins = []pegasus.Ref{pegasus.V(merge)}
	starve.Preds = []pegasus.Ref{pegasus.V(g.ConstPred(merge.Hyper, false))}
	sink := g.NewNode(pegasus.KBinOp, merge.Hyper)
	sink.BinOp = cminor.OpAdd
	sink.VT = merge.VT
	sink.Ins = []pegasus.Ref{pegasus.V(merge), pegasus.V(starve)}
	if err := g.Verify(); err != nil {
		t.Fatalf("mutilated graph should still be structurally valid: %v", err)
	}

	_, err := Run(p, "f", []int64{8}, DefaultConfig())
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlockError, got %v", err)
	}
	r := de.Report
	var mergeEntry *BlockedNode
	for i := range r.Blocked {
		if r.Blocked[i].Node.ID == merge.ID {
			mergeEntry = &r.Blocked[i]
		}
	}
	if mergeEntry == nil {
		t.Fatalf("report should name the backpressured merge n%d:\n%s", merge.ID, r.Render())
	}
	foundBP := false
	for _, w := range mergeEntry.Waits {
		if w.Kind == WaitBackpressure && w.Peer.ID == sink.ID {
			foundBP = true
		}
	}
	if !foundBP {
		t.Fatalf("merge should be blocked by the full edge to the sink n%d: %+v\n%s", sink.ID, mergeEntry, r.Render())
	}
	if !strings.Contains(r.Render(), "backpressure") {
		t.Fatalf("rendering should mention backpressure:\n%s", r.Render())
	}
}

// TestLivelockReportsBudget: an over-budget loop yields a typed
// *LivelockError carrying the budget and a report.
func TestLivelockReportsBudget(t *testing.T) {
	src := `
int g;
int f(void) {
  int i;
  for (i = 0; i < 1000000; i++) { g = g + 1; }
  return g;
}`
	p := compileProgram(t, src)
	cfg := DefaultConfig()
	cfg.MaxCycles = 5000
	_, err := Run(p, "f", nil, cfg)
	var le *LivelockError
	if !errors.As(err, &le) {
		t.Fatalf("want *LivelockError, got %v", err)
	}
	if le.MaxCycles != 5000 || le.Report == nil || le.Report.Kind != "livelock" {
		t.Fatalf("livelock detail wrong: %+v", le)
	}
}

// TestConfigValidate: nonsensical simulator configurations are rejected
// with actionable messages instead of misbehaving at run time.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.MaxCycles = -5 }, "MaxCycles"},
		{func(c *Config) { c.MaxActivations = -2 }, "MaxActivations"},
		{func(c *Config) { c.Mem.Ports = -1 }, "Ports"},
		// A cache model allocates per line up front: 2 GiB of L2 would
		// cost 832 MB.
		{func(c *Config) { c.Mem = memsys.PaperConfig(2); c.Mem.L1Bytes = memsys.MaxCacheBytes + 1 }, "L1Bytes"},
		{func(c *Config) { c.Mem = memsys.PaperConfig(2); c.Mem.L2Bytes = 1 << 31 }, "L2Bytes"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate() = %v; want mention of %s", err, tc.want)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config must validate (zero means default): %v", err)
	}
	p := compileProgram(t, `int f(void) { return 4; }`)
	bad := DefaultConfig()
	bad.MaxCycles = -3
	if _, err := Run(p, "f", nil, bad); err == nil {
		t.Error("Run accepted an invalid config")
	}
}

// TestUnbuiltCallTypedError: calling an extern declaration surfaces the
// ErrUnbuiltCall sentinel instead of panicking.
func TestUnbuiltCallTypedError(t *testing.T) {
	src := `
int ext(int x);
int f(void) { return ext(3); }`
	p := optProgram(t, src, opt.None)
	_, err := Run(p, "f", nil, DefaultConfig())
	if !errors.Is(err, ErrUnbuiltCall) {
		t.Fatalf("want ErrUnbuiltCall, got %v", err)
	}
}
