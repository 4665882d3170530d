package dataflow

import (
	"bytes"
	"encoding/json"
	"testing"

	"spatial/internal/memsys"
	"spatial/internal/opt"
	"spatial/internal/pegasus"
	"spatial/internal/trace"
)

// traceSrc is a small kernel with real memory traffic: the store→load
// token chains give the critical path token edges to attribute.
const traceSrc = `
int a[64];

int kernel(int n) {
  int i;
  int s = 0;
  for (i = 0; i < n; i++) a[i] = i * 3;
  for (i = 0; i < n; i++) s += a[i];
  return s;
}`

// traceRun runs p with a tracer attached through Hooks.Trace.
func traceRun(p *pegasus.Program, entry string, args []int64, cfg Config, tcfg trace.Config) (*Result, *trace.Trace, error) {
	tr := trace.New(tcfg)
	res, err := Prebuild(p).RunHooks(entry, args, cfg, Hooks{Trace: tr})
	if err != nil {
		return nil, nil, err
	}
	return res, tr.Finish(res.Stats.Cycles), nil
}

func runTraced(t *testing.T, src, entry string, args []int64, cfg Config, level opt.Level) (*Result, *trace.Trace) {
	t.Helper()
	p := compileProgram(t, src)
	if err := opt.OptimizeAt(p, level); err != nil {
		t.Fatalf("optimize: %v", err)
	}
	res, tr, err := traceRun(p, entry, args, cfg, trace.Config{})
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	return res, tr
}

func TestRunTracedMatchesRun(t *testing.T) {
	p := compileProgram(t, traceSrc)
	want, err := Run(p, "kernel", []int64{32}, DefaultConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got, tr, err := traceRun(p, "kernel", []int64{32}, DefaultConfig(), trace.Config{})
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	if got.Value != want.Value || got.Stats.Cycles != want.Stats.Cycles {
		t.Fatalf("traced run diverged: value %d vs %d, cycles %d vs %d",
			got.Value, want.Value, got.Stats.Cycles, want.Stats.Cycles)
	}
	if int64(len(tr.Firings)) != got.Stats.OpsFired {
		t.Fatalf("recorded %d firings, stats say %d ops fired", len(tr.Firings), got.Stats.OpsFired)
	}
}

func TestCriticalPathInvariants(t *testing.T) {
	for _, level := range []opt.Level{opt.None, opt.Full} {
		res, tr := runTraced(t, traceSrc, "kernel", []int64{32}, DefaultConfig(), level)
		cp := tr.CriticalPath()
		if cp == nil {
			t.Fatalf("%v: no critical path extracted", level)
		}
		if cp.Length <= 0 || cp.Length > res.Stats.Cycles {
			t.Fatalf("%v: path length %d outside (0, %d]", level, cp.Length, res.Stats.Cycles)
		}
		var stepSum int64
		for _, s := range cp.Steps {
			stepSum += s.Cycles
		}
		if stepSum != cp.Length {
			t.Fatalf("%v: step attributions sum to %d, path length %d", level, stepSum, cp.Length)
		}
		var kindSum int64
		for _, c := range cp.ByKind {
			kindSum += c
		}
		if kindSum != cp.Length {
			t.Fatalf("%v: per-kind attributions sum to %d, path length %d", level, kindSum, cp.Length)
		}
		var edgeSum int64
		for _, ec := range cp.TokenEdges {
			edgeSum += ec.Cycles
		}
		if edgeSum != cp.TokenCycles {
			t.Fatalf("%v: token-edge attributions sum to %d, TokenCycles %d", level, edgeSum, cp.TokenCycles)
		}
		// The path must end at the program's return.
		last := cp.Steps[len(cp.Steps)-1].Firing
		if last.Node.Kind.String() != "return" {
			t.Fatalf("%v: path ends at %s, want the return", level, last.Node)
		}
	}
}

func TestCriticalPathShrinksWithMemopt(t *testing.T) {
	res0, tr0 := runTraced(t, traceSrc, "kernel", []int64{32}, DefaultConfig(), opt.None)
	res2, tr2 := runTraced(t, traceSrc, "kernel", []int64{32}, DefaultConfig(), opt.Full)
	if res0.Value != res2.Value {
		t.Fatalf("levels disagree: %d vs %d", res0.Value, res2.Value)
	}
	cp0, cp2 := tr0.CriticalPath(), tr2.CriticalPath()
	if cp0 == nil || cp2 == nil {
		t.Fatal("missing critical path")
	}
	if cp2.Length >= cp0.Length {
		t.Fatalf("memory optimization did not shorten the critical path: %d -> %d", cp0.Length, cp2.Length)
	}
}

func TestTraceMemoryEvents(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mem = memsys.PaperConfig(2)
	res, tr := runTraced(t, traceSrc, "kernel", []int64{32}, cfg, opt.Full)
	wantMem := res.Stats.DynLoads + res.Stats.DynStores
	if int64(len(tr.Mem)) != wantMem {
		t.Fatalf("recorded %d memory events, stats say %d requests", len(tr.Mem), wantMem)
	}
	if tr.TokenReleases != wantMem {
		t.Fatalf("recorded %d token releases, want %d", tr.TokenReleases, wantMem)
	}
	if tr.LSQOccupancy.Count != wantMem {
		t.Fatalf("LSQ occupancy histogram has %d samples, want %d", tr.LSQOccupancy.Count, wantMem)
	}
	var hits, misses int64
	for _, e := range tr.Mem {
		if e.Done < e.Issue || e.Issue < e.Start {
			t.Fatalf("unordered memory event: %+v", e)
		}
		if e.Level == memsys.LvlL1 {
			hits++
		} else {
			misses++
		}
	}
	if hits != res.Stats.Mem.L1Hits || misses != res.Stats.Mem.L1Misses {
		t.Fatalf("event hit/miss split %d/%d, stats %d/%d",
			hits, misses, res.Stats.Mem.L1Hits, res.Stats.Mem.L1Misses)
	}
}

func TestTraceChromeExport(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mem = memsys.PaperConfig(2)
	_, tr := runTraced(t, traceSrc, "kernel", []int64{16}, cfg, opt.Full)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	// Every firing and memory event plus the metadata records.
	if len(events) < len(tr.Firings)+len(tr.Mem) {
		t.Fatalf("export has %d events, want at least %d", len(events), len(tr.Firings)+len(tr.Mem))
	}
	phases := map[string]bool{}
	for _, e := range events {
		phases[e["ph"].(string)] = true
	}
	if !phases["X"] || !phases["M"] {
		t.Fatalf("export missing complete (X) or metadata (M) events: %v", phases)
	}
}

func TestTraceStallsRecorded(t *testing.T) {
	_, tr := runTraced(t, traceSrc, "kernel", []int64{32}, DefaultConfig(), opt.None)
	if len(tr.StallsByKind) == 0 {
		t.Fatal("no stalls recorded for an unoptimized loop kernel")
	}
	total := int64(0)
	for _, sc := range tr.StallsByKind {
		for _, c := range sc {
			total += c
		}
	}
	if total == 0 {
		t.Fatal("stall table is all zeros")
	}
	if tr.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestTraceTruncation(t *testing.T) {
	p := compileProgram(t, traceSrc)
	_, tr, err := traceRun(p, "kernel", []int64{32}, DefaultConfig(), trace.Config{MaxFirings: 10})
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	if !tr.Truncated {
		t.Fatal("trace not marked truncated at MaxFirings=10")
	}
	if len(tr.Firings) != 10 {
		t.Fatalf("retained %d firings, want 10", len(tr.Firings))
	}
	if tr.CriticalPath() != nil {
		t.Fatal("truncated trace must not fabricate a critical path")
	}
}
