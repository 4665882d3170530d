// Benchmarks regenerating every table and figure of the paper's
// evaluation. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports paper-relevant metrics (memory ops removed,
// cycles, speedups) via b.ReportMetric, so `go test -bench` output doubles
// as the experiment log.
package spatial_test

import (
	"testing"

	"spatial/internal/build"
	"spatial/internal/dataflow"
	"spatial/internal/harness"
	"spatial/internal/interp"
	"spatial/internal/memsys"
	"spatial/internal/opt"
	"spatial/internal/pegasus"
	"spatial/internal/workloads"
)

// benchSet is the representative subset used by the per-figure
// benchmarks (the full 22-program sweep lives in cmd/experiments).
var benchSet = []string{"adpcm_e", "epic_e", "g721_e", "mesa", "129.compress"}

func benchWorkloads(b *testing.B) []*workloads.Workload {
	b.Helper()
	var ws []*workloads.Workload
	for _, name := range benchSet {
		w := workloads.ByName(name)
		if w == nil {
			b.Fatalf("missing workload %s", name)
		}
		ws = append(ws, w)
	}
	return ws
}

// BenchmarkSection2Example regenerates the Section 2 compiler comparison:
// compiling the motivating example and counting residual memory ops.
func BenchmarkSection2Example(b *testing.B) {
	const src = `
void f(unsigned *p, unsigned a[], int i) {
  if (p) a[i] += *p;
  else a[i] = 1;
  a[i] <<= a[i+1];
}`
	var loads, stores int
	for i := 0; i < b.N; i++ {
		prog, err := parseAndBuild(src)
		if err != nil {
			b.Fatal(err)
		}
		if err := opt.OptimizeAt(prog, opt.Full); err != nil {
			b.Fatal(err)
		}
		loads, stores = 0, 0
		for _, g := range prog.Funcs {
			l, s := g.CountMemOps()
			loads += l
			stores += s
		}
	}
	b.ReportMetric(float64(loads), "loads")
	b.ReportMetric(float64(stores), "stores")
}

// BenchmarkTable1LOC regenerates Table 1 (implementation compactness).
func BenchmarkTable1LOC(b *testing.B) {
	var total int
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table1("internal/opt")
		if err != nil {
			b.Fatal(err)
		}
		total = 0
		for _, r := range rows {
			total += r.LOC
		}
	}
	b.ReportMetric(float64(total), "total-LOC")
}

// BenchmarkTable2Stats regenerates the Table 2 program statistics.
func BenchmarkTable2Stats(b *testing.B) {
	ws := benchWorkloads(b)
	var lines int
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table2(ws)
		if err != nil {
			b.Fatal(err)
		}
		lines = 0
		for _, r := range rows {
			lines += r.Lines
		}
	}
	b.ReportMetric(float64(lines), "src-lines")
}

// BenchmarkFig18 regenerates the Figure 18 memory-operation reductions on
// the representative subset.
func BenchmarkFig18(b *testing.B) {
	ws := benchWorkloads(b)
	var staticRemoved, dynRemoved float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig18(ws)
		if err != nil {
			b.Fatal(err)
		}
		staticRemoved, dynRemoved = 0, 0
		for _, r := range rows {
			staticRemoved += float64(r.StaticLoads0 - r.StaticLoads1 + r.StaticStore0 - r.StaticStore1)
			dynRemoved += float64(r.DynMem0 - r.DynMem1)
		}
	}
	b.ReportMetric(staticRemoved, "static-removed")
	b.ReportMetric(dynRemoved, "dyn-removed")
}

// BenchmarkFig19 regenerates the Figure 19 sweep per benchmark, level,
// and memory system; the speedup metric is the figure's y axis.
func BenchmarkFig19(b *testing.B) {
	for _, name := range benchSet {
		w := workloads.ByName(name)
		for _, level := range []opt.Level{opt.None, opt.Medium, opt.Full} {
			for _, mem := range []memsys.Config{memsys.PerfectConfig(), memsys.PaperConfig(2)} {
				b.Run(name+"/"+level.String()+"/"+mem.String(), func(b *testing.B) {
					var cycles int64
					for i := 0; i < b.N; i++ {
						rows, err := harness.Fig19([]*workloads.Workload{w},
							[]opt.Level{level}, []memsys.Config{mem})
						if err != nil {
							b.Fatal(err)
						}
						cycles = rows[0].Cycles
					}
					b.ReportMetric(float64(cycles), "cycles")
				})
			}
		}
	}
}

// BenchmarkAblation regenerates the Section 7.3 knockout study on one
// pipelining-sensitive kernel (the first of the Section 6 subset).
func BenchmarkAblation(b *testing.B) {
	w := workloads.PipelinedSubset()[0]
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.Ablation([]*workloads.Workload{w})
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if r.SlowdownPct > worst {
				worst = r.SlowdownPct
			}
		}
	}
	b.ReportMetric(worst, "worst-slowdown-%")
}

// BenchmarkSpatialVsSeq regenerates the ASPLOS'04 headline comparison.
func BenchmarkSpatialVsSeq(b *testing.B) {
	ws := benchWorkloads(b)
	var geo float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.SpatialVsSeq(ws, opt.Full)
		if err != nil {
			b.Fatal(err)
		}
		geo = 1
		for _, r := range rows {
			geo *= r.Speedup
		}
	}
	b.ReportMetric(geo, "speedup-product")
}

// BenchmarkCompile measures compiler throughput (the paper's Section 7.1
// discusses CASH's compile time).
func BenchmarkCompile(b *testing.B) {
	w := workloads.ByName("mesa")
	for i := 0; i < b.N; i++ {
		prog, err := w.Parse()
		if err != nil {
			b.Fatal(err)
		}
		p, err := build.Compile(prog)
		if err != nil {
			b.Fatal(err)
		}
		if err := opt.OptimizeAt(p, opt.Full); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulate measures dataflow simulator throughput.
func BenchmarkSimulate(b *testing.B) {
	w := workloads.ByName("adpcm_e")
	prog, err := w.Parse()
	if err != nil {
		b.Fatal(err)
	}
	p, err := build.Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	if err := opt.OptimizeAt(p, opt.Full); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := dataflow.Run(p, w.Entry, nil, dataflow.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Stats.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// BenchmarkInterpret measures the sequential baseline's throughput.
func BenchmarkInterpret(b *testing.B) {
	w := workloads.ByName("adpcm_e")
	prog, err := w.Parse()
	if err != nil {
		b.Fatal(err)
	}
	p, err := build.Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := interp.New(p, memsys.PerfectConfig())
		if _, err := it.Run(w.Entry, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func parseAndBuild(src string) (*pegasus.Program, error) {
	w := &workloads.Workload{Name: "inline", Source: src, Entry: "f"}
	prog, err := w.Parse()
	if err != nil {
		return nil, err
	}
	return build.Compile(prog)
}
