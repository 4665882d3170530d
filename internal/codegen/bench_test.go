package codegen_test

// Paired engine benchmarks, reported in ns/event (the unit BENCH.json
// and EXPERIMENTS.md use). Run both to measure the compiled backend's
// speedup on this host:
//
//	go test ./internal/codegen/ -run xxx -bench 'Interp|Codegen' -benchtime 2s

import (
	"testing"

	"spatial/internal/codegen"
	"spatial/internal/core"
	"spatial/internal/dataflow"
	"spatial/internal/opt"
	"spatial/internal/workloads"
)

func BenchmarkInterp(b *testing.B) {
	w := workloads.ByName("g721_e")
	cp, err := core.CompileSource(w.Source, core.WithLevel(opt.Full))
	if err != nil {
		b.Fatal(err)
	}
	sh := dataflow.Prebuild(cp.Program)
	res, err := sh.Run(w.Entry, nil, dataflow.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.Run(w.Entry, nil, dataflow.DefaultConfig())
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(res.Stats.Events), "ns/event")
}

func BenchmarkCodegen(b *testing.B) {
	w := workloads.ByName("g721_e")
	cp, err := core.CompileSource(w.Source, core.WithLevel(opt.Full))
	if err != nil {
		b.Fatal(err)
	}
	mod := codegen.Compile(cp.Program)
	res, err := mod.Run(w.Entry, nil, dataflow.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod.Run(w.Entry, nil, dataflow.DefaultConfig())
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(res.Stats.Events), "ns/event")
}
