package codegen_test

// Paired engine benchmarks, reported in ns/event (the unit of
// EXPERIMENTS.md and of the benchmark's codegen.run_ns_per_event and
// dataflow.run_ns_per_event). Run both to measure the compiled
// backend's speedup on a given host:
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

// BenchmarkCodegen times the VM on g721_e alone and on all 22 suite
// programs (the sim-vm benchmark workload's operations), at O3.
func BenchmarkCodegen(b *testing.B) {
	b.Run("g721_e", func(b *testing.B) { benchVM(b, workloads.ByName("g721_e")) })
	b.Run("suite", func(b *testing.B) { benchVM(b, workloads.All()...) })
}

// benchVM runs every workload once per iteration on the VM.
func benchVM(b *testing.B, ws ...*workloads.Workload) {
	mods := make([]*codegen.Module, len(ws))
	var events int64
	for i, w := range ws {
		cp, err := core.CompileSource(w.Source, core.WithLevel(opt.Full))
		if err != nil {
			b.Fatal(err)
		}
		mods[i] = codegen.Compile(cp.Program)
		res, err := mods[i].Run(w.Entry, nil, dataflow.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		events += res.Stats.Events
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, mod := range mods {
			mod.Run(ws[j].Entry, nil, dataflow.DefaultConfig())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
}
