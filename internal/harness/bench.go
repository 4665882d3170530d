package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"spatial/internal/codegen"
	"spatial/internal/dataflow"
	"spatial/internal/opt"
	"spatial/internal/workloads"
)

// BenchSet is the representative workload subset the simulator
// performance baseline tracks (the same five programs as the root
// go-test benchmarks).
var BenchSet = []string{"adpcm_e", "epic_e", "g721_e", "mesa", "129.compress"}

// BenchLevels are the optimization levels the baseline sweeps.
var BenchLevels = []opt.Level{opt.None, opt.Basic, opt.Medium, opt.Full}

// Execution engines the baseline measures. The names match the BENCH.json
// row labels: "interp" is the event-driven graph interpreter, "codegen"
// the compiled flat-bytecode VM.
const (
	BackendInterp  = "interp"
	BackendCodegen = "codegen"
)

// BenchBackends is the default backend sweep: both engines, interpreter
// first so each codegen row can carry its same-run speedup.
var BenchBackends = []string{BackendInterp, BackendCodegen}

// BenchRow is one (workload, level, backend) measurement of simulator
// throughput. Value/Cycles/Events identify the run semantically — they
// must be bit-identical across engine changes AND across backends —
// while the rate metrics track the engine's speed.
type BenchRow struct {
	Workload string `json:"workload"`
	Level    int    `json:"level"`
	// Backend is the engine measured: "interp" or "codegen". Empty in
	// reports predating the compiled backend, which measured only the
	// interpreter.
	Backend string `json:"backend,omitempty"`

	Value  int64 `json:"value"`
	Cycles int64 `json:"cycles"`
	Events int64 `json:"events"`

	Runs        int     `json:"runs"`
	NsPerRun    float64 `json:"ns_per_run"`
	NsPerEvent  float64 `json:"ns_per_event"`
	AllocsPerEv float64 `json:"allocs_per_event"`
	SimCycSec   float64 `json:"sim_cycles_per_sec"`
	// Speedup is this row's ns/event advantage over the interpreter row
	// measured in the same sweep (codegen rows only, and only when the
	// sweep ran both backends) — a paired same-run, same-host ratio, not
	// a comparison against a recorded baseline.
	Speedup float64 `json:"speedup,omitempty"`
}

// BenchReport is the serialized form of one baseline sweep (BENCH.json).
// CPUs records the machine's core count so the parallel rows can be
// read in context — a scaling curve flattens at the physical core
// count, not at the worker count.
type BenchReport struct {
	GoVersion string        `json:"go_version"`
	CPUs      int           `json:"cpus"`
	BenchTime string        `json:"bench_time"`
	Rows      []BenchRow    `json:"rows"`
	Parallel  []ParallelRow `json:"parallel,omitempty"`
	Load      []LoadRow     `json:"load,omitempty"`
	Chaos     []ChaosRow    `json:"chaos,omitempty"`
}

// MergeBenchJSON writes fresh into the report file at path, replacing
// only the sections fresh carries — rows (together with the go_version,
// cpus and bench_time header they were measured under), parallel, load,
// chaos — and keeping every other section as it is on disk, so no
// experiment erases another's record. A missing file starts empty; an
// unreadable one is an error rather than being overwritten. Sections the
// report type no longer has are dropped.
func MergeBenchJSON(path string, fresh *BenchReport) error {
	rep := &BenchReport{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, rep); err != nil {
			return fmt.Errorf("existing %s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	if fresh.Rows != nil {
		rep.GoVersion, rep.CPUs, rep.BenchTime, rep.Rows = fresh.GoVersion, fresh.CPUs, fresh.BenchTime, fresh.Rows
	}
	if fresh.Parallel != nil {
		rep.Parallel = fresh.Parallel
	}
	if fresh.Load != nil {
		rep.Load = fresh.Load
	}
	if fresh.Chaos != nil {
		rep.Chaos = fresh.Chaos
	}
	if rep.GoVersion == "" {
		rep.GoVersion, rep.CPUs = runtime.Version(), runtime.NumCPU()
	}
	data, err = json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Bench measures simulator throughput for the named workloads at every
// level in BenchLevels on every backend in backends (nil means both
// engines). Each (workload, level, backend) triple is compiled once and
// then run repeatedly for at least minTime; the first run's result is
// the reference, and every repeat must reproduce it bit-identically
// (value and cycle count) or Bench fails — a perf baseline that drifts
// semantically is worthless. When the sweep covers both backends, their
// references must also agree bit-for-bit (the full Result, statistics
// included), and each codegen row carries its same-sweep speedup over
// the interpreter. Allocation counts come from the runtime's cumulative
// malloc counter across the timed runs.
func Bench(names []string, minTime time.Duration, backends []string) (*BenchReport, error) {
	if len(backends) == 0 {
		backends = BenchBackends
	}
	rep := &BenchReport{
		GoVersion: runtime.Version(),
		CPUs:      runtime.NumCPU(),
		BenchTime: minTime.String(),
	}
	for _, name := range names {
		w := workloads.ByName(name)
		if w == nil {
			return nil, fmt.Errorf("bench: unknown workload %q", name)
		}
		for _, level := range BenchLevels {
			var ref *dataflow.Result
			interpNs := 0.0
			for _, backend := range backends {
				row, rowRef, err := benchOne(w, level, minTime, backend)
				if err != nil {
					return nil, err
				}
				if ref == nil {
					ref = rowRef
				} else if *rowRef != *ref {
					return nil, fmt.Errorf("bench: %s @%s: backend divergence:\n %s %+v\n %s %+v",
						w.Name, level, backends[0], ref, backend, rowRef)
				}
				switch backend {
				case BackendInterp:
					interpNs = row.NsPerEvent
				case BackendCodegen:
					if interpNs > 0 {
						row.Speedup = interpNs / row.NsPerEvent
					}
				}
				rep.Rows = append(rep.Rows, row)
			}
		}
	}
	return rep, nil
}

func benchOne(w *workloads.Workload, level opt.Level, minTime time.Duration, backend string) (BenchRow, *dataflow.Result, error) {
	row := BenchRow{Workload: w.Name, Level: int(level), Backend: backend}
	p, err := compileWorkload(w, level, nil)
	if err != nil {
		return row, nil, err
	}
	cfg := dataflow.DefaultConfig()
	var run func() (*dataflow.Result, error)
	switch backend {
	case BackendInterp:
		run = func() (*dataflow.Result, error) { return dataflow.Run(p, w.Entry, nil, cfg) }
	case BackendCodegen:
		mod := codegen.Compile(p)
		run = func() (*dataflow.Result, error) { return mod.Run(w.Entry, nil, cfg) }
	default:
		return row, nil, fmt.Errorf("bench: unknown backend %q (want %q or %q)", backend, BackendInterp, BackendCodegen)
	}

	// Warm-up run: captures the reference result and fills the engine's
	// pools so the timed loop measures the steady state.
	ref, err := run()
	if err != nil {
		return row, nil, fmt.Errorf("%s @%s [%s]: %w", w.Name, level, backend, err)
	}
	row.Value, row.Cycles, row.Events = ref.Value, ref.Stats.Cycles, ref.Stats.Events

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var elapsed time.Duration
	runs := 0
	for elapsed < minTime || runs < 2 {
		res, err := run()
		if err != nil {
			return row, nil, fmt.Errorf("%s @%s [%s]: %w", w.Name, level, backend, err)
		}
		if res.Value != ref.Value || res.Stats.Cycles != ref.Stats.Cycles || res.Stats.Events != ref.Stats.Events {
			return row, nil, fmt.Errorf("%s @%s [%s]: nondeterministic: run %d gave (value %d, cycles %d, events %d), reference (%d, %d, %d)",
				w.Name, level, backend, runs, res.Value, res.Stats.Cycles, res.Stats.Events, ref.Value, ref.Stats.Cycles, ref.Stats.Events)
		}
		runs++
		elapsed = time.Since(start)
	}
	runtime.ReadMemStats(&ms1)

	totalEvents := float64(row.Events) * float64(runs)
	row.Runs = runs
	row.NsPerRun = float64(elapsed.Nanoseconds()) / float64(runs)
	row.NsPerEvent = float64(elapsed.Nanoseconds()) / totalEvents
	row.AllocsPerEv = float64(ms1.Mallocs-ms0.Mallocs) / totalEvents
	row.SimCycSec = float64(row.Cycles) * float64(runs) / elapsed.Seconds()
	return row, ref, nil
}

// MaxAllocsPerEvent returns the worst allocs/event across the report —
// the CI smoke gate compares this against its budget.
func (r *BenchReport) MaxAllocsPerEvent() float64 {
	worst := 0.0
	for _, row := range r.Rows {
		if row.AllocsPerEv > worst {
			worst = row.AllocsPerEv
		}
	}
	return worst
}

// Benchstat renders the report as benchstat-compatible lines
// (`BenchmarkSim/<workload>/O<level> <runs> <ns/op> ns/op ...`), so two
// BENCH runs can be compared with `benchstat old.txt new.txt`.
func (r *BenchReport) Benchstat() string {
	var b strings.Builder
	rows := append([]BenchRow(nil), r.Rows...)
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Workload != rows[j].Workload {
			return rows[i].Workload < rows[j].Workload
		}
		if rows[i].Level != rows[j].Level {
			return rows[i].Level < rows[j].Level
		}
		return rows[i].Backend < rows[j].Backend
	})
	for _, row := range rows {
		// Interpreter rows keep the pre-backend benchmark names so
		// benchstat can still diff against older BENCH baselines; codegen
		// rows get their own name segment.
		name := fmt.Sprintf("BenchmarkSim/%s/O%d", row.Workload, row.Level)
		if row.Backend == BackendCodegen {
			name += "/" + BackendCodegen
		}
		fmt.Fprintf(&b, "%s %d %.0f ns/op %.1f ns/event %.4f allocs/event %.0f sim-cycles/sec",
			name, row.Runs, row.NsPerRun, row.NsPerEvent, row.AllocsPerEv, row.SimCycSec)
		if row.Speedup > 0 {
			fmt.Fprintf(&b, " %.2f speedup", row.Speedup)
		}
		b.WriteString("\n")
	}
	for _, row := range r.Parallel {
		fmt.Fprintf(&b, "BenchmarkParallel/%s/W%d %d %.0f ns/op %.1f ns/event %.2f runs/sec %.2f speedup\n",
			row.Workload, row.Workers, row.Runs, 1e9/row.RunsPerSec, row.NsPerEvent, row.RunsPerSec, row.Speedup)
	}
	return b.String()
}

// FormatBench renders the human-readable table printed by `-exp bench`.
func FormatBench(r *BenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Simulator throughput baseline (%s, benchtime %s)\n", r.GoVersion, r.BenchTime)
	fmt.Fprintf(&b, "%-14s %-5s %-8s %12s %12s %10s %12s %14s %8s\n",
		"workload", "level", "backend", "cycles", "events", "ns/event", "allocs/ev", "sim-cyc/sec", "speedup")
	for _, row := range r.Rows {
		backend := row.Backend
		if backend == "" {
			backend = BackendInterp
		}
		fmt.Fprintf(&b, "%-14s O%-4d %-8s %12d %12d %10.1f %12.4f %14.0f",
			row.Workload, row.Level, backend, row.Cycles, row.Events,
			row.NsPerEvent, row.AllocsPerEv, row.SimCycSec)
		if row.Speedup > 0 {
			fmt.Fprintf(&b, " %7.2fx", row.Speedup)
		}
		b.WriteString("\n")
	}
	if len(r.Parallel) > 0 {
		b.WriteString("\n")
		b.WriteString(FormatParallel(r.CPUs, r.Parallel))
	}
	return b.String()
}

// FormatParallel renders the parallel scaling curve as a table.
func FormatParallel(cpus int, rows []ParallelRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Parallel batch throughput (%d CPUs, shared compiled structures, per-stream determinism verified)\n", cpus)
	fmt.Fprintf(&b, "%-14s %-8s %8s %12s %10s %10s\n",
		"workload", "workers", "runs", "runs/sec", "ns/event", "speedup")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-14s %-8d %8d %12.2f %10.1f %9.2fx\n",
			row.Workload, row.Workers, row.Runs, row.RunsPerSec, row.NsPerEvent, row.Speedup)
	}
	return b.String()
}
