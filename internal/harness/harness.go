// Package harness drives the paper-reproduction experiments: it compiles
// every workload at the paper's optimization levels, runs the dataflow
// simulator over the paper's memory systems, and renders each table and
// figure of the evaluation (Tables 1–2, Figures 18–19, the Section 7.3
// ablations, and the spatial-vs-sequential headline comparison).
package harness

import (
	"fmt"

	"spatial/internal/core"
	"spatial/internal/dataflow"
	"spatial/internal/hw"
	"spatial/internal/interp"
	"spatial/internal/memsys"
	"spatial/internal/opt"
	"spatial/internal/pegasus"
	"spatial/internal/workloads"
)

// compileWorkload builds one workload at a level (or explicit passes).
func compileWorkload(w *workloads.Workload, level opt.Level, passes *opt.Options) (*pegasus.Program, error) {
	opts := []core.Option{core.WithLevel(level)}
	if passes != nil {
		opts = append(opts, core.WithPasses(*passes))
	}
	cp, err := core.CompileSource(w.Source, opts...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return cp.Program, nil
}

func staticMemOps(p *pegasus.Program) (loads, stores int) {
	for _, g := range p.Funcs {
		l, s := g.CountMemOps()
		loads += l
		stores += s
	}
	return
}

// --- Table 2 ---

// Table2Row mirrors the paper's per-benchmark statistics.
type Table2Row struct {
	Name     string
	Funcs    int
	Lines    int
	Coverage float64 // % of run time in the compiled functions (100 here)
	Pragmas  int
	// DynOps is the dynamic instruction count (extra context the paper
	// reports via SimpleScalar run time).
	DynOps int64
}

// Table2 computes the program statistics table.
func Table2(ws []*workloads.Workload) ([]Table2Row, error) {
	var rows []Table2Row
	for _, w := range ws {
		funcs, lines, pragmas := w.Stats()
		p, err := compileWorkload(w, opt.None, nil)
		if err != nil {
			return nil, err
		}
		it := interp.New(p, memsys.PerfectConfig())
		res, err := it.Run(w.Entry, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		rows = append(rows, Table2Row{
			Name: w.Name, Funcs: funcs, Lines: lines,
			Coverage: 100, Pragmas: pragmas, DynOps: res.Instrs,
		})
	}
	return rows, nil
}

// --- Figure 18 ---

// Fig18Row reports static and dynamic memory-operation reduction for one
// benchmark.
type Fig18Row struct {
	Name         string
	StaticLoads0 int
	StaticLoads1 int
	StaticStore0 int
	StaticStore1 int
	DynMem0      int64
	DynMem1      int64
}

// LoadsRemovedPct returns the static load reduction percentage.
func (r Fig18Row) LoadsRemovedPct() float64 { return pct(r.StaticLoads0, r.StaticLoads1) }

// StoresRemovedPct returns the static store reduction percentage.
func (r Fig18Row) StoresRemovedPct() float64 { return pct(r.StaticStore0, r.StaticStore1) }

// DynRemovedPct returns the dynamic memory-operation reduction.
func (r Fig18Row) DynRemovedPct() float64 {
	return pct64(r.DynMem0, r.DynMem1)
}

func pct(before, after int) float64 { return pct64(int64(before), int64(after)) }

func pct64(before, after int64) float64 {
	if before == 0 {
		return 0
	}
	return 100 * float64(before-after) / float64(before)
}

// Fig18 measures memory operations removed by the full optimizations.
func Fig18(ws []*workloads.Workload) ([]Fig18Row, error) {
	var rows []Fig18Row
	for _, w := range ws {
		p0, err := compileWorkload(w, opt.None, nil)
		if err != nil {
			return nil, err
		}
		p1, err := compileWorkload(w, opt.Full, nil)
		if err != nil {
			return nil, err
		}
		l0, s0 := staticMemOps(p0)
		l1, s1 := staticMemOps(p1)
		cfg := dataflow.DefaultConfig()
		r0, err := dataflow.Run(p0, w.Entry, nil, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s none: %w", w.Name, err)
		}
		r1, err := dataflow.Run(p1, w.Entry, nil, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s full: %w", w.Name, err)
		}
		if r0.Value != r1.Value {
			return nil, fmt.Errorf("%s: optimization changed the checksum (%d vs %d)", w.Name, r0.Value, r1.Value)
		}
		rows = append(rows, Fig18Row{
			Name:         w.Name,
			StaticLoads0: l0, StaticLoads1: l1,
			StaticStore0: s0, StaticStore1: s1,
			DynMem0: r0.Stats.DynLoads + r0.Stats.DynStores,
			DynMem1: r1.Stats.DynLoads + r1.Stats.DynStores,
		})
	}
	return rows, nil
}

// --- Figure 19 ---

// MemSystems returns the memory configurations of the Figure 19 sweep:
// perfect memory plus realistic systems at increasing bandwidth.
func MemSystems() []memsys.Config {
	return []memsys.Config{
		memsys.PerfectConfig(),
		memsys.PaperConfig(1),
		memsys.PaperConfig(2),
		memsys.PaperConfig(4),
	}
}

// Fig19Row is one (benchmark, level, memory system) cycle measurement.
type Fig19Row struct {
	Name    string
	Level   opt.Level
	Mem     string
	Cycles  int64
	Speedup float64 // vs unoptimized on the same memory system
}

// Fig19 sweeps optimization levels across memory systems.
func Fig19(ws []*workloads.Workload, levels []opt.Level, mems []memsys.Config) ([]Fig19Row, error) {
	var rows []Fig19Row
	for _, w := range ws {
		baseline := map[string]int64{}
		for _, level := range levels {
			p, err := compileWorkload(w, level, nil)
			if err != nil {
				return nil, err
			}
			for _, mem := range mems {
				cfg := dataflow.DefaultConfig()
				cfg.Mem = mem
				res, err := dataflow.Run(p, w.Entry, nil, cfg)
				if err != nil {
					return nil, fmt.Errorf("%s/%v/%v: %w", w.Name, level, mem, err)
				}
				key := mem.String()
				if level == opt.None {
					baseline[key] = res.Stats.Cycles
				}
				sp := 0.0
				if b := baseline[key]; b > 0 {
					sp = float64(b) / float64(res.Stats.Cycles)
				}
				rows = append(rows, Fig19Row{
					Name: w.Name, Level: level, Mem: key,
					Cycles: res.Stats.Cycles, Speedup: sp,
				})
			}
		}
	}
	return rows, nil
}

// --- Section 7.3 ablations ---

// AblationRow measures the effect of disabling one pass from Full.
type AblationRow struct {
	Name    string
	Without string
	Cycles  int64
	FullCyc int64
	// SlowdownPct > 0 means the disabled pass was profitable.
	SlowdownPct float64
}

// ablationConfigs lists the per-pass knockouts of the paper's study.
func ablationConfigs() []struct {
	name string
	tune func(*opt.Options)
} {
	return []struct {
		name string
		tune func(*opt.Options)
	}{
		{"readonly(6.1)", func(o *opt.Options) { o.ReadOnlyLoops = false }},
		{"monotone(6.2)", func(o *opt.Options) { o.MonotoneLoops = false }},
		{"decouple(6.3)", func(o *opt.Options) { o.LoopDecouple = false }},
		{"tokenremove(4.3)", func(o *opt.Options) { o.TokenRemoval = false }},
		{"redundancy(5.x)", func(o *opt.Options) {
			o.MemMerge = false
			o.StoreBeforeStore = false
			o.LoadAfterStore = false
			o.LICM = false
		}},
	}
}

// Ablation disables one optimization at a time from Full and reports the
// cycle impact on the given workloads.
func Ablation(ws []*workloads.Workload) ([]AblationRow, error) {
	var rows []AblationRow
	cfg := dataflow.DefaultConfig()
	for _, w := range ws {
		pFull, err := compileWorkload(w, opt.Full, nil)
		if err != nil {
			return nil, err
		}
		full, err := dataflow.Run(pFull, w.Entry, nil, cfg)
		if err != nil {
			return nil, err
		}
		for _, ab := range ablationConfigs() {
			o := opt.LevelOptions(opt.Full)
			ab.tune(&o)
			p, err := compileWorkload(w, opt.Full, &o)
			if err != nil {
				return nil, err
			}
			res, err := dataflow.Run(p, w.Entry, nil, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s without %s: %w", w.Name, ab.name, err)
			}
			rows = append(rows, AblationRow{
				Name:    w.Name,
				Without: ab.name,
				Cycles:  res.Stats.Cycles,
				FullCyc: full.Stats.Cycles,
				SlowdownPct: 100 * (float64(res.Stats.Cycles) -
					float64(full.Stats.Cycles)) / float64(full.Stats.Cycles),
			})
		}
	}
	return rows, nil
}

// DecouplingApplicability counts token generators inserted across the
// suite (the paper: applicable in only 28 loops over all programs).
func DecouplingApplicability(ws []*workloads.Workload) (int, error) {
	count := 0
	for _, w := range ws {
		p, err := compileWorkload(w, opt.Full, nil)
		if err != nil {
			return 0, err
		}
		for _, g := range p.Funcs {
			for _, n := range g.Nodes {
				if !n.Dead && n.Kind == pegasus.KTokenGen {
					count++
				}
			}
		}
	}
	return count, nil
}

// --- ASH hardware cost (ASPLOS'04 resource evaluation) ---

// AreaRow records a workload's estimated circuit resources.
type AreaRow struct {
	Name     string
	AreaNone int64
	AreaFull int64
	MemPorts int
	MaxDepth int
}

// Area estimates each workload's synthesized-circuit cost at None and
// Full optimization (the ASPLOS'04 ASH evaluation's area angle).
func Area(ws []*workloads.Workload) ([]AreaRow, error) {
	var rows []AreaRow
	for _, w := range ws {
		p0, err := compileWorkload(w, opt.None, nil)
		if err != nil {
			return nil, err
		}
		p1, err := compileWorkload(w, opt.Full, nil)
		if err != nil {
			return nil, err
		}
		row := AreaRow{Name: w.Name}
		for _, r := range hw.EstimateProgram(p0) {
			row.AreaNone += r.Area
		}
		for _, r := range hw.EstimateProgram(p1) {
			row.AreaFull += r.Area
			row.MemPorts += r.MemPorts
			if r.MaxDepth > row.MaxDepth {
				row.MaxDepth = r.MaxDepth
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// --- Section 7.2: IR size stability ---

// IRSizeRow records the live node count of a workload's graphs under one
// pass configuration. The paper's static measurement: "independent of
// which memory optimizations were turned on or off, the size of the IR
// never varied by more than 3%".
type IRSizeRow struct {
	Name   string
	Config string
	Nodes  int
}

// IRSize measures Pegasus graph sizes across pass configurations: the
// memory optimizations individually toggled off from Full.
func IRSize(ws []*workloads.Workload) ([]IRSizeRow, error) {
	configs := []struct {
		name string
		opts opt.Options
	}{
		{"full", opt.LevelOptions(opt.Full)},
		{"no-tokenremove", knockout(func(o *opt.Options) { o.TokenRemoval = false })},
		{"no-redundancy", knockout(func(o *opt.Options) {
			o.MemMerge = false
			o.StoreBeforeStore = false
			o.LoadAfterStore = false
		})},
		{"no-pipelining", knockout(func(o *opt.Options) {
			o.ReadOnlyLoops = false
			o.MonotoneLoops = false
			o.LoopDecouple = false
		})},
		{"no-licm", knockout(func(o *opt.Options) { o.LICM = false })},
	}
	var rows []IRSizeRow
	for _, w := range ws {
		for _, c := range configs {
			o := c.opts
			p, err := compileWorkload(w, opt.Full, &o)
			if err != nil {
				return nil, err
			}
			nodes := 0
			for _, g := range p.Funcs {
				nodes += g.NumLive()
			}
			rows = append(rows, IRSizeRow{Name: w.Name, Config: c.name, Nodes: nodes})
		}
	}
	return rows, nil
}

func knockout(tune func(*opt.Options)) opt.Options {
	o := opt.LevelOptions(opt.Full)
	tune(&o)
	return o
}

// IRSizeSpread returns, per workload, the maximum relative deviation of
// IR size across configurations (the paper's ≤3% claim).
func IRSizeSpread(rows []IRSizeRow) map[string]float64 {
	minMax := map[string][2]int{}
	for _, r := range rows {
		mm, ok := minMax[r.Name]
		if !ok {
			mm = [2]int{r.Nodes, r.Nodes}
		}
		if r.Nodes < mm[0] {
			mm[0] = r.Nodes
		}
		if r.Nodes > mm[1] {
			mm[1] = r.Nodes
		}
		minMax[r.Name] = mm
	}
	out := map[string]float64{}
	for name, mm := range minMax {
		out[name] = 100 * float64(mm[1]-mm[0]) / float64(mm[1])
	}
	return out
}

// --- Spatial vs sequential (ASPLOS'04 headline) ---

// SpatialRow compares dataflow execution against the in-order baseline.
type SpatialRow struct {
	Name      string
	Spatial   int64
	Seq       int64
	Speedup   float64
	DynLoads  int64
	DynStores int64
}

// SpatialVsSeq runs each workload on both execution models.
func SpatialVsSeq(ws []*workloads.Workload, level opt.Level) ([]SpatialRow, error) {
	var rows []SpatialRow
	for _, w := range ws {
		p, err := compileWorkload(w, level, nil)
		if err != nil {
			return nil, err
		}
		df, err := dataflow.Run(p, w.Entry, nil, dataflow.DefaultConfig())
		if err != nil {
			return nil, err
		}
		it := interp.New(p, memsys.PerfectConfig())
		seq, err := it.Run(w.Entry, nil)
		if err != nil {
			return nil, err
		}
		if df.Value != seq.Value {
			return nil, fmt.Errorf("%s: spatial/sequential results differ (%d vs %d)", w.Name, df.Value, seq.Value)
		}
		rows = append(rows, SpatialRow{
			Name: w.Name, Spatial: df.Stats.Cycles, Seq: seq.SeqCycles,
			Speedup:  float64(seq.SeqCycles) / float64(df.Stats.Cycles),
			DynLoads: df.Stats.DynLoads, DynStores: df.Stats.DynStores,
		})
	}
	return rows, nil
}
