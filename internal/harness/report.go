package harness

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"spatial/internal/opt"
)

// --- Table 1: implementation size per optimization ---

// Table1Row is one optimization's implementation size.
type Table1Row struct {
	Optimization string
	LOC          int
}

// table1Map assigns the functions implementing each optimization to the
// paper's Table 1 rows.
var table1Map = []struct {
	label string
	file  string
	funcs []string // empty = whole file
}{
	{"Useless dependence removal", "tokens.go", []string{"tokenRemoval", "addTokenAlongside"}},
	{"Immutable loads", "../build/eval.go", []string{"load"}},
	{"Dead-code elimination (incl. memory op)", "", []string{}}, // filled below
	{"Load-after-load and store-after-store removal", "memopt.go", []string{"memMerge", "mergeLoads", "mergeStores", "sameTokenInputs", "sameAddress"}},
	{"Redundant load and store removal (PRE)", "memopt.go", []string{"loadAfterStore", "storeBeforeStore", "replaceValueUsesExcept"}},
	{"Transitive reduction of token edges", "tokens.go", []string{"transitiveReduction"}},
	{"Loop-invariant code discovery (scalar and memory)", "licm.go", nil},
	{"Loop decoupling+monotone loops", "pipeline.go", nil},
}

// Table1 counts the Go source lines implementing each optimization
// described in the paper (the analogue of the paper's C++ LOC table). It
// parses this repository's own sources; dir may be empty to locate them
// via the build path.
func Table1(dir string) ([]Table1Row, error) {
	if dir == "" {
		_, self, _, ok := runtime.Caller(0)
		if !ok {
			return nil, fmt.Errorf("harness: cannot locate source directory")
		}
		dir = filepath.Join(filepath.Dir(self), "..", "opt")
	}
	rows := []Table1Row{}
	for _, entry := range table1Map {
		var loc int
		var err error
		switch entry.label {
		case "Dead-code elimination (incl. memory op)":
			a, err1 := funcLOC(filepath.Join(dir, "scalar.go"), []string{"deadCode", "spliceTokens"})
			b, err2 := funcLOC(filepath.Join(dir, "tokens.go"), []string{"deadMemOps"})
			if err1 != nil {
				err = err1
			} else if err2 != nil {
				err = err2
			}
			loc = a + b
		default:
			loc, err = funcLOC(filepath.Join(dir, entry.file), entry.funcs)
		}
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{Optimization: entry.label, LOC: loc})
	}
	return rows, nil
}

// funcLOC counts source lines of the named functions in a Go file (all
// declarations when names is nil).
func funcLOC(path string, names []string) (int, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return 0, fmt.Errorf("harness: %w", err)
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	loc := 0
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if names != nil && !want[fd.Name.Name] {
			continue
		}
		start := fset.Position(fd.Pos()).Line
		end := fset.Position(fd.End()).Line
		loc += end - start + 1
	}
	return loc, nil
}

// --- code size per package ---

// PackageLOCRow is the non-test Go size of one package.
type PackageLOCRow struct {
	// Package is the package directory relative to the module root ("."
	// for the root package).
	Package string
	// Lines counts physical lines, as wc -l does.
	Lines int
	// FuncLines counts the lines inside function declarations (funcLOC).
	FuncLines int
}

// PackageLOC measures the non-test Go source of every package in the
// module rooted at root (empty locates this repository via the build
// path). Like the go tool, it skips testdata and directories whose names
// start with "." or "_"; it also skips directories holding their own
// go.mod, which belong to another module. Rows are sorted by package.
func PackageLOC(root string) ([]PackageLOCRow, error) {
	if root == "" {
		_, self, _, ok := runtime.Caller(0)
		if !ok {
			return nil, fmt.Errorf("harness: cannot locate source directory")
		}
		root = filepath.Join(filepath.Dir(self), "..", "..")
	}
	byPkg := map[string]*PackageLOCRow{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		funcs, err := funcLOC(path, nil)
		if err != nil {
			return err
		}
		pkg, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg = filepath.ToSlash(pkg)
		row := byPkg[pkg]
		if row == nil {
			row = &PackageLOCRow{Package: pkg}
			byPkg[pkg] = row
		}
		row.Lines += bytes.Count(data, []byte("\n"))
		row.FuncLines += funcs
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	rows := make([]PackageLOCRow, 0, len(byPkg))
	for _, r := range byPkg {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Package < rows[j].Package })
	return rows, nil
}

// FormatPackageLOC renders the per-package size table with its total.
func FormatPackageLOC(rows []PackageLOCRow) string {
	var sb strings.Builder
	sb.WriteString("Non-test Go lines per package\n")
	fmt.Fprintf(&sb, "%-28s %7s %7s\n", "Package", "Lines", "Funcs")
	lines, funcs := 0, 0
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-28s %7d %7d\n", r.Package, r.Lines, r.FuncLines)
		lines += r.Lines
		funcs += r.FuncLines
	}
	fmt.Fprintf(&sb, "%-28s %7d %7d\n", "Total", lines, funcs)
	return sb.String()
}

// --- text rendering ---

// FormatTable1 renders Table 1.
func FormatTable1(rows []Table1Row) string {
	var sb strings.Builder
	sb.WriteString("Table 1: Go LOC implementing each optimization\n")
	fmt.Fprintf(&sb, "%-52s %6s\n", "Optimization", "LOC")
	total := 0
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-52s %6d\n", r.Optimization, r.LOC)
		total += r.LOC
	}
	fmt.Fprintf(&sb, "%-52s %6d\n", "Total", total)
	return sb.String()
}

// FormatTable2 renders Table 2.
func FormatTable2(rows []Table2Row) string {
	var sb strings.Builder
	sb.WriteString("Table 2: compiled program statistics\n")
	fmt.Fprintf(&sb, "%-14s %6s %6s %6s %8s %10s\n", "Benchmark", "Funcs", "Lines", "Cover%", "Pragmas", "DynOps")
	tf, tl, tp := 0, 0, 0
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %6d %6d %6.0f %8d %10d\n",
			r.Name, r.Funcs, r.Lines, r.Coverage, r.Pragmas, r.DynOps)
		tf += r.Funcs
		tl += r.Lines
		tp += r.Pragmas
	}
	fmt.Fprintf(&sb, "%-14s %6d %6d %6s %8d\n", "Total", tf, tl, "", tp)
	return sb.String()
}

// FormatFig18 renders the Figure 18 measurements.
func FormatFig18(rows []Fig18Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 18: memory operations removed by optimization (none → full)\n")
	fmt.Fprintf(&sb, "%-14s %16s %16s %20s\n", "Benchmark", "static loads", "static stores", "dynamic mem ops")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %5d→%-4d %4.1f%% %5d→%-4d %4.1f%% %8d→%-8d %5.1f%%\n",
			r.Name,
			r.StaticLoads0, r.StaticLoads1, r.LoadsRemovedPct(),
			r.StaticStore0, r.StaticStore1, r.StoresRemovedPct(),
			r.DynMem0, r.DynMem1, r.DynRemovedPct())
	}
	return sb.String()
}

// FormatFig19 renders the Figure 19 sweep grouped by benchmark.
func FormatFig19(rows []Fig19Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 19: cycles and speedup by optimization level and memory system\n")
	byName := map[string][]Fig19Row{}
	var names []string
	for _, r := range rows {
		if len(byName[r.Name]) == 0 {
			names = append(names, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	for _, name := range names {
		fmt.Fprintf(&sb, "%s:\n", name)
		fmt.Fprintf(&sb, "  %-8s %-20s %12s %9s\n", "level", "memory", "cycles", "speedup")
		for _, r := range byName[name] {
			fmt.Fprintf(&sb, "  %-8s %-20s %12d %8.2fx\n", r.Level, r.Mem, r.Cycles, r.Speedup)
		}
	}
	return sb.String()
}

// FormatArea renders the circuit-resource table.
func FormatArea(rows []AreaRow) string {
	var sb strings.Builder
	sb.WriteString("Hardware cost estimate (gate equivalents)\n")
	fmt.Fprintf(&sb, "%-14s %12s %12s %9s %8s %6s\n", "Benchmark", "area(none)", "area(full)", "saved", "memports", "depth")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %12d %12d %8.1f%% %8d %6d\n",
			r.Name, r.AreaNone, r.AreaFull,
			100*float64(r.AreaNone-r.AreaFull)/float64(r.AreaNone),
			r.MemPorts, r.MaxDepth)
	}
	return sb.String()
}

// FormatIRSize renders the Section 7.2 IR-size stability measurement.
func FormatIRSize(rows []IRSizeRow) string {
	var sb strings.Builder
	sb.WriteString("Section 7.2: IR size across optimization configurations\n")
	fmt.Fprintf(&sb, "%-14s %-16s %8s\n", "Benchmark", "config", "nodes")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %-16s %8d\n", r.Name, r.Config, r.Nodes)
	}
	spread := IRSizeSpread(rows)
	var names []string
	for n := range spread {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "%-14s max spread %.1f%%\n", n, spread[n])
	}
	return sb.String()
}

// FormatAblation renders the knockout study, sorted by impact.
func FormatAblation(rows []AblationRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation: cycles when one optimization is disabled from full\n")
	fmt.Fprintf(&sb, "%-14s %-18s %12s %12s %10s\n", "Benchmark", "without", "cycles", "full", "slowdown")
	sorted := append([]AblationRow(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].SlowdownPct > sorted[j].SlowdownPct })
	for _, r := range sorted {
		fmt.Fprintf(&sb, "%-14s %-18s %12d %12d %9.1f%%\n",
			r.Name, r.Without, r.Cycles, r.FullCyc, r.SlowdownPct)
	}
	return sb.String()
}

// FormatSpatial renders the spatial-vs-sequential comparison.
func FormatSpatial(rows []SpatialRow, level opt.Level) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Spatial computation vs sequential execution (level %v)\n", level)
	fmt.Fprintf(&sb, "%-14s %12s %12s %9s %9s %9s\n", "Benchmark", "spatial", "sequential", "speedup", "dynLoads", "dynStores")
	var geo float64 = 1
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %12d %12d %8.2fx %9d %9d\n",
			r.Name, r.Spatial, r.Seq, r.Speedup, r.DynLoads, r.DynStores)
		geo *= r.Speedup
	}
	if len(rows) > 0 {
		fmt.Fprintf(&sb, "%-14s %35.2fx (geometric mean)\n", "",
			math.Pow(geo, 1/float64(len(rows))))
	}
	return sb.String()
}
