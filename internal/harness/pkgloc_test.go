package harness

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestPackageLOC counts a small synthetic module: test files, testdata,
// hidden directories and nested modules stay out of the count.
func TestPackageLOC(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":              "module m\n",
		"a.go":                "package m\n\nfunc A() int {\n\treturn 1\n}\n",
		"a_test.go":           "package m\n\nfunc helper() {}\n",
		"pkg/b.go":            "package pkg\n\nvar V = 1\n\nfunc B() {}\n\nfunc C() {\n}\n",
		"pkg/b_test.go":       "package pkg\n",
		"pkg/testdata/x.go":   "package x\n",
		".build/y.go":         "package y\n",
		"sub/go.mod":          "module sub\n",
		"sub/c.go":            "package sub\n",
		"internal/d/notes.md": "not go\n",
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := PackageLOC(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []PackageLOCRow{
		{Package: ".", Lines: 5, FuncLines: 3},
		{Package: "pkg", Lines: 8, FuncLines: 3},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("PackageLOC = %+v, want %+v", rows, want)
	}
}

// TestPackageLOCRepository runs the count on this repository: the
// packages the table is meant to track must all be present.
func TestPackageLOCRepository(t *testing.T) {
	rows, err := PackageLOC("")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if r.Lines <= 0 || r.FuncLines > r.Lines {
			t.Errorf("%s: lines %d, func lines %d", r.Package, r.Lines, r.FuncLines)
		}
		seen[r.Package] = true
	}
	for _, p := range []string{".", "api", "internal/dataflow", "internal/codegen", "cmd/experiments"} {
		if !seen[p] {
			t.Errorf("package %s missing from %v", p, rows)
		}
	}
	if seen["bench"] {
		t.Error("bench, a separate module, was counted")
	}
}
