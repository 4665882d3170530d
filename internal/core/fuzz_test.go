package core

import (
	"errors"
	"sort"
	"testing"

	"spatial/internal/opt"
	"spatial/internal/workloads"
)

// FuzzCompileSource feeds arbitrary source text to the front end, the
// builder and the optimizer at opt.Full: every input up to 4 KiB must
// either compile or fail with ErrCompile. ErrInternal (a recovered panic)
// fails the target. An accepted input is compiled a second time, and
// every function's dump must be identical: the compiler is deterministic.
// Run it with
//
//	go test -fuzz=FuzzCompileSource -fuzztime=30s -run '^$' ./internal/core
func FuzzCompileSource(f *testing.F) {
	for _, w := range workloads.All() {
		f.Add(w.Source)
	}
	for _, src := range append(badInitSources, badLayoutSources...) {
		f.Add(src)
	}
	// The token pass's worst shape (ROADMAP item 3), 2.7 KB.
	f.Add(repeatedAccess(100))
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4<<10 {
			t.Skip()
		}
		first, err := CompileSource(src, WithLevel(opt.Full))
		if err != nil {
			if !errors.Is(err, ErrCompile) {
				t.Fatalf("%q: %v", src, err)
			}
			return
		}
		second, err := CompileSource(src, WithLevel(opt.Full))
		if err != nil {
			t.Fatalf("%q: second compile: %v", src, err)
		}
		if a, b := dumps(t, first), dumps(t, second); a != b {
			t.Fatalf("%q: two compiles dumped differently:\n%s\n---\n%s", src, a, b)
		}
	})
}

// dumps concatenates the dumps of every function of cp, by name.
func dumps(t *testing.T, cp *Compiled) string {
	t.Helper()
	var names []string
	for name := range cp.Program.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	var out string
	for _, name := range names {
		d, err := cp.Dump(name)
		if err != nil {
			t.Fatal(err)
		}
		out += name + "\n" + d
	}
	return out
}
