package core

import (
	"errors"
	"testing"

	"spatial/internal/workloads"
)

// FuzzCompileSource feeds arbitrary source text to the front end, the
// builder and the optimizer: every input up to 4 KiB must either compile
// or fail with ErrCompile. ErrInternal (a recovered panic) fails the
// target. Run it with
//
//	go test -fuzz=FuzzCompileSource -fuzztime=30s -run '^$' ./internal/core
func FuzzCompileSource(f *testing.F) {
	for _, w := range workloads.All() {
		f.Add(w.Source)
	}
	for _, src := range badInitSources {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4<<10 {
			t.Skip()
		}
		if _, err := CompileSource(src); err != nil && !errors.Is(err, ErrCompile) {
			t.Fatalf("%q: %v", src, err)
		}
	})
}
