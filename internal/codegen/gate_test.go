package codegen

// The gate pin: without fault injection, every fire attempt the VM makes
// on a merge, an eta or the entry token succeeds, because their gates
// (vnode.blocked) skip every attempt that would fail. This test reads
// only the failure counts, so it cannot see a gate that skips an attempt
// that would have fired; the identity tests catch that.

import (
	"testing"
	"unsafe"

	"spatial/internal/build"
	"spatial/internal/cminor"
	"spatial/internal/dataflow"
	"spatial/internal/opt"
	"spatial/internal/workloads"
)

func TestGatedKindsNeverFail(t *testing.T) {
	var fired int64
	var failed [numOps]int64
	for _, w := range workloads.All() {
		ast, err := cminor.Parse(w.Source)
		if err == nil {
			err = cminor.Check(ast)
		}
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		p, err := build.Compile(ast)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := opt.Optimize(p, opt.LevelOptions(opt.Full)); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		mod := Compile(p)
		var m vm
		if err := mod.initVM(&m, w.Entry, nil, dataflow.DefaultConfig(), dataflow.Hooks{}); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		res, err := m.exec(mod.progs[w.Entry], nil)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		fired += res.Stats.OpsFired
		for op, n := range m.failed {
			failed[op] += n
		}
	}
	for _, op := range []opcode{opMerge, opEta, opEntry} {
		if failed[op] != 0 {
			t.Errorf("opcode %d: %d failed fire attempts over the suite, want 0", op, failed[op])
		}
	}
	t.Logf("suite at O3: %d firings; failed attempts by opcode %v", fired, failed)
}

// TestBlockedByGate pins what each gate kind proves from the counters.
// An eta with both latches filled is never blocked: with a false
// predicate it fires (and discards) even while its output edges are full.
func TestBlockedByGate(t *testing.T) {
	for _, c := range []struct {
		gate                   uint8
		missing, full, counter int32
		want                   bool
	}{
		{gateNone, 3, 1, 0, false},
		{gateAll, 0, 0, 0, false},
		{gateAll, 1, 0, 0, true},
		{gateAll, 0, 1, 0, true},
		{gateMerge, 1, 0, 2, false}, // one of two sources latched
		{gateMerge, 2, 0, 2, true},  // no source latched
		{gateMerge, 0, 1, 2, true},  // output full
		{gateEta, 0, 0, 0, false},
		{gateEta, 0, 1, 0, false}, // a false predicate still fires
		{gateEta, 1, 0, 0, true},
		{gateNever, 0, 0, 0, true},
	} {
		ns := vnode{gate: c.gate, missing: c.missing, full: c.full, counter: c.counter}
		if got := ns.blocked(); got != c.want {
			t.Errorf("gate %d missing %d full %d counter %d: blocked = %v, want %v",
				c.gate, c.missing, c.full, c.counter, got, c.want)
		}
	}
	// Two vnodes per cache line.
	if size := unsafe.Sizeof(vnode{}); size != 32 {
		t.Errorf("vnode is %d bytes, want 32", size)
	}
	// A rule keeps only what a firing reads inline; its lists live in
	// the graph's tables.
	if size := unsafe.Sizeof(rule{}); size > 128 {
		t.Errorf("rule is %d bytes, want at most 128", size)
	}
}
