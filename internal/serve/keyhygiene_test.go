package serve

import (
	"reflect"
	"testing"

	"spatial/api"
)

// TestRequestFieldInventory is the cache-key hygiene gate. The Request
// type is wire-exposed (cashd decodes into it via api.RunRequest), so a
// field silently missing from the cache key would make two semantically
// different requests share one compiled program — a wrong-answer bug,
// not a perf bug. This test forces every field addition through an
// explicit decision:
//
//   - compile-time field (affects the built circuit): add it to
//     programKey in cache.go AND to keyedFields here, with a
//     distinctness case in TestKeyNormalization;
//   - run-time field (selects what to run): add it to runtimeFields.
//
// An unlisted field fails the build of this test's expectations, which
// is the point.
func TestRequestFieldInventory(t *testing.T) {
	// Fields of Request that participate in the cache key. Program is
	// the entire compile-time half; its own fields are inventoried below.
	keyedFields := map[string]bool{
		"Program": true,
	}
	// Fields that deliberately do NOT key: they select what to run, not
	// what to build.
	runtimeFields := map[string]bool{
		"Entry":    true,
		"Args":     true,
		"Trace":    true,
		"Deadline": true,
	}
	checkInventory(t, reflect.TypeOf(Request{}), "Request", keyedFields, runtimeFields)

	// Every field of the embedded wire Program must be consumed by
	// programKey (cache.go), except the deprecated Partitions, which is
	// accepted and ignored.
	programKeyed := map[string]bool{
		"Source":  true,
		"Level":   true,
		"Passes":  true,
		"Sim":     true,
		"Backend": true,
	}
	programIgnored := map[string]bool{
		"Partitions": true,
	}
	checkInventory(t, reflect.TypeOf(api.Program{}), "api.Program", programKeyed, programIgnored)

	// The sub-configs hash via %#v of their converted internal structs,
	// so every wire field flows into the key as long as the wire→internal
	// conversion (wire.go) copies it. Pin the wire field counts: growing
	// api.SimConfig/api.MemConfig/api.Passes means extending the
	// conversion, and this count drags you here to check you did.
	for typ, want := range map[reflect.Type]int{
		reflect.TypeOf(api.SimConfig{}): 4,
		reflect.TypeOf(api.MemConfig{}): 14,
		reflect.TypeOf(api.Passes{}):    13,
	} {
		if got := typ.NumField(); got != want {
			t.Errorf("%s grew to %d fields (inventory says %d): update the wire→internal conversion in wire.go so the new field reaches programKey, then bump this count",
				typ.Name(), got, want)
		}
	}
}

func checkInventory(t *testing.T, typ reflect.Type, name string, keyed, runtime map[string]bool) {
	t.Helper()
	seen := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i).Name
		seen[f] = true
		if !keyed[f] && !runtime[f] {
			t.Errorf("%s gained field %q without a cache-key decision: if it affects the compiled circuit, add it to programKey (cache.go) and the keyed inventory; if it is run-time only, add it to the runtime inventory — see TestRequestFieldInventory",
				name, f)
		}
	}
	for f := range keyed {
		if !seen[f] {
			t.Errorf("%s lost keyed field %q; update programKey and this inventory together", name, f)
		}
	}
	for f := range runtime {
		if !seen[f] {
			t.Errorf("%s lost run-time field %q; update this inventory", name, f)
		}
	}
}
