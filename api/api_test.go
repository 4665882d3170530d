package api

import (
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// jsonFields returns the sorted set of JSON names a struct type
// marshals, flattening embedded structs the way encoding/json does.
func jsonFields(t *testing.T, typ reflect.Type) []string {
	t.Helper()
	var names []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Anonymous && f.Type.Kind() == reflect.Struct && f.Tag.Get("json") == "" {
			names = append(names, jsonFields(t, f.Type)...)
			continue
		}
		tag := f.Tag.Get("json")
		if tag == "" {
			t.Errorf("%s.%s has no json tag; every wire field must name itself explicitly", typ.Name(), f.Name)
			continue
		}
		names = append(names, strings.Split(tag, ",")[0])
	}
	sort.Strings(names)
	return names
}

// TestWireStability pins the marshaled field names of every wire type.
// These names are the frozen v1 contract: adding a field means adding it
// HERE too (a deliberate, reviewed act); renaming or removing one breaks
// deployed clients and must fail this test.
func TestWireStability(t *testing.T) {
	want := map[reflect.Type][]string{
		reflect.TypeOf(Program{}): {"backend", "level", "partitions", "passes", "sim", "source"},
		reflect.TypeOf(RunRequest{}): {
			"args", "backend", "entry", "level", "partitions", "passes", "sim", "source", "timeout_ms", "trace",
		},
		reflect.TypeOf(BatchRequest{}): {"runs"},
		reflect.TypeOf(SimConfig{}):    {"edge_cap", "max_activations", "max_cycles", "mem"},
		reflect.TypeOf(MemConfig{}): {
			"kind", "l1_bytes", "l1_latency", "l2_bytes", "l2_latency", "line_bytes",
			"mem_latency", "page_bytes", "perfect_latency", "ports", "queue_size",
			"tlb_miss_cost", "tlb_pages", "word_gap",
		},
		reflect.TypeOf(Passes{}): {
			"const_fold", "cse", "dce", "dead_mem_ops", "licm", "load_after_store",
			"loop_decouple", "mem_merge", "monotone_loops", "read_only_loops",
			"store_before_store", "token_removal", "transitive_reduction",
		},
		reflect.TypeOf(Stats{}): {
			"calls", "cycles", "dyn_loads", "dyn_stores", "events", "null_mem", "ops_fired",
		},
		reflect.TypeOf(RunResponse{}): {
			"cache_hit", "stats", "total_ns", "trace_id", "value", "wait_ns",
		},
		reflect.TypeOf(CompileResponse{}): {"cache_hit", "key"},
		reflect.TypeOf(BatchItem{}):       {"error", "run"},
		reflect.TypeOf(BatchResponse{}):   {"results"},
		reflect.TypeOf(Error{}): {
			"class", "message", "report", "retry_after_ms", "status",
		},
	}
	for typ, fields := range want {
		got := jsonFields(t, typ)
		if !reflect.DeepEqual(got, fields) {
			t.Errorf("%s wire fields changed:\n got %v\nwant %v\n(renames/removals break the frozen v1 contract; additions must update this test)",
				typ.Name(), got, fields)
		}
	}
}

func TestStatusMapping(t *testing.T) {
	cases := []struct {
		class Class
		code  int
	}{
		{ClassBadRequest, 400},
		{ClassNotFound, 404},
		{ClassCompile, 422},
		{ClassSim, 422},
		{ClassOverload, 429},
		{ClassInternal, 500},
		{ClassClosed, 503},
		{ClassUnavailable, 503},
		{ClassDeadline, 504},
		{Class("future_class"), 500},
	}
	for _, c := range cases {
		if got := c.class.HTTPStatus(); got != c.code {
			t.Errorf("%s.HTTPStatus() = %d, want %d", c.class, got, c.code)
		}
	}
}

func TestErrorInterface(t *testing.T) {
	err := &Error{Class: ClassOverload, Message: "queue full", RetryAfterMS: 50}
	if !strings.Contains(err.Error(), "overload") || !strings.Contains(err.Error(), "queue full") {
		t.Errorf("Error() = %q, want class and message", err.Error())
	}
	if !err.Temporary() {
		t.Error("overload must be Temporary")
	}
	if (&Error{Class: ClassCompile}).Temporary() {
		t.Error("compile errors are not Temporary")
	}
	if !(&Error{Class: ClassUnavailable}).Temporary() {
		t.Error("unavailable must be Temporary: a retry may reach the daemon")
	}
}

func TestProgramKey(t *testing.T) {
	a := Program{Source: "int f(void){return 1;}", Level: LevelFull}
	b := Program{Source: "int f(void){return 1;}", Level: LevelFull}
	if a.Key() != b.Key() {
		t.Error("identical programs must share a key")
	}
	if a.Key() == (Program{Source: "int f(void){return 2;}", Level: LevelFull}).Key() {
		t.Error("different sources must differ in key")
	}
	if a.Key() == (Program{Source: a.Source, Level: LevelNone}).Key() {
		t.Error("different levels must differ in key")
	}
	if got := a.Key().String(); len(got) != 64 {
		t.Errorf("Key.String() = %q, want 64 hex chars", got)
	}
	// The key must survive a wire round-trip: decode(encode(p)) keys
	// identically, or /v1/compile would answer a key the caller cannot
	// compute from the program it sent.
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var back Program
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Key() != a.Key() {
		t.Error("key changed across a JSON round-trip")
	}
}
