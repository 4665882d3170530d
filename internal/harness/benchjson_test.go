package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestMergeBenchJSONKeepsSections: a bench write replaces rows and
// parallel but keeps the load and chaos sections already on disk, and a
// section the report no longer has (partitioned) is dropped.
func TestMergeBenchJSONKeepsSections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	old := `{"go_version":"go0","cpus":1,"bench_time":"1s",
	  "rows":[{"workload":"old","level":0,"value":1,"cycles":1,"events":1,"runs":1,"ns_per_run":1,"ns_per_event":1,"allocs_per_event":0,"sim_cycles_per_sec":1}],
	  "partitioned":[{"workload":"old","partitions":2}],
	  "load":[{"rate_rps":25,"offered":50,"ok":50,"shed":0,"errors":0,"cache_hit":46,"p50_ns":1,"p99_ns":2}],
	  "chaos":[{"schedule":"peer-kill","seed":1,"requests":24,"ok":24}]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := &BenchReport{
		GoVersion: "go1", CPUs: 2, BenchTime: "200ms",
		Rows:     []BenchRow{{Workload: "new", Runs: 3}},
		Parallel: []ParallelRow{{Workload: "new", Workers: 2}},
	}
	if err := MergeBenchJSON(path, fresh); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got BenchReport
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.GoVersion != "go1" || got.CPUs != 2 || got.BenchTime != "200ms" {
		t.Errorf("header = %s/%d/%s, want the fresh run's go1/2/200ms", got.GoVersion, got.CPUs, got.BenchTime)
	}
	if !reflect.DeepEqual(got.Rows, fresh.Rows) || !reflect.DeepEqual(got.Parallel, fresh.Parallel) {
		t.Errorf("rows/parallel not replaced: %+v %+v", got.Rows, got.Parallel)
	}
	if len(got.Load) != 1 || got.Load[0].RateRPS != 25 || got.Load[0].CacheHit != 46 {
		t.Errorf("load section lost: %+v", got.Load)
	}
	if len(got.Chaos) != 1 || got.Chaos[0].Schedule != "peer-kill" {
		t.Errorf("chaos section lost: %+v", got.Chaos)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["partitioned"]; ok {
		t.Error("removed partitioned section survived the rewrite")
	}

	// A chaos-only write replaces chaos and leaves everything else.
	if err := MergeBenchJSON(path, &BenchReport{Chaos: []ChaosRow{{Schedule: "corrupt"}}}); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(path)
	got = BenchReport{}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Chaos) != 1 || got.Chaos[0].Schedule != "corrupt" {
		t.Errorf("chaos not replaced: %+v", got.Chaos)
	}
	if got.GoVersion != "go1" || len(got.Rows) != 1 || len(got.Load) != 1 || len(got.Parallel) != 1 {
		t.Errorf("chaos write disturbed other sections: %+v", got)
	}
}

// TestMergeBenchJSONRejectsGarbage: an unreadable report is an error,
// never silently overwritten.
func TestMergeBenchJSONRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := MergeBenchJSON(path, &BenchReport{Chaos: []ChaosRow{{Schedule: "x"}}}); err == nil {
		t.Fatal("garbage report overwritten without error")
	}
	if data, _ := os.ReadFile(path); string(data) != "{not json" {
		t.Errorf("garbage report modified: %q", data)
	}
}
