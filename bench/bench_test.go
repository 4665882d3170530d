package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"spatial/internal/core"
	"spatial/internal/opt"
	"spatial/internal/workloads"
)

// tinyOps is one round of each closed-loop workload, or about 50 requests.
var tinyOps = map[string]int{"compile": 52, "sim-vm": 22, "sim-interp-realmem": 22, "serve-hit": 50, "serve-miss": 50}

// specUnits reads the metric names and units BENCHMARK.json declares.
func specUnits(t *testing.T, section string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[section], &ms); err != nil {
		t.Fatal(err)
	}
	units := make(map[string]string)
	for _, m := range ms {
		units[m.Name] = m.Unit
	}
	return units
}

// lastResult runs ws through runAll and decodes the last line printed.
func lastResult(t *testing.T, ws []workload, o options) (code int, res struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]struct {
		Value *float64
		Unit  string
	}
}) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = runAll(ws, o, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v (stderr: %s)", lines[len(lines)-1], err, errOut.String())
	}
	return code, res
}

func TestWorkloadsTiny(t *testing.T) {
	for _, traced := range []bool{false, true} {
		section := "end_to_end"
		if traced {
			section = "per_layer"
		}
		units := specUnits(t, section)
		for _, w := range allWorkloads {
			t.Run(section+"/"+w.name, func(t *testing.T) {
				t.Parallel()
				o := options{workload: w.name, seed: 1, seconds: 60, workers: 1, ops: tinyOps[w.name], trace: traced}
				if traced {
					// The probe's pass over every program is most of a
					// traced run; its loops need only a few operations.
					o.ops = 4
					o.spans = filepath.Join(t.TempDir(), "spans.json")
				}
				code, res := lastResult(t, []workload{w}, o)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < o.ops {
					t.Fatalf("exit %d, correct %t, %d of %d failed", code, res.Correct, res.Failed, res.Attempted)
				}
				for name, unit := range units {
					if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("metric %s: got %+v, want unit %q", name, m, unit)
					}
				}
				if len(res.Metrics) != len(units) {
					t.Errorf("%d metrics printed, BENCHMARK.json declares %d", len(res.Metrics), len(units))
				}
				if traced {
					raw, err := os.ReadFile(o.spans)
					if err != nil {
						t.Fatal(err)
					}
					var trace struct {
						TraceEvents []struct{ Name, Ph string } `json:"traceEvents"`
					}
					if err := json.Unmarshal(raw, &trace); err != nil || len(trace.TraceEvents) == 0 {
						t.Fatalf("spans file: %v, %d events", err, len(trace.TraceEvents))
					}
				}
			})
		}
	}
}

// TestCorruptedReferenceFails checks that an output differing from its
// reference counts as a failure and makes the run exit non-zero.
func TestCorruptedReferenceFails(t *testing.T) {
	w := workloads.ByName("mesa")
	cp, err := core.CompileSource(w.Source, core.WithLevel(opt.Full), core.WithBackend(core.BackendCompiled))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cp.Run(entry, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := *ref
	bad.Stats.Cycles++
	corruptSim := workload{name: "sim-vm", setup: func(options) (*state, error) {
		return &state{ops: []op{runOp("mesa/O3", cp, &bad, core.BackendCompiled)}, simCycles: 1}, nil
	}}
	corruptServe := workload{name: "serve-hit", setup: func(o options) (*state, error) {
		st, err := setupServe(o, false)
		if err == nil {
			for i := range st.serve.progs {
				st.serve.progs[i].oracle++
			}
		}
		return st, err
	}}
	// An operation that fails without a wrong answer (an engine error, a
	// non-200 response) fails the run just the same.
	erring := workload{name: "sim-vm", setup: func(options) (*state, error) {
		fail := op{name: "error", do: func(scope) error { return errors.New("livelock") }}
		return &state{ops: []op{fail}, simCycles: 1}, nil
	}}
	for _, w := range []workload{corruptSim, corruptServe, erring} {
		o := options{workload: w.name, seed: 1, seconds: 60, workers: 1, ops: 20}
		code, res := lastResult(t, []workload{w}, o)
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s: exit %d, correct %t, %d of %d failed; want a non-zero exit and failures",
				w.name, code, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestCompareRefusesFailedRuns checks that a result set holding a run
// with a failed operation is an error, not a set of timings.
func TestCompareRefusesFailedRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sim-vm.jsonl")
	lines := `{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":1,"unit":"s"}}}
{"correct":false,"attempted":10,"failed":1,"metrics":{"setup_s":{"value":1,"unit":"s"}}}
`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readResults(path); err == nil || !strings.Contains(err.Error(), ":2:") {
		t.Fatalf("readResults: %v, want an error naming line 2", err)
	}
}

// TestClosedLoopCarriesOrder checks that a run split into loops takes the
// operations in turn across the loops, not from the first one each time.
func TestClosedLoopCarriesOrder(t *testing.T) {
	ops := make([]op, 3)
	for i := range ops {
		ops[i] = op{name: "op", do: func(scope) error { return nil }}
	}
	var next int64
	var got []int
	for range 2 {
		got = append(got, closedLoop(ops, loopSpec{maxOps: 2}, &next).cls...)
	}
	if want := []int{0, 1, 2, 0}; !slices.Equal(got, want) {
		t.Errorf("classes %v, want %v", got, want)
	}
}

// TestHostScale checks that timings scale by the reference kernel time
// over the run's median kernel time.
func TestHostScale(t *testing.T) {
	hc := hostClock{ms: []float64{3 * calibRefMS, calibRefMS / 2, 2 * calibRefMS}}
	if got := hc.scale(); got != 0.5 {
		t.Errorf("scale %v, want 0.5", got)
	}
	if hc.ms[0] != 3*calibRefMS {
		t.Errorf("scale reordered the kernel times: %v", hc.ms)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	cases := []struct {
		n, p int
		want float64 // NaN: missing
	}{
		{100, 50, 50},
		{100, 90, 90},         // exactly 10 samples beyond
		{100, 99, math.NaN()}, // 1 beyond
		{1000, 99, 990},       // 10 beyond
		{20, 50, 10},          // 10 beyond
		{19, 50, math.NaN()},  // 9 beyond
		{0, 50, math.NaN()},   // no samples
		{11, 1, 1},            // rank 1
		{1001, 99, 991},       // ceil(990.99)
	}
	for _, c := range cases {
		got := percentile(seq(c.n), c.p)
		if got != c.want && !(math.IsNaN(got) && math.IsNaN(c.want)) {
			t.Errorf("p%d of 1..%d = %v, want %v", c.p, c.n, got, c.want)
		}
	}
}

func TestClassPctWeightsClassesByShare(t *testing.T) {
	var lat []float64
	var cls []int
	for i := 0; i < 100; i++ {
		c, x := 0, 1.0 // 90 samples of 1 ms
		if i%10 == 0 {
			c, x = 1, 10.0 // 10 samples of 10 ms
		}
		lat, cls = append(lat, x), append(cls, c)
	}
	want := math.Pow(10, 0.1) // exp(0.9 ln 1 + 0.1 ln 10)
	if got := classPct("", lat, cls, 50).value; math.Abs(got-want) > 1e-12 {
		t.Errorf("classPct = %v, want %v", got, want)
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{id: 1, start: 0, end: 100 * ms},
		{id: 2, parent: 1, start: 10 * ms, end: 30 * ms},
		{id: 3, parent: 1, start: 20 * ms, end: 50 * ms},  // overlaps span 2
		{id: 4, parent: 1, start: 90 * ms, end: 120 * ms}, // runs past its parent
		{id: 5, parent: 2, start: 15 * ms, end: 25 * ms},  // nested in span 2
		{id: 6, start: 200 * ms, end: 210 * ms},
	}
	want := map[int]time.Duration{
		1: 100*ms - 40*ms - 10*ms, // children cover [10,50) and [90,100)
		2: 10 * ms,
		3: 30 * ms,
		4: 30 * ms,
		5: 10 * ms,
		6: 10 * ms,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %v, want %v", id, got[id], w)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 4}, 1, 5},
	}
	for _, c := range cases {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	tight := func(med float64) side { return side{med: med, q1: med * 0.99, q3: med * 1.01, n: 10} }
	cases := []struct {
		name         string
		a, b         side
		bound        float64
		higherBetter bool
		want         string
	}{
		{"within bound", tight(100), tight(104), 0.05, false, "agree"},
		{"slower", tight(100), tight(110), 0.05, false, "worse"},
		{"faster", tight(100), tight(90), 0.05, false, "better"},
		{"higher is better", tight(100), tight(90), 0.05, true, "worse"},
		{"too noisy", side{med: 100, q1: 80, q3: 120, n: 10}, tight(100), 0.05, false, "unresolved"},
		{"exact and equal", side{med: 7, q1: 7, q3: 7, n: 5}, side{med: 7, q1: 7, q3: 7, n: 5}, 0, false, "agree"},
		{"exact and larger", side{med: 7, q1: 7, q3: 7, n: 5}, side{med: 8, q1: 8, q3: 8, n: 5}, 0, false, "worse"},
		{"one run", side{med: 7, n: 1}, tight(7), 0.05, false, "unresolved"},
	}
	for _, c := range cases {
		if _, got := verdict(c.a, c.b, c.bound, c.higherBetter); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
