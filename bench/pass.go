package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"spatial/internal/serve"
)

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupRepeats = 5

// Service validity limits: a run whose generator fell behind its
// schedule, or whose tail latency exceeds the service's limit, is flagged.
const (
	maxLateUS      = 1000
	latencyLimitMS = 25
)

// runWorkload sets w up and runs the pass o selects. An untraced pass
// sets up setupRepeats times and times the host kernel after each set-up
// (see host.go).
func runWorkload(w workload, o options) (*result, error) {
	n := setupRepeats
	if o.trace {
		n = 1
	}
	var st *state
	var hc hostClock
	setupS := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		t0 := time.Now()
		s, err := w.setup(o)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		st = s
		if !o.trace {
			hc.burst()
		}
	}
	defer st.close()
	if o.trace {
		return tracedPass(st, o)
	}
	return untracedPass(st, o, setupS, &hc), nil
}

// newResult sums the loops' operation counts. The workloads are chosen so
// that no operation fails, so any failure, a wrong answer or an error,
// makes the run incorrect.
func newResult(ss ...*samples) *result {
	r := &result{}
	for _, s := range ss {
		r.attempted += s.attempted
		r.failed += s.failed
		if r.firstErr == nil {
			r.firstErr = s.firstErr
		}
	}
	r.correct = r.failed == 0
	return r
}

// untracedPass measures the end-to-end metrics. It runs the workload in
// loops of chunk, with a burst of the host kernel after each, and scales
// setup_s and latency_ms.p50 to the reference host by the kernel's
// median over the run; the raw values are printed beside them.
func untracedPass(st *state, o options, setupS []float64, hc *hostClock) *result {
	s := &samples{}
	if o.ops > 0 {
		s.merge(st.loop(loopSpec{workers: o.workers, maxOps: o.ops}))
		hc.burst()
	} else {
		n := int(math.Ceil(o.seconds / chunk.Seconds()))
		for i := 0; i < n; i++ {
			s.merge(st.loop(loopSpec{workers: o.workers, dur: o.dur() / time.Duration(n)}))
			hc.burst()
		}
	}
	res := newResult(s)
	scale := hc.scale()
	setup, lat := median(setupS), classPct("latency_ms.p50", s.lat, s.cls, 50)
	res.notes = append(res.notes,
		fmt.Sprintf("host kernel %.6g ms n=%d, scale %.6g to the reference host's %g ms", hc.kernelMS(), len(hc.ms), scale, calibRefMS),
		fmt.Sprintf("raw setup_s %.6g s, raw latency_ms.p50 %.6g ms", setup, lat.value))
	lat.value *= scale
	res.add(
		metric{name: "setup_s", unit: "s", value: setup * scale, n: len(setupS)},
		lat,
	)
	if st.serve != nil {
		// The latency limit applies to p90, which is reported here but not
		// gated: from run to run it repeats only to about 25%.
		p90 := classPct("latency_ms.p90", s.lat, s.cls, 90)
		late := percentile(s.late, 90)
		res.notes = append(res.notes, fmt.Sprintf("latency_ms.p90 %.6g ms n=%d", p90.value, p90.n),
			fmt.Sprintf("gen.late_us.p90 %.6g us n=%d", late, len(s.late)))
		if !(late <= maxLateUS) {
			res.notes = append(res.notes, fmt.Sprintf("INVALID: gen.late_us.p90 %.6g us exceeds %d us: the generator fell behind its schedule", late, maxLateUS))
		}
		if !(p90.value <= latencyLimitMS) {
			res.notes = append(res.notes, fmt.Sprintf("INVALID: latency_ms.p90 %.6g ms exceeds the %d ms latency limit", p90.value, latencyLimitMS))
		}
	}

	// Two collections: the first moves sync.Pool contents to the victim
	// cache and the second frees them, so what stays is reachable state,
	// not whatever the pools held when the loop stopped.
	s = nil
	runtime.GC()
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	res.add(
		metric{name: "retained_heap_mb", unit: "MB", value: float64(m2.HeapAlloc) / 1e6, n: 1},
		metric{name: "sim_cycles", unit: "cycles", value: float64(st.simCycles)},
	)
	runtime.KeepAlive(st)
	return res
}

// traceChunks is how many untraced and traced loops a traced pass
// alternates, so drift over the run falls on both sides alike.
const traceChunks = 3

// tracedPass measures the per-layer metrics. It gives a third of the time
// to the workload untraced, a third to it traced (spans around every
// layer call the workload makes), alternating the two in traceChunks
// chunks each, and the last third to the layer probe.
// trace_overhead_pct compares the traced and untraced median latencies.
func tracedPass(st *state, o options) (*result, error) {
	tr := newTracer()
	plain, traced := &samples{}, &samples{}
	var eng, base serve.Stats
	for i := 0; i < traceChunks; i++ {
		l := loopSpec{workers: o.workers, dur: o.dur() / (3 * traceChunks), maxOps: o.ops}
		plain.merge(st.loop(l))
		if st.serve != nil {
			st.serve.statsDelta(&base)
		}
		l.tr = tr
		traced.merge(st.loop(l))
		if st.serve != nil {
			addStats(&eng, st.serve.statsDelta(&base))
		}
	}
	pr, err := runProbe(tr, st.progs, o.dur()/3, o.ops > 0)
	if err != nil {
		return nil, err
	}
	addStats(&eng, pr.engine)

	res := newResult(plain, traced, &pr.samples)
	res.add(layerMetrics(tr, pr, eng)...)
	overhead := 100 * (classPct("", traced.lat, traced.cls, 50).value/classPct("", plain.lat, plain.cls, 50).value - 1)
	res.add(metric{name: "trace_overhead_pct", unit: "%", value: overhead, n: len(traced.lat)})
	if o.spans != "" {
		if err := tr.writeChrome(o.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}
