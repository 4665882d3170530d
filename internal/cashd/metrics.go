package cashd

import (
	"fmt"
	"io"
	"maps"
	"math"
	"sort"
	"sync"
	"time"

	"spatial/internal/serve"
)

// metrics is the daemon's instrumentation: request counters by endpoint
// and status, plus latency histograms for compile and run work. The
// export format is the Prometheus text exposition (version 0.0.4), which
// needs no dependency — it is lines of `name{labels} value`. One mutex
// guards all of it; an update is a few adds, nothing next to a run.
type metrics struct {
	mu           sync.Mutex
	requests     map[reqKey]uint64
	compile, run histogram
}

type reqKey struct {
	endpoint string
	status   int
}

func newMetrics() *metrics {
	return &metrics{requests: make(map[reqKey]uint64)}
}

func (m *metrics) countRequest(endpoint string, status int) {
	m.mu.Lock()
	m.requests[reqKey{endpoint, status}]++
	m.mu.Unlock()
}

// histogram is a fixed exponential-bucket latency histogram: bucket i
// holds observations below minBucket·2^i seconds, spanning ~100µs to
// ~100s in 21 buckets. Quantiles are read back by linear interpolation
// within the winning bucket — coarse, but honest to a factor of 2.
type histogram struct {
	counts [histBuckets]uint64
	sum    float64 // seconds
	total  uint64
}

const (
	histBuckets   = 21
	histMinBucket = 100e-6 // seconds; upper bound of bucket 0
)

func histUpper(i int) float64 {
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	return histMinBucket * math.Pow(2, float64(i))
}

// observe records one latency in h, which is m.compile or m.run.
func (m *metrics) observe(h *histogram, d time.Duration) {
	seconds := d.Seconds()
	i := 0
	for i < histBuckets-1 && seconds >= histUpper(i) {
		i++
	}
	m.mu.Lock()
	h.counts[i]++
	h.sum += seconds
	h.total++
	m.mu.Unlock()
}

// quantile returns the q-quantile (0..1) in seconds, interpolated
// within the selected bucket. Zero observations → 0.
func (h *histogram) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := q * float64(h.total)
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		next := cum + h.counts[i]
		if float64(next) >= rank {
			lo := 0.0
			if i > 0 {
				lo = histUpper(i - 1)
			}
			hi := histUpper(i)
			if math.IsInf(hi, 1) {
				return lo
			}
			// Interpolate by position within the bucket's population.
			frac := 0.5
			if h.counts[i] > 0 {
				frac = (rank - float64(cum)) / float64(h.counts[i])
			}
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return histUpper(histBuckets - 2)
}

// write renders the full exposition: daemon counters, engine counters,
// and latency histograms with derived quantile gauges.
func (m *metrics) write(w io.Writer, s serve.Stats, traces int) {
	m.mu.Lock()
	reqs := maps.Clone(m.requests)
	compile, run := m.compile, m.run
	m.mu.Unlock()

	fmt.Fprintln(w, "# HELP cashd_requests_total HTTP requests served, by endpoint and status.")
	fmt.Fprintln(w, "# TYPE cashd_requests_total counter")
	keys := make([]reqKey, 0, len(reqs))
	for k := range reqs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].status < keys[j].status
	})
	for _, k := range keys {
		fmt.Fprintf(w, "cashd_requests_total{endpoint=%q,status=\"%d\"} %d\n", k.endpoint, k.status, reqs[k])
	}

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("cashd_runs_completed_total", "Simulation runs finished successfully.", s.Completed)
	counter("cashd_runs_failed_total", "Requests that ended in a compile or run error.", s.Failed)
	counter("cashd_runs_shed_total", "Requests shed with 429 by the admission queue.", s.Rejected)
	counter("cashd_runs_canceled_total", "Requests abandoned by their caller while queued.", s.Canceled)
	counter("cashd_cache_hits_total", "Compile cache lookups served by a ready entry.", s.CacheHits)
	counter("cashd_cache_shared_total", "Compile cache lookups that joined an in-flight compile.", s.CacheShared)
	counter("cashd_cache_misses_total", "Compile cache lookups that had to compile.", s.CacheMisses)
	counter("cashd_cache_evictions_total", "Compile cache entries evicted by the LRU bound.", s.CacheEvictions)
	gauge("cashd_cache_hit_rate", "Hits+shared over all lookups (0 when no lookups).", s.HitRate())
	gauge("cashd_cache_entries", "Compiled programs currently resident.", float64(s.CacheEntries))
	gauge("cashd_queue_depth", "Requests waiting for a worker right now.", float64(s.QueueLen))
	gauge("cashd_queue_capacity", "Admission queue bound.", float64(s.QueueCap))
	shedRate := 0.0
	if denom := s.Completed + s.Failed + s.Rejected; denom > 0 {
		shedRate = float64(s.Rejected) / float64(denom)
	}
	gauge("cashd_shed_rate", "Rejected over all finished requests.", shedRate)
	gauge("cashd_traces_resident", "Recorded traces held for download.", float64(traces))

	writeHist(w, "cashd_compile_duration_seconds", "Compile endpoint latency, including queue wait (cache misses only; run-path compiles land in run duration).", &compile)
	writeHist(w, "cashd_run_duration_seconds", "Run latency (request residence, including queue wait).", &run)
}

func writeHist(w io.Writer, name, help string, h *histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i]
		le := "+Inf"
		if u := histUpper(i); !math.IsInf(u, 1) {
			le = fmt.Sprintf("%g", u)
		}
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
	}
	fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.total)
	fmt.Fprintf(w, "# HELP %s_p50 Median %s (interpolated).\n# TYPE %s_p50 gauge\n%s_p50 %g\n",
		name, name, name, name, h.quantile(0.50))
	fmt.Fprintf(w, "# HELP %s_p99 99th percentile %s (interpolated).\n# TYPE %s_p99 gauge\n%s_p99 %g\n",
		name, name, name, name, h.quantile(0.99))
}
