package main

import (
	"encoding/json"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile for it to be
// reported; with fewer, the percentile is one or two unlucky samples.
const minBeyond = 10

// metric is one named measurement. n is the number of samples behind it
// (0 for an exact count); a metric whose value is NaN or infinite is
// reported as missing.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

func (m metric) valid() bool { return !math.IsNaN(m.value) && !math.IsInf(m.value, 0) }

// missing is the value of a metric that could not be measured.
var missing = math.NaN()

// nearestRank returns the nearest-rank p-th percentile of xs (p in
// 1..100) and how many samples lie above its rank. xs is sorted in place.
func nearestRank(xs []float64, p int) (v float64, beyond int) {
	sort.Float64s(xs)
	n := len(xs)
	rank := (p*n + 99) / 100 // ceil(p/100 * n)
	if rank < 1 {
		return missing, 0
	}
	return xs[rank-1], n - rank
}

// percentile is nearestRank, or missing when fewer than minBeyond samples
// lie above the percentile.
func percentile(xs []float64, p int) float64 {
	v, beyond := nearestRank(xs, p)
	if beyond < minBeyond {
		return missing
	}
	return v
}

// pctMetric is percentile as a metric carrying its sample count.
func pctMetric(name, unit string, xs []float64, p int) metric {
	return metric{name: name, unit: unit, value: percentile(xs, p), n: len(xs)}
}

// classPct is the geometric mean over classes of each class's p-th
// percentile, each class weighted by its share of the samples: lat[i]
// belongs to class cls[i]. A workload's operations fall into classes of
// very different cost (its programs), so a percentile of all of them
// together sits on the edge between two classes and jumps between them
// from run to run; a percentile within each class does not. Together the
// classes need minBeyond samples above their percentiles.
func classPct(name string, lat []float64, cls []int, p int) metric {
	byClass := make(map[int][]float64)
	for i, x := range lat {
		byClass[cls[i]] = append(byClass[cls[i]], x)
	}
	logSum, beyond := 0.0, 0
	for _, xs := range byClass {
		v, b := nearestRank(xs, p)
		logSum += float64(len(xs)) * math.Log(v)
		beyond += b
	}
	m := metric{name: name, unit: "ms", value: math.Exp(logSum / float64(len(lat))), n: len(lat)}
	if beyond < minBeyond {
		m.value = missing
	}
	return m
}

// median is the middle value of xs (the mean of the two middle values for
// an even count), or missing for none. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return missing
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), the
// one the benchmark's spread bound is defined with. xs is sorted in place
// and must hold at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	sort.Float64s(xs)
	ld := len(xs)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// geomean is the geometric mean of positive xs, or missing for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return missing
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// result is one workload run as printed.
type result struct {
	correct           bool
	attempted, failed int

	list     []metric
	notes    []string // validity flags, printed before the JSON line
	firstErr error
}

func (r *result) add(ms ...metric) { r.list = append(r.list, ms...) }

// MarshalJSON writes the result line: the correctness verdict, the
// operation counts, and every metric by name with its value (null when
// missing) and unit.
func (r *result) MarshalJSON() ([]byte, error) {
	type value struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	ms := make(map[string]value, len(r.list))
	for _, m := range r.list {
		v := value{Unit: m.unit}
		if m.valid() {
			x := m.value
			v.Value = &x
		}
		ms[m.name] = v
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
}
