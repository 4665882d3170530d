package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// side summarizes one set of runs of one metric.
type side struct {
	med, q1, q3 float64
	n           int
}

// spread is the interquartile distance as a share of the median.
func (s side) spread() float64 {
	if s.med == 0 {
		return 0
	}
	return (s.q3 - s.q1) / math.Abs(s.med)
}

func summarize(xs []float64) side {
	if len(xs) < 2 {
		return side{med: median(xs), q1: missing, q3: missing, n: len(xs)}
	}
	q1, q3 := quartiles(xs)
	return side{med: median(xs), q1: q1, q3: q3, n: len(xs)}
}

// verdict compares set b against set a for a metric with the given bound
// and direction. change is b's median against a's, positive when worse.
// The sets are "unresolved" when either one's spread exceeds the bound,
// otherwise "worse" or "better" when the change exceeds it, else "agree".
func verdict(a, b side, bound float64, higherBetter bool) (change float64, status string) {
	if a.n < 2 || b.n < 2 {
		return missing, "unresolved"
	}
	change = (b.med - a.med) / math.Abs(a.med)
	if a.med == b.med {
		change = 0
	}
	if higherBetter {
		change = -change
	}
	switch {
	case a.spread() > bound || b.spread() > bound:
		return change, "unresolved"
	case change > bound:
		return change, "worse"
	case change < -bound:
		return change, "better"
	}
	return change, "agree"
}

// readResults reads the result lines of one workload's runs: each line is
// the JSON object a run printed last. A run with a failed operation makes
// the whole set an error: its timings are not comparable.
func readResults(path string) ([]map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []map[string]float64
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r struct {
			Correct           bool `json:"correct"`
			Attempted, Failed int
			Metrics           map[string]struct {
				Value *float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Correct || r.Failed > 0 {
			return nil, fmt.Errorf("%s:%d: run failed %d of %d operations", path, line, r.Failed, r.Attempted)
		}
		run := make(map[string]float64, len(r.Metrics))
		for name, v := range r.Metrics {
			run[name] = missing
			if v.Value != nil {
				run[name] = *v.Value
			}
		}
		runs = append(runs, run)
	}
	return runs, sc.Err()
}

// compareSets reports, for every end-to-end metric on every workload, the
// median and quartiles of each result set and whether set B agrees with
// set A within the metric's bound. It returns true when every pair
// agrees or B is better.
func compareSets(w io.Writer, specPath, dirA, dirB string) (bool, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	ok := true
	fmt.Fprintf(w, "%-19s %-17s %5s %12s %12s %12s %7s %12s %12s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "n", "A q1", "A median", "A q3", "A iqr%", "B q1", "B median", "B q3", "B iqr%", "change%", "bound%", "verdict")
	for _, wl := range spec.Workloads {
		a, err := readResults(filepath.Join(dirA, wl.Name+".jsonl"))
		if err != nil {
			return false, err
		}
		b, err := readResults(filepath.Join(dirB, wl.Name+".jsonl"))
		if err != nil {
			return false, err
		}
		for _, m := range spec.EndToEnd {
			sa, sb := summarize(values(a, m.Name)), summarize(values(b, m.Name))
			change, status := verdict(sa, sb, m.Bound, m.Better == "higher")
			if status != "agree" && status != "better" {
				ok = false
			}
			fmt.Fprintf(w, "%-19s %-17s %2d/%-2d %12.6g %12.6g %12.6g %7.2f %12.6g %12.6g %12.6g %7.2f %8.2f %6.1f  %s\n",
				wl.Name, m.Name, sa.n, sb.n, sa.q1, sa.med, sa.q3, 100*sa.spread(), sb.q1, sb.med, sb.q3, 100*sb.spread(),
				100*change, 100*m.Bound, status)
		}
	}
	return ok, nil
}

// values collects one metric across runs, skipping runs that lack it.
func values(runs []map[string]float64, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r[name]; ok && !math.IsNaN(v) {
			xs = append(xs, v)
		}
	}
	return xs
}
