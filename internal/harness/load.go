package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"spatial/api"
)

// LoadRow is one point on cashd's offered-load curve: an open-loop
// generator fires requests at a fixed rate regardless of completions
// (the honest way to find a service's knee — a closed loop self-throttles
// and hides it), and records what came back.
type LoadRow struct {
	RateRPS  int // offered request rate
	Offered  int // requests actually fired
	OK       int // 200 responses
	Shed     int // 429 responses (admission queue full)
	Errors   int // transport failures and other statuses
	CacheHit int // OK responses served from the compile cache

	P50NS int64 // median OK latency
	P99NS int64 // 99th percentile OK latency
}

// ShedRate is the fraction of offered requests shed.
func (r LoadRow) ShedRate() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Offered)
}

// LoadCurve drives a running cashd at each offered rate for dur and
// returns one row per rate. The request mix alternates over programs so
// the cache, not a single hot entry, is what is measured; every request
// body is identical per program (maximum cache effectiveness — the load
// curve measures the service, not the compiler).
func LoadCurve(baseURL string, rates []int, dur time.Duration, programs []api.RunRequest) ([]LoadRow, error) {
	if len(programs) == 0 {
		return nil, fmt.Errorf("load: no programs")
	}
	bodies := make([][]byte, len(programs))
	for i, p := range programs {
		b, err := json.Marshal(p)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	url := strings.TrimSuffix(baseURL, "/") + "/" + api.Version + "/run"
	client := &http.Client{}
	rows := make([]LoadRow, 0, len(rates))
	for _, rate := range rates {
		row, err := loadOne(client, url, rate, dur, bodies)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// loadOne runs a single open-loop point: a ticker fires at the offered
// interval, each tick launching one request on its own goroutine.
func loadOne(client *http.Client, url string, rate int, dur time.Duration, bodies [][]byte) (LoadRow, error) {
	if rate <= 0 {
		return LoadRow{}, fmt.Errorf("load: rate %d", rate)
	}
	row := LoadRow{RateRPS: rate}
	interval := time.Second / time.Duration(rate)

	var (
		mu        sync.Mutex
		latencies []time.Duration
		wg        sync.WaitGroup
	)
	fire := func(i int) {
		defer wg.Done()
		start := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[i%len(bodies)]))
		elapsed := time.Since(start)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			row.Errors++
			return
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			var rr api.RunResponse
			if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
				row.Errors++
				return
			}
			row.OK++
			if rr.CacheHit {
				row.CacheHit++
			}
			latencies = append(latencies, elapsed)
		case http.StatusTooManyRequests:
			io.Copy(io.Discard, resp.Body)
			row.Shed++
		default:
			io.Copy(io.Discard, resp.Body)
			row.Errors++
		}
	}

	ticker := time.NewTicker(interval)
	stop := time.After(dur)
	i := 0
loop:
	for {
		select {
		case <-ticker.C:
			wg.Add(1)
			row.Offered++
			go fire(i)
			i++
		case <-stop:
			break loop
		}
	}
	ticker.Stop()
	wg.Wait()

	if len(latencies) > 0 {
		sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
		row.P50NS = latencies[len(latencies)*50/100].Nanoseconds()
		p99 := len(latencies) * 99 / 100
		if p99 >= len(latencies) {
			p99 = len(latencies) - 1
		}
		row.P99NS = latencies[p99].Nanoseconds()
	}
	return row, nil
}

// FormatLoad renders the load curve as the experiments table.
func FormatLoad(rows []LoadRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cashd offered-load curve (open loop)\n")
	fmt.Fprintf(&b, "  %8s %8s %8s %6s %6s %9s %10s %10s\n",
		"rate", "offered", "ok", "shed", "err", "hit-rate", "p50", "p99")
	for _, r := range rows {
		hitRate := 0.0
		if r.OK > 0 {
			hitRate = float64(r.CacheHit) / float64(r.OK)
		}
		fmt.Fprintf(&b, "  %7d/s %8d %8d %6d %6d %8.1f%% %10s %10s\n",
			r.RateRPS, r.Offered, r.OK, r.Shed, r.Errors, 100*hitRate,
			time.Duration(r.P50NS).Round(time.Microsecond),
			time.Duration(r.P99NS).Round(time.Microsecond))
	}
	return b.String()
}
