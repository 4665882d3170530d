package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, made by the benchmark itself.
// Spans of one operation share round; parent is the id of the span that
// caused this one (0 for a root).
type span struct {
	id, parent int
	name       string
	tag        string // the program, or the operation's kind
	start, end time.Duration
	round      int64
	tid        int // issuing goroutine
	synthetic  bool
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced operations pay one nil check per layer call.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.epoch) }

func (t *tracer) newID() int { return int(t.ids.Add(1)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// scope is where an operation records its layer calls: the tracer, the
// span they fall under, and the operation and goroutine issuing them.
type scope struct {
	tr     *tracer
	parent int
	round  int64
	tid    int
}

// now is the start time to pass to end; untraced scopes skip the clock.
func (s scope) now() time.Duration {
	if s.tr == nil {
		return 0
	}
	return time.Since(s.tr.epoch)
}

// end records the span name(tag) from start to now and returns its
// duration (0 when untraced).
func (s scope) end(name, tag string, start time.Duration) time.Duration {
	if s.tr == nil {
		return 0
	}
	end := time.Since(s.tr.epoch)
	s.tr.record(span{id: s.tr.newID(), parent: s.parent, name: name, tag: tag,
		start: start, end: end, round: s.round, tid: s.tid})
	return end - start
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Overlapping children cover their union once,
// and children are clipped to the parent.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.id] = s.end - s.start - covered(s, kids[s.id])
	}
	return self
}

// covered is the length of the union of kids' intervals within p's.
func covered(p span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, p.start), min(k.end, p.end)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, reach time.Duration
	reach = p.start
	for _, v := range ivs {
		if v.hi <= reach {
			continue
		}
		total += v.hi - max(v.lo, reach)
		reach = v.hi
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microseconds), loadable in chrome://tracing and Perfetto.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"id": s.id, "parent": s.parent, "round": s.round, "tag": s.tag}
		if s.synthetic {
			args["synthetic"] = true
		}
		evs[i] = event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.tid, Args: args}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
