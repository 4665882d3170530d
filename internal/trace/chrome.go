package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace-event export (the "JSON Array Format" understood by
// about://tracing and Perfetto). Cycles map to microseconds: one track
// (thread) per hyperblock within one process per function, plus one
// track per memory port under a dedicated "memory" process.

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

const memPid = 1 // process 1 is the memory system; functions start at 2

// WriteChrome writes the trace in Chrome trace-event JSON.
func (tr *Trace) WriteChrome(w io.Writer) error {
	cw := &chromeWriter{w: w}
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	// Stable pid assignment: functions sorted by name.
	pids := map[string]int{}
	var names []string
	seen := map[string]bool{}
	for _, f := range tr.Firings {
		if !seen[f.Graph] {
			seen[f.Graph] = true
			names = append(names, f.Graph)
		}
	}
	sort.Strings(names)
	for i, n := range names {
		pids[n] = memPid + 1 + i
		cw.meta("process_name", pids[n], 0, "fn "+n)
	}
	// Thread metadata per (graph, hyperblock) actually used.
	type track struct{ pid, tid int }
	tracks := map[track]bool{}
	for _, f := range tr.Firings {
		t := track{pids[f.Graph], int(f.Node.Hyper)}
		if !tracks[t] {
			tracks[t] = true
			cw.meta("thread_name", t.pid, t.tid, fmt.Sprintf("hyperblock %d", t.tid))
		}
	}
	if len(tr.Mem) > 0 {
		cw.meta("process_name", memPid, 0, "memory")
		memPorts := map[int]bool{}
		for _, e := range tr.Mem {
			if !memPorts[e.Port] {
				memPorts[e.Port] = true
				cw.meta("thread_name", memPid, e.Port, fmt.Sprintf("port %d", e.Port))
			}
		}
	}
	for _, f := range tr.Firings {
		dur := f.End - f.Start
		if dur < 1 {
			dur = 1 // zero-width slices are invisible; stretch to one cycle
		}
		cw.event(chromeEvent{
			Name: f.Node.String(), Cat: f.Node.Kind.String(), Ph: "X",
			Ts: f.Start, Dur: dur, Pid: pids[f.Graph], Tid: int(f.Node.Hyper),
			Args: map[string]any{"act": f.Act, "seq": f.Seq},
		})
	}
	for _, e := range tr.Mem {
		name := "store"
		if e.Load {
			name = "load"
		}
		name += " " + e.Level.String()
		dur := e.Done - e.Issue
		if dur < 1 {
			dur = 1
		}
		cw.event(chromeEvent{
			Name: name, Cat: "mem", Ph: "X",
			Ts: e.Issue, Dur: dur, Pid: memPid, Tid: e.Port,
			Args: map[string]any{
				"addr": e.Addr, "queue": e.Queue,
				"portWait": e.PortWait(), "tlbMiss": e.TLB,
			},
		})
	}
	if cw.err != nil {
		return cw.err
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}

type chromeWriter struct {
	w   io.Writer
	n   int
	err error
}

func (cw *chromeWriter) event(e chromeEvent) {
	if cw.err != nil {
		return
	}
	if cw.n > 0 {
		if _, cw.err = io.WriteString(cw.w, ",\n"); cw.err != nil {
			return
		}
	}
	cw.n++
	b, err := json.Marshal(e)
	if err != nil {
		cw.err = err
		return
	}
	_, cw.err = cw.w.Write(b)
}

func (cw *chromeWriter) meta(name string, pid, tid int, value string) {
	cw.event(chromeEvent{
		Name: name, Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": value},
	})
}
