package main

import (
	"math"
	"time"
)

// loopSpec bounds one measured loop.
type loopSpec struct {
	workers int // open loop only: how many goroutines, each with its own connection, send requests
	dur     time.Duration
	maxOps  int     // when positive, stop after this many operations instead of after dur
	tr      *tracer // nil: untraced
}

// samples is what a loop measured.
type samples struct {
	lat       []float64 // ms per attempted operation; failed ones are +Inf
	cls       []int     // class of each operation (see classPct)
	late      []float64 // open loop only: µs from due time to dispatch
	attempted int
	failed    int
	firstErr  error
}

// add records one operation. A failed operation counts as missing every
// latency limit, so it enters the latency samples as +Inf.
func (s *samples) add(cls int, lat time.Duration, err error) {
	s.attempted++
	s.cls = append(s.cls, cls)
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
		s.lat = append(s.lat, math.Inf(1))
		return
	}
	s.lat = append(s.lat, float64(lat)/1e6)
}

func (s *samples) merge(o *samples) {
	s.lat = append(s.lat, o.lat...)
	s.cls = append(s.cls, o.cls...)
	s.late = append(s.late, o.late...)
	s.attempted += o.attempted
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// op is one closed-loop operation: it checks its own output (a wrong one
// is an error) and records its layer calls in sc.
type op struct {
	name string
	do   func(sc scope) error
}

// closedLoop issues ops in order, repeating the list, from one goroutine:
// each operation starts when the previous one returns. A second issuer
// would compete with the first and with the collector for the host's
// CPUs. *next is the index of the next operation; it carries over from
// one loop to the next, so a run split into loops still takes the
// programs in turn. Each op is its own latency class.
func closedLoop(ops []op, l loopSpec, next *int64) *samples {
	s := &samples{}
	deadline := time.Now().Add(l.dur)
	for n := 0; ; n++ {
		if l.maxOps > 0 && n >= l.maxOps || l.maxOps <= 0 && !time.Now().Before(deadline) {
			return s
		}
		k := *next
		*next++
		cls := int(k % int64(len(ops)))
		o := ops[cls]
		sc := scope{tr: l.tr, round: k}
		if l.tr != nil {
			sc.parent = l.tr.newID()
		}
		t0 := time.Now()
		err := o.do(sc)
		t1 := time.Now()
		if l.tr != nil {
			l.tr.record(span{id: sc.parent, name: "op", tag: o.name,
				start: l.tr.since(t0), end: l.tr.since(t1), round: k})
		}
		s.add(cls, t1.Sub(t0), err)
	}
}
