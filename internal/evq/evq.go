// Package evq is the event queue shared by both simulation engines: the
// graph interpreter (internal/dataflow) and the compiled VM
// (internal/codegen). Events pop in (time, push order), the total order
// that makes a self-timed run deterministic, so two engines that push
// the same events in the same order pop them in the same order.
//
// The queue is a calendar ring of per-cycle FIFO buckets covering the
// 512 cycles from the current base time, plus a (time, seq) min-heap
// for events pushed further out (long memory latencies, injected
// delays). Every payload lives in one slab of slots recycled through a
// free list; a bucket is a FIFO threaded through the slots' next links,
// and a heap entry names its slot. A fresh queue therefore grows in
// O(log peak) allocations, and a warm one allocates nothing.
//
// Precondition: no push is earlier than the time of the last popped
// event (both engines only schedule at or after the current cycle).
//
// Order proof: the base time only moves forward and no push lands
// before it, so (a) each bucket holds events of one time value, in push
// order, and (b) a spilled event at time t was pushed while
// t >= base+ringLen and a ring event at t while t < base+ringLen, so the
// spilled one was pushed first. Pop therefore drains the heap at the
// base time before the base bucket, and the result is exactly
// (time, push order) without a sequence number per ring event. The heap
// orders its own events by a counter of spilled pushes.
package evq

// The ring spans ringLen cycles; pushes further out spill to the heap.
const (
	ringBits = 9
	ringLen  = 1 << ringBits
	ringMask = ringLen - 1
)

// slot holds one pending or free payload. Index 0 is never handed out,
// so a zero link means "none".
type slot[E any] struct {
	ev   E
	next int32
}

// bucket is one cycle's FIFO: head and tail slot indices (0 = empty).
type bucket struct{ head, tail int32 }

// spilled is a heap entry: the event's time, its spill sequence number,
// and the slot holding its payload.
type spilled struct {
	time, seq int64
	idx       int32
}

// Queue is a (time, push order) priority queue of payloads E. The zero
// value is an empty queue whose base time is 0.
type Queue[E any] struct {
	ring    [ringLen]bucket
	base    int64
	baseIdx int32
	// free heads the free-slot list, linked through slot.next.
	free  int32
	count int // events in ring buckets
	slots []slot[E]
	spill []spilled
	// seq numbers spilled pushes; popSeq is the number of the last event
	// popped from the heap.
	seq, popSeq int64
	spillAll    bool
}

// SpillAll routes every later push through the heap, so the sequence
// number of each popped event (Seq) is its global push index. Runs that
// report sequence numbers to an observer call it before the first push.
func (q *Queue[E]) SpillAll() { q.spillAll = true }

// Len reports the number of pending events.
func (q *Queue[E]) Len() int { return q.count + len(q.spill) }

// Seq returns the sequence number of the last event popped from the
// heap. Under SpillAll that is every event, and the number is its push
// index counted from 0.
func (q *Queue[E]) Seq() int64 { return q.popSeq }

// Push schedules an event at time t and returns its zeroed payload for
// the caller to fill in before the next queue operation. t must not be
// earlier than the time of the last popped event.
func (q *Queue[E]) Push(t int64) *E {
	idx := q.free
	if idx != 0 {
		q.free = q.slots[idx].next
		q.slots[idx].next = 0
	} else {
		idx = q.grow()
	}
	if d := t - q.base; d < ringLen && !q.spillAll {
		b := &q.ring[(q.baseIdx+int32(d))&ringMask]
		if b.head == 0 {
			b.head = idx
		} else {
			q.slots[b.tail].next = idx
		}
		b.tail = idx
		q.count++
	} else {
		q.spillPush(spilled{time: t, seq: q.seq, idx: idx})
		q.seq++
	}
	return &q.slots[idx].ev
}

// grow appends a fresh slot (reserving index 0 on first use) and
// returns its index.
func (q *Queue[E]) grow() int32 {
	if len(q.slots) == 0 {
		q.slots = append(q.slots, slot[E]{})
	}
	q.slots = append(q.slots, slot[E]{})
	return int32(len(q.slots) - 1)
}

// Pop removes and returns the earliest pending event and its time. The
// queue must not be empty.
func (q *Queue[E]) Pop() (int64, E) {
	if b := &q.ring[q.baseIdx]; b.head != 0 && len(q.spill) == 0 {
		return q.base, q.popRing(b)
	}
	return q.popSlow()
}

func (q *Queue[E]) popSlow() (int64, E) {
	for {
		if len(q.spill) > 0 && q.spill[0].time == q.base {
			s := q.spillPop()
			q.popSeq = s.seq
			return s.time, q.release(s.idx)
		}
		if b := &q.ring[q.baseIdx]; b.head != 0 {
			return q.base, q.popRing(b)
		}
		q.base++
		q.baseIdx = (q.baseIdx + 1) & ringMask
		if q.count == 0 && len(q.spill) > 0 && q.spill[0].time > q.base {
			// Ring empty: skip straight to the next spilled event.
			q.base = q.spill[0].time
		}
	}
}

// popRing removes the front event of a non-empty bucket.
func (q *Queue[E]) popRing(b *bucket) E {
	idx := b.head
	b.head = q.slots[idx].next
	q.count--
	return q.release(idx)
}

// release copies out slot idx's payload and frees the slot. The slot is
// zeroed, so a free slot keeps no pointers alive and Push hands out
// zero payloads.
func (q *Queue[E]) release(idx int32) E {
	s := &q.slots[idx]
	e := s.ev
	*s = slot[E]{next: q.free}
	q.free = idx
	return e
}

// spillPush adds e to the (time, seq) min-heap.
func (q *Queue[E]) spillPush(e spilled) {
	h := append(q.spill, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 1
		if !less(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	q.spill = h
}

// spillPop removes and returns the heap minimum.
func (q *Queue[E]) spillPop() spilled {
	h := q.spill
	e := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && less(&h[c+1], &h[c]) {
			c++
		}
		if !less(&h[c], &h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	q.spill = h
	return e
}

func less(a, b *spilled) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}
