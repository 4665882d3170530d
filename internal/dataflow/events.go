package dataflow

import "spatial/internal/pegasus"

// This file defines the payload of the event queue (internal/evq, shared
// with the compiled VM). The queue stores each event's time and orders
// events by (time, push order), so the payload carries neither.

type evKind uint8

const (
	evDeliver evKind = iota
	evCheck
)

// event is one scheduled simulator step. A delivery names the consumer
// and its port; the producer whose edge slot the value holds is the
// port's input reference (see consume). 40 bytes (TestSharedFootprint).
type event struct {
	val int64
	// prodFire is the trace firing Seq of the producing firing (0 when
	// tracing is disabled or the value was seeded outside a firing).
	prodFire int64
	act      *activation
	node     *pegasus.Node
	// dstPort is the flat port index of the consumer slot the value lands
	// in (evDeliver only); see graphInfo.portIndex.
	dstPort int32
	kind    evKind
}
