package evq

import (
	"math/rand"
	"testing"
)

// payload carries its push index and a pointer, so the test can check
// that every event comes back intact and that recycled slots are zeroed.
type payload struct {
	id  int64
	ptr *int64
}

type pending struct{ time, id int64 }

// TestPopOrderMatchesStableSort drives the queue the way the engines do:
// pops interleaved with pushes at or after the popped time. Pushes mix
// same-cycle events made while popping, offsets just inside and just past
// the ring, and far-future events that spill. Every pop must equal the
// minimum (time, push index) of a reference list of pending events, so
// the pop order is the stable sort of the pushes by time. With SpillAll,
// the reported sequence number must be the push index as well.
func TestPopOrderMatchesStableSort(t *testing.T) {
	offsets := []int64{0, 0, 0, 1, 2, 7, ringLen - 2, ringLen - 1, ringLen, ringLen + 1, 2*ringLen - 1, 2 * ringLen}
	for seed := int64(1); seed <= 20; seed++ {
		for _, spillAll := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			var q Queue[payload]
			if spillAll {
				q.SpillAll()
			}
			var ref []pending
			var nextID int64
			push := func(at int64) {
				p := q.Push(at)
				if *p != (payload{}) {
					t.Fatalf("seed %d: Push returned a non-zero payload %+v", seed, *p)
				}
				id := nextID
				nextID++
				*p = payload{id: id, ptr: &id}
				ref = append(ref, pending{at, id})
			}
			for i := 0; i < 50; i++ {
				push(int64(rng.Intn(3 * ringLen)))
			}
			pops := 0
			for q.Len() > 0 {
				if q.Len() != len(ref) {
					t.Fatalf("seed %d: Len %d, want %d", seed, q.Len(), len(ref))
				}
				now, got := q.Pop()
				min := 0
				for i, r := range ref {
					if r.time < ref[min].time || (r.time == ref[min].time && r.id < ref[min].id) {
						min = i
					}
				}
				want := ref[min]
				ref = append(ref[:min], ref[min+1:]...)
				if now != want.time || got.id != want.id || got.ptr == nil || *got.ptr != want.id {
					t.Fatalf("seed %d spillAll %v pop %d: got (t=%d, id=%d), want (t=%d, id=%d)",
						seed, spillAll, pops, now, got.id, want.time, want.id)
				}
				if spillAll && q.Seq() != want.id {
					t.Fatalf("seed %d pop %d: Seq %d, want push index %d", seed, pops, q.Seq(), want.id)
				}
				pops++
				if nextID >= 20000 {
					continue // drain
				}
				n := rng.Intn(3)
				if q.Len() < 32 {
					n++ // keep the run going until the push budget is spent
				}
				for ; n > 0; n-- {
					switch rng.Intn(4) {
					case 0, 1:
						push(now + offsets[rng.Intn(len(offsets))])
					case 2:
						push(now + int64(rng.Intn(ringLen/4)))
					default:
						push(now + int64(ringLen*(2+rng.Intn(8))+rng.Intn(ringLen)))
					}
				}
			}
			if int64(pops) != nextID {
				t.Fatalf("seed %d: popped %d of %d events", seed, pops, nextID)
			}
		}
	}
}

// TestGrowsInFewAllocations pins the point of the slab: a fresh queue
// whose peak holds thousands of events allocates O(log peak) times, not
// once per bucket or per event.
func TestGrowsInFewAllocations(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		var q Queue[payload]
		for i := 0; i < 4096; i++ {
			q.Push(int64(i % (2 * ringLen)))
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	// 4096 slots and ~2048 spilled entries double from 1: about 13 + 12
	// growths, plus the queue itself.
	if allocs > 30 {
		t.Fatalf("fresh queue of 4096 events: %.0f allocations, want <= 30", allocs)
	}
}
