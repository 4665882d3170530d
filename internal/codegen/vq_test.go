package codegen

import "testing"

// TestLatchFIFO: a latch holds one value inline; only injected
// duplicates put more on a port, and those wait in the overflow tail.
// Values leave in arrival order, the tail refills the front, and a
// drained latch is reusable.
func TestLatchFIFO(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		var q vq
		for round := int64(0); round < 2; round++ {
			for i := int64(0); i < int64(n); i++ {
				q.push(100*round + i)
			}
			if q.size() != n {
				t.Fatalf("n=%d: size %d after %d pushes", n, q.size(), n)
			}
			for i := int64(0); i < int64(n); i++ {
				v, empty := q.pop()
				if want := 100*round + i; v != want {
					t.Fatalf("n=%d round %d: pop %d = %d, want %d", n, round, i, v, want)
				}
				if last := i == int64(n)-1; empty != last {
					t.Fatalf("n=%d round %d: pop %d reported empty=%v, want %v", n, round, i, empty, last)
				}
			}
			if q.size() != 0 || len(q.ovf) != 0 {
				t.Fatalf("n=%d: drained latch holds size %d, overflow %d", n, q.size(), len(q.ovf))
			}
		}
	}
}
