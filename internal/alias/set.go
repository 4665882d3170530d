// Package alias computes the memory abstractions CASH's token network is
// built from (paper Section 3.3): abstract memory objects, a
// flow-insensitive Andersen-style points-to analysis, per-access
// read/write sets, the partition of objects into location classes (each
// class gets its own merge/eta token circuit, Section 6), and the
// connection analysis that applies `#pragma independent` annotations
// (Section 7.1).
package alias

import (
	"fmt"
	"math/bits"
	"strings"
)

// ObjID identifies an abstract memory object.
type ObjID int32

// Set is a bit set of ObjIDs.
type Set struct {
	words []uint64
}

// NewSet returns an empty set.
func NewSet() Set { return Set{} }

func (s *Set) ensure(i ObjID) {
	w := int(i) / 64
	for len(s.words) <= w {
		s.words = append(s.words, 0)
	}
}

// Add inserts i and reports whether the set changed.
func (s *Set) Add(i ObjID) bool {
	s.ensure(i)
	w, b := int(i)/64, uint(i)%64
	old := s.words[w]
	s.words[w] = old | 1<<b
	return old != s.words[w]
}

// Has reports membership.
func (s Set) Has(i ObjID) bool {
	w, b := int(i)/64, uint(i)%64
	return w < len(s.words) && s.words[w]&(1<<b) != 0
}

// Union adds all of o into s, reporting whether s changed.
func (s *Set) Union(o Set) bool {
	changed := false
	for w, bits := range o.words {
		if bits == 0 {
			continue
		}
		for len(s.words) <= w {
			s.words = append(s.words, 0)
		}
		old := s.words[w]
		s.words[w] = old | bits
		if s.words[w] != old {
			changed = true
		}
	}
	return changed
}

// Intersects reports whether s and o share an element.
func (s Set) Intersects(o Set) bool {
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for w := 0; w < n; w++ {
		if s.words[w]&o.words[w] != 0 {
			return true
		}
	}
	return false
}

// Empty reports whether the set has no elements.
func (s Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of elements.
func (s Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// First returns the smallest member, or false when the set is empty.
func (s Set) First() (ObjID, bool) {
	for wi, w := range s.words {
		if w != 0 {
			return ObjID(wi*64 + bits.TrailingZeros64(w)), true
		}
	}
	return 0, false
}

// Each calls f on every member in increasing order, without allocating.
func (s Set) Each(f func(ObjID)) {
	for wi, w := range s.words {
		for w != 0 {
			f(ObjID(wi*64 + bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// Elems returns the members in increasing order.
func (s Set) Elems() []ObjID {
	var out []ObjID
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, ObjID(wi*64+b))
			w &= w - 1
		}
	}
	return out
}

// Clone returns an independent copy.
func (s Set) Clone() Set {
	c := Set{words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Equal reports set equality.
func (s Set) Equal(o Set) bool {
	n := len(s.words)
	if len(o.words) > n {
		n = len(o.words)
	}
	get := func(ws []uint64, i int) uint64 {
		if i < len(ws) {
			return ws[i]
		}
		return 0
	}
	for i := 0; i < n; i++ {
		if get(s.words, i) != get(o.words, i) {
			return false
		}
	}
	return true
}

// String renders the set for diagnostics.
func (s Set) String() string {
	var parts []string
	for _, e := range s.Elems() {
		parts = append(parts, fmt.Sprintf("o%d", e))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// SetOf builds a set from elements.
func SetOf(ids ...ObjID) Set {
	var s Set
	for _, id := range ids {
		s.Add(id)
	}
	return s
}
