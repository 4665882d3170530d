package alias

import (
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	var s Set
	if !s.Empty() || s.Len() != 0 {
		t.Error("zero set should be empty")
	}
	if !s.Add(5) {
		t.Error("Add(5) should change the set")
	}
	if s.Add(5) {
		t.Error("second Add(5) should not change the set")
	}
	if !s.Has(5) || s.Has(4) {
		t.Error("membership wrong")
	}
	s.Add(130) // forces growth across words
	if !s.Has(130) || s.Len() != 2 {
		t.Errorf("after Add(130): len=%d", s.Len())
	}
	elems := s.Elems()
	if len(elems) != 2 || elems[0] != 5 || elems[1] != 130 {
		t.Errorf("elems = %v", elems)
	}
}

func TestSetUnionIntersects(t *testing.T) {
	a := SetOf(1, 2, 3)
	b := SetOf(3, 4)
	c := SetOf(70, 80)
	if !a.Intersects(b) {
		t.Error("a and b share 3")
	}
	if a.Intersects(c) {
		t.Error("a and c are disjoint")
	}
	u := a.Clone()
	if !u.Union(b) {
		t.Error("union should change a")
	}
	if u.Union(b) {
		t.Error("second union should not change")
	}
	if u.Len() != 4 {
		t.Errorf("union len = %d", u.Len())
	}
}

func TestSetEqualAcrossWidths(t *testing.T) {
	a := SetOf(1)
	b := SetOf(1)
	b.Add(200)
	// shrink b logically: they are unequal
	if a.Equal(b) {
		t.Error("unequal sets compare equal")
	}
	var c Set
	c.Add(200) // allocate words
	d := SetOf(1)
	if c.Equal(d) {
		t.Error("sets with different word counts compared wrongly")
	}
	e := SetOf(3)
	var f Set
	f.ensure(200) // long zero tail
	f.Add(3)
	if !e.Equal(f) {
		t.Error("trailing zero words should not affect equality")
	}
}

// Property: Union is idempotent, commutative, and monotone in Len.
func TestSetUnionProperties(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		var a, b Set
		for _, x := range xs {
			a.Add(ObjID(x))
		}
		for _, y := range ys {
			b.Add(ObjID(y))
		}
		ab := a.Clone()
		ab.Union(b)
		ba := b.Clone()
		ba.Union(a)
		if !ab.Equal(ba) {
			return false
		}
		if ab.Len() < a.Len() || ab.Len() < b.Len() {
			return false
		}
		again := ab.Clone()
		if again.Union(b) {
			return false // must be idempotent
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Intersects agrees with element-wise check.
func TestSetIntersectsProperty(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		var a, b Set
		m := map[uint8]bool{}
		for _, x := range xs {
			a.Add(ObjID(x))
			m[x] = true
		}
		want := false
		for _, y := range ys {
			b.Add(ObjID(y))
			if m[y] {
				want = true
			}
		}
		return a.Intersects(b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: First and Each agree with Elems (the smallest member, every
// member in increasing order) and allocate nothing.
func TestSetFirstEachProperty(t *testing.T) {
	f := func(xs []uint8) bool {
		var s Set
		for _, x := range xs {
			s.Add(ObjID(x) * 3) // spans several words
		}
		elems := s.Elems()
		first, ok := s.First()
		if ok != (len(elems) > 0) || ok && first != elems[0] {
			return false
		}
		var seen []ObjID
		s.Each(func(o ObjID) { seen = append(seen, o) })
		if len(seen) != len(elems) {
			return false
		}
		for i := range seen {
			if seen[i] != elems[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	s := SetOf(5, 70, 700)
	sum := ObjID(0)
	if n := testing.AllocsPerRun(10, func() {
		first, _ := s.First()
		sum = first
		s.Each(func(o ObjID) { sum += o })
	}); n != 0 {
		t.Errorf("First and Each: %.0f allocations, want 0", n)
	}
	if sum != 780 {
		t.Errorf("First+Each sum = %d, want 780", sum)
	}
}
