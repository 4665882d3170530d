package affine

import (
	"testing"

	"spatial/internal/cminor"
	"spatial/internal/pegasus"
)

// mini builds a one-hyperblock graph with helper constructors.
type mini struct {
	g *pegasus.Graph
}

func newMini() *mini {
	g := pegasus.NewGraph(nil)
	g.NewHyper(false)
	return &mini{g: g}
}

func (m *mini) konst(v int64) *pegasus.Node {
	n := m.g.NewNode(pegasus.KConst, 0)
	n.VT = pegasus.I32
	n.ConstVal = v
	return n
}

func (m *mini) param(i int) *pegasus.Node {
	n := m.g.NewNode(pegasus.KParam, 0)
	n.VT = pegasus.I32
	n.ParamIdx = i
	return n
}

func (m *mini) bin(op cminor.BinOpKind, a, b *pegasus.Node) *pegasus.Node {
	n := m.g.NewNode(pegasus.KBinOp, 0)
	n.BinOp = op
	n.VT = pegasus.I32
	n.Ins = []pegasus.Ref{pegasus.V(a), pegasus.V(b)}
	return n
}

// coeff returns the coefficient of atom n in e (0 when n is not a term).
func coeff(e Expr, n *pegasus.Node) int64 {
	for _, t := range e.Terms {
		if t.Atom == n {
			return t.Coeff
		}
	}
	return 0
}

func (m *mini) neg(a *pegasus.Node) *pegasus.Node {
	n := m.g.NewNode(pegasus.KUnOp, 0)
	n.UnOp = pegasus.UNeg
	n.VT = pegasus.I32
	n.Ins = []pegasus.Ref{pegasus.V(a)}
	return n
}

func TestDecomposeConstant(t *testing.T) {
	m := newMini()
	e := Decompose(m.konst(42))
	if v, ok := e.IsConst(); !ok || v != 42 {
		t.Errorf("const = %v, %v", v, ok)
	}
}

func TestDecomposeLinear(t *testing.T) {
	m := newMini()
	p := m.param(0)
	// p*4 + 12
	e := Decompose(m.bin(cminor.OpAdd, m.bin(cminor.OpMul, p, m.konst(4)), m.konst(12)))
	if !e.OK || e.Const != 12 || coeff(e, p) != 4 {
		t.Errorf("expr = %+v", e)
	}
}

func TestDecomposeShiftAsScale(t *testing.T) {
	m := newMini()
	p := m.param(0)
	e := Decompose(m.bin(cminor.OpShl, p, m.konst(3)))
	if coeff(e, p) != 8 {
		t.Errorf("p<<3 coefficient = %d, want 8", coeff(e, p))
	}
}

func TestDecomposeSubAndNeg(t *testing.T) {
	m := newMini()
	p, q := m.param(0), m.param(1)
	// (p - q) + (-p) = -q
	e := Decompose(m.bin(cminor.OpAdd, m.bin(cminor.OpSub, p, q), m.neg(p)))
	if coeff(e, p) != 0 || coeff(e, q) != -1 {
		t.Errorf("expr = %+v", e)
	}
	if len(e.Terms) != 1 {
		t.Error("cancelled term should be removed")
	}
}

func TestDecomposeTermsSorted(t *testing.T) {
	m := newMini()
	p, q, r := m.param(0), m.param(1), m.param(2)
	// 3r + q*2 - p: terms come out in atom-ID order whatever the
	// expression's shape.
	e := Decompose(m.bin(cminor.OpSub,
		m.bin(cminor.OpAdd, m.bin(cminor.OpMul, m.konst(3), r), m.bin(cminor.OpMul, q, m.konst(2))), p))
	want := []Term{{p, -1}, {q, 2}, {r, 3}}
	if !e.OK || len(e.Terms) != len(want) {
		t.Fatalf("expr = %+v", e)
	}
	for i := range want {
		if e.Terms[i] != want[i] {
			t.Errorf("term %d = %+v, want %+v", i, e.Terms[i], want[i])
		}
	}
}

func TestDecomposeOpaque(t *testing.T) {
	m := newMini()
	p, q := m.param(0), m.param(1)
	mul := m.bin(cminor.OpMul, p, q) // non-affine
	e := Decompose(mul)
	if coeff(e, mul) != 1 || len(e.Terms) != 1 {
		t.Errorf("p*q should be an atom: %+v", e)
	}
}

func TestDistinct(t *testing.T) {
	m := newMini()
	base := m.param(0)
	i4 := m.bin(cminor.OpMul, m.param(1), m.konst(4))
	addr1 := m.bin(cminor.OpAdd, base, i4)          // base + 4i
	addr2 := m.bin(cminor.OpAdd, addr1, m.konst(4)) // base + 4i + 4
	addr3 := m.bin(cminor.OpAdd, addr1, m.konst(2)) // overlaps a 4-byte access
	a1, a2, a3 := Decompose(addr1), Decompose(addr2), Decompose(addr3)
	if !Distinct(a1, a2, 4, 4) {
		t.Error("a[i] vs a[i+1] should be distinct")
	}
	if Distinct(a1, a3, 4, 4) {
		t.Error("offset 2 with 4-byte accesses overlaps")
	}
	if Distinct(a1, a1, 4, 4) {
		t.Error("same address is not distinct")
	}
	// Different bases: symbolic difference non-constant.
	other := m.param(2)
	if Distinct(a1, Decompose(other), 4, 4) {
		t.Error("different symbolic bases cannot be proven distinct")
	}
}

func TestDistinctByteAccesses(t *testing.T) {
	m := newMini()
	p := m.param(0)
	a1 := Decompose(p)
	a2 := Decompose(m.bin(cminor.OpAdd, p, m.konst(1)))
	if !Distinct(a1, a2, 1, 1) {
		t.Error("adjacent byte accesses are distinct")
	}
	if Distinct(a1, a2, 4, 4) {
		t.Error("adjacent word accesses overlap")
	}
}

// loopGraph builds a loop hyperblock with an induction merge i += step.
func loopGraph(step int64) (*pegasus.Graph, *pegasus.Node) {
	g := pegasus.NewGraph(nil)
	g.NewHyper(false) // hyper 0: entry
	g.NewHyper(true)  // hyper 1: loop
	init := g.NewNode(pegasus.KConst, 0)
	init.VT = pegasus.I32
	pred0 := g.ConstPred(0, true)
	entryEta := g.NewNode(pegasus.KEta, 0)
	entryEta.VT = pegasus.I32
	entryEta.Ins = []pegasus.Ref{pegasus.V(init)}
	entryEta.Preds = []pegasus.Ref{pegasus.V(pred0)}

	m := g.NewNode(pegasus.KMerge, 1)
	m.VT = pegasus.I32
	stepC := g.NewNode(pegasus.KConst, 1)
	stepC.VT = pegasus.I32
	stepC.ConstVal = step
	next := g.NewNode(pegasus.KBinOp, 1)
	next.BinOp = cminor.OpAdd
	next.VT = pegasus.I32
	next.Ins = []pegasus.Ref{pegasus.V(m), pegasus.V(stepC)}
	loopPred := g.ConstPred(1, true)
	backEta := g.NewNode(pegasus.KEta, 1)
	backEta.VT = pegasus.I32
	backEta.Ins = []pegasus.Ref{pegasus.V(next)}
	backEta.Preds = []pegasus.Ref{pegasus.V(loopPred)}
	m.Ins = []pegasus.Ref{pegasus.V(entryEta), pegasus.V(backEta)}
	return g, m
}

func TestFindInductions(t *testing.T) {
	g, m := loopGraph(1)
	inds := FindInductions(g, 1, g.NodesInHyper(1))
	iv, ok := inds[m]
	if !ok {
		t.Fatal("induction merge not found")
	}
	if iv.Step != 1 {
		t.Errorf("step = %d, want 1", iv.Step)
	}
	// Non-loop hyperblock yields nothing.
	if len(FindInductions(g, 0, g.NodesInHyper(0))) != 0 {
		t.Error("inductions found in non-loop hyperblock")
	}
}

func TestFindInductionsNegativeStep(t *testing.T) {
	g, m := loopGraph(-1)
	inds := FindInductions(g, 1, g.NodesInHyper(1))
	if iv := inds[m]; iv == nil || iv.Step != -1 {
		t.Fatalf("descending induction not detected: %+v", inds[m])
	}
}

func TestMonotone(t *testing.T) {
	g, m := loopGraph(1)
	inds := FindInductions(g, 1, g.NodesInHyper(1))
	inv := func(n *pegasus.Node) bool { return n.Kind == pegasus.KConst || n.Kind == pegasus.KParam }
	// addr = base + 4*i: moves 4 bytes/iter, 4-byte access → monotone.
	base := g.NewNode(pegasus.KParam, 1)
	base.VT = pegasus.I32
	four := g.NewNode(pegasus.KConst, 1)
	four.VT = pegasus.I32
	four.ConstVal = 4
	i4 := g.NewNode(pegasus.KBinOp, 1)
	i4.BinOp = cminor.OpMul
	i4.VT = pegasus.I32
	i4.Ins = []pegasus.Ref{pegasus.V(m), pegasus.V(four)}
	addr := g.NewNode(pegasus.KBinOp, 1)
	addr.BinOp = cminor.OpAdd
	addr.VT = pegasus.I32
	addr.Ins = []pegasus.Ref{pegasus.V(base), pegasus.V(i4)}
	e := Decompose(addr)
	if !Monotone(e, inds, inv, 4) {
		t.Error("base + 4i should be monotone for 4-byte accesses")
	}
	if Monotone(e, inds, inv, 8) {
		t.Error("4-byte stride with 8-byte accesses overlaps")
	}
	// i alone (stride 1) with 4-byte accesses overlaps.
	if Monotone(Decompose(m), inds, inv, 4) {
		t.Error("stride 1 with 4-byte accesses overlaps")
	}
	// Constant address is not monotone.
	if Monotone(Decompose(base), inds, inv, 4) {
		t.Error("invariant address is not monotone")
	}
}

func TestDistance(t *testing.T) {
	g, m := loopGraph(1)
	inds := FindInductions(g, 1, g.NodesInHyper(1))
	four := g.NewNode(pegasus.KConst, 1)
	four.VT = pegasus.I32
	four.ConstVal = 4
	i4 := g.NewNode(pegasus.KBinOp, 1)
	i4.BinOp = cminor.OpMul
	i4.VT = pegasus.I32
	i4.Ins = []pegasus.Ref{pegasus.V(m), pegasus.V(four)}
	twelve := g.NewNode(pegasus.KConst, 1)
	twelve.VT = pegasus.I32
	twelve.ConstVal = 12
	ahead := g.NewNode(pegasus.KBinOp, 1)
	ahead.BinOp = cminor.OpAdd
	ahead.VT = pegasus.I32
	ahead.Ins = []pegasus.Ref{pegasus.V(i4), pegasus.V(twelve)}

	a, b := Decompose(i4), Decompose(ahead)
	d, ok := Distance(a, b, inds)
	if !ok || d != 3 {
		t.Errorf("distance = %d, %v; want 3", d, ok)
	}
	d, ok = Distance(b, a, inds)
	if !ok || d != -3 {
		t.Errorf("reverse distance = %d, %v; want -3", d, ok)
	}
	// Fractional distances are rejected.
	ten := g.NewNode(pegasus.KConst, 1)
	ten.VT = pegasus.I32
	ten.ConstVal = 10
	frac := g.NewNode(pegasus.KBinOp, 1)
	frac.BinOp = cminor.OpAdd
	frac.VT = pegasus.I32
	frac.Ins = []pegasus.Ref{pegasus.V(i4), pegasus.V(ten)}
	if _, ok := Distance(a, Decompose(frac), inds); ok {
		t.Error("10/4 iterations should not be a valid distance")
	}
}
