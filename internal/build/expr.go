package build

import (
	"fmt"

	"spatial/internal/alias"
	"spatial/internal/cminor"
	"spatial/internal/pegasus"
)

// lowerExpr lowers e under the current block's path predicate and returns
// the node output carrying its value. Pure subexpressions are emitted
// speculatively (unpredicated); only memory accesses and calls take the
// path predicate, matching the hyperblock predication model of Section 4.
func (b *fnBuilder) lowerExpr(e cminor.Expr) pegasus.Ref {
	switch e := e.(type) {
	case *cminor.NumberLit:
		return pegasus.V(b.constNode(e.Val, pegasus.VTypeOf(e.Typ)))
	case *cminor.StringLit:
		return pegasus.V(b.addrOfNode(b.an.StringObject(e.Index)))
	case *cminor.VarRef:
		return b.lowerVarRef(e)
	case *cminor.BinExpr:
		return b.lowerBinExpr(e)
	case *cminor.UnExpr:
		x := b.lowerExpr(e.X)
		switch e.Op {
		case cminor.OpNeg:
			return pegasus.V(b.unOp(pegasus.UNeg, x, pegasus.VTypeOf(e.Typ)))
		case cminor.OpBitNot:
			return pegasus.V(b.unOp(pegasus.UBitNot, x, pegasus.VTypeOf(e.Typ)))
		case cminor.OpNot:
			return pegasus.V(b.unOp(pegasus.UNot, x, pegasus.Pred))
		}
	case *cminor.CondExpr:
		c := b.boolize(b.lowerExpr(e.Cond))
		t := b.lowerExpr(e.Then)
		f := b.lowerExpr(e.Else)
		mux := b.g.NewNode(pegasus.KMux, b.hyper)
		mux.VT = pegasus.VTypeOf(e.Typ)
		mux.Ins = []pegasus.Ref{t, f}
		mux.Preds = []pegasus.Ref{pegasus.V(c), pegasus.V(b.g.PredNot(c))}
		return pegasus.V(mux)
	case *cminor.IndexExpr:
		addr := b.indexAddr(e)
		if e.Typ.Kind == cminor.TypeArray {
			// Indexing into a row of a nested array yields its address.
			return addr
		}
		return pegasus.V(b.load(addr, int(e.Typ.Size()),
			e.Typ.IsInteger() && e.Typ.Signed, b.an.AddrObjects(e.Array)))
	case *cminor.DerefExpr:
		addr := b.lowerExpr(e.X)
		if e.Typ.Kind == cminor.TypeArray {
			// Dereferencing a pointer to a row yields the row's address.
			return addr
		}
		return pegasus.V(b.load(addr, int(e.Typ.Size()),
			e.Typ.IsInteger() && e.Typ.Signed, b.an.AddrObjects(e.X)))
	case *cminor.AddrExpr:
		return b.lowerAddr(e.X)
	case *cminor.CastExpr:
		return b.conv(b.lowerExpr(e.X), e.To)
	case *cminor.CallExpr:
		return b.emitCall(e)
	case *cminor.AssignExpr:
		return b.assign(e.LHS, e.RHS)
	}
	panic(fmt.Sprintf("build: cannot lower %T", e))
}

func (b *fnBuilder) lowerVarRef(e *cminor.VarRef) pegasus.Ref {
	d := e.Decl
	obj, mem := b.an.ObjectOf(d)
	if d.Type.Kind == cminor.TypeArray {
		return pegasus.V(b.addrOfNode(obj))
	}
	if mem {
		// Address-taken scalar: lives in the frame, every read is a load.
		dt := d.Type.Decay()
		return pegasus.V(b.load(pegasus.V(b.addrOfNode(obj)), int(dt.Size()),
			dt.IsInteger() && dt.Signed, alias.SetOf(obj)))
	}
	// A never-assigned register variable reads as 0.
	return b.snapVal(b.env, b.varIdx[d])
}

func (b *fnBuilder) lowerBinExpr(e *cminor.BinExpr) pegasus.Ref {
	if e.Op == cminor.OpLogAnd || e.Op == cminor.OpLogOr {
		// The checker guarantees both operands are side-effect free, so the
		// short-circuit form lowers to eager predicate algebra (and the BDD
		// canonicalizes the result against the path predicates).
		l := b.boolize(b.lowerExpr(e.L))
		r := b.boolize(b.lowerExpr(e.R))
		if e.Op == cminor.OpLogAnd {
			return pegasus.V(b.g.PredAnd(l, r))
		}
		return pegasus.V(b.g.PredOr(l, r))
	}
	lt, rt := e.L.Type().Decay(), e.R.Type().Decay()
	l := b.lowerExpr(e.L)
	r := b.lowerExpr(e.R)
	switch {
	case lt.IsPointer() && rt.IsInteger() && (e.Op == cminor.OpAdd || e.Op == cminor.OpSub):
		r = b.scaleIndex(r, lt.Elem.Size())
	case rt.IsPointer() && lt.IsInteger() && e.Op == cminor.OpAdd:
		l = b.scaleIndex(l, rt.Elem.Size())
	case lt.IsPointer() && rt.IsPointer() && e.Op == cminor.OpSub:
		d := pegasus.V(b.binOp(cminor.OpSub, l, r, pegasus.I32, false))
		if sz := lt.Elem.Size(); sz > 1 {
			d = pegasus.V(b.binOp(cminor.OpDiv, d,
				pegasus.V(b.constNode(sz, pegasus.I32)), pegasus.I32, false))
		}
		return d
	}
	vt := pegasus.VTypeOf(e.Typ)
	if e.Op.IsComparison() {
		vt = pegasus.Pred
	}
	return pegasus.V(b.binOp(e.Op, l, r, vt, cminor.UnsignedOp(e.Op, lt, rt, e.Typ)))
}

// scaleIndex multiplies an index by the element size of pointer
// arithmetic; a size of one needs no node.
func (b *fnBuilder) scaleIndex(r pegasus.Ref, sz int64) pegasus.Ref {
	if sz <= 1 {
		return r
	}
	return pegasus.V(b.binOp(cminor.OpMul, r,
		pegasus.V(b.constNode(sz, pegasus.I32)), pegasus.I32, false))
}

// indexAddr computes &a[i] as base + i*size, where size is the indexed
// element's type size (rows of nested arrays scale by the row size).
func (b *fnBuilder) indexAddr(e *cminor.IndexExpr) pegasus.Ref {
	base := b.lowerExpr(e.Array)
	idx := b.scaleIndex(b.lowerExpr(e.Index), e.Typ.Size())
	return pegasus.V(b.binOp(cminor.OpAdd, base, idx, pegasus.U32, false))
}

// lowerAddr lowers the lvalue lv to its address.
func (b *fnBuilder) lowerAddr(lv cminor.Expr) pegasus.Ref {
	switch lv := lv.(type) {
	case *cminor.VarRef:
		obj, _ := b.an.ObjectOf(lv.Decl)
		return pegasus.V(b.addrOfNode(obj))
	case *cminor.IndexExpr:
		return b.indexAddr(lv)
	case *cminor.DerefExpr:
		return b.lowerExpr(lv.X)
	}
	panic(fmt.Sprintf("build: cannot take address of %T", lv))
}

// assign lowers an assignment and returns the raw (pre-truncation) value
// of the right-hand side, which is the value of an assignment expression.
func (b *fnBuilder) assign(lhs, rhs cminor.Expr) pegasus.Ref {
	val := b.lowerExpr(rhs)
	switch lv := lhs.(type) {
	case *cminor.VarRef:
		d := lv.Decl
		if obj, mem := b.an.ObjectOf(d); mem {
			b.store(pegasus.V(b.addrOfNode(obj)), val,
				int(d.Type.Decay().Size()), alias.SetOf(obj))
			return val
		}
		b.env[b.varIdx[d]] = b.convAssign(val, d.Type)
		return val
	case *cminor.IndexExpr:
		b.store(b.indexAddr(lv), val, int(lv.Typ.Size()), b.an.AddrObjects(lv.Array))
		return val
	case *cminor.DerefExpr:
		b.store(b.lowerExpr(lv.X), val, int(lv.Typ.Size()), b.an.AddrObjects(lv.X))
		return val
	}
	panic(fmt.Sprintf("build: bad assignment target %T", lhs))
}

// conv truncates/extends r to type t, mirroring the interpreter's
// truncType at casts, calls, and returns: sub-32-bit integers narrow with
// their own signedness, everything else canonicalizes to signed 32 bits.
func (b *fnBuilder) conv(r pegasus.Ref, t *cminor.Type) pegasus.Ref {
	t = t.Decay()
	bits, sign := 32, true
	if t.IsInteger() {
		bits, sign = t.Bits, t.Signed
	}
	n := b.g.NewNode(pegasus.KConv, b.hyper)
	n.VT = pegasus.VTypeOf(t)
	if n.VT.Bits == 0 {
		n.VT = pegasus.I32
	}
	n.ToBits = uint8(bits)
	n.ConvSign = sign
	n.Ins = []pegasus.Ref{r}
	return pegasus.V(n)
}

// convAssign narrows a value stored into a register variable. 32-bit
// destinations skip the node: every consumer observes at most the low 32
// bits, which the producer already fixes.
func (b *fnBuilder) convAssign(r pegasus.Ref, t *cminor.Type) pegasus.Ref {
	t = t.Decay()
	if t.IsInteger() && t.Bits < 32 {
		return b.conv(r, t)
	}
	return r
}

func (b *fnBuilder) binOp(op cminor.BinOpKind, l, r pegasus.Ref, vt pegasus.VType, unsigned bool) *pegasus.Node {
	n := b.g.NewNode(pegasus.KBinOp, b.hyper)
	n.BinOp = op
	n.Unsigned = unsigned
	n.VT = vt
	n.Ins = []pegasus.Ref{l, r}
	return n
}

func (b *fnBuilder) unOp(op pegasus.UnOpKind, x pegasus.Ref, vt pegasus.VType) *pegasus.Node {
	n := b.g.NewNode(pegasus.KUnOp, b.hyper)
	n.UnOp = op
	n.VT = vt
	n.Ins = []pegasus.Ref{x}
	return n
}
