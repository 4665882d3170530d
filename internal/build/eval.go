package build

import (
	"spatial/internal/alias"
	"spatial/internal/cminor"
	"spatial/internal/pegasus"
)

// chainFor returns the token chain ordering accesses to rw, or nil when
// the access needs no ordering: immutable objects never change, so their
// reads commute with everything (Section 4.2).
func (b *fnBuilder) chainFor(rw alias.Set) (alias.ClassID, *tokChain) {
	if rw.Empty() || b.an.IsConstSet(rw) {
		return -1, nil
	}
	cl := b.an.ClassOf(rw.Elems()[0])
	if ci := b.classIdx[cl]; ci >= 0 {
		return cl, &b.tok[ci]
	}
	return cl, nil
}

// chainRead joins n into ch as a read: it waits on the whole write
// frontier (never on other reads) and covers it.
func chainRead(ch *tokChain, n *pegasus.Node) {
	for k := range ch.writes {
		n.AddTok(ch.writes[k].ref)
		ch.writes[k].covered = true
	}
	ch.reads = append(ch.reads, pegasus.T(n))
}

// chainWrite joins n into ch as a write: it collects the outstanding
// reads (write-after-read) plus any writes no read covers
// (write-after-write) and becomes the new one-element frontier.
func chainWrite(ch *tokChain, n *pegasus.Node) {
	for _, r := range ch.reads {
		n.AddTok(r)
	}
	for _, w := range ch.writes {
		if !w.covered {
			n.AddTok(w.ref)
		}
	}
	ch.reset(pegasus.T(n))
}

// load creates a predicated load ordered after the write frontier of
// its location class. Tokenless (immutable) accesses carry Class -1 so
// the pipeline pass never pulls them into a token circuit.
func (b *fnBuilder) load(addr pegasus.Ref, bytes int, signed bool, rw alias.Set) *pegasus.Node {
	n := b.g.NewNode(pegasus.KLoad, b.hyper)
	n.VT = pegasus.VType{Bits: bytes * 8, Signed: signed}
	n.Ins = []pegasus.Ref{addr}
	n.Preds = []pegasus.Ref{pegasus.V(b.pred)}
	n.Bytes = bytes
	n.RW = rw
	n.Pos = b.pos
	n.Class = -1
	if cl, ch := b.chainFor(rw); ch != nil {
		n.Class = cl
		chainRead(ch, n)
	}
	return n
}

// store creates a predicated store succeeding every outstanding
// access of its class.
func (b *fnBuilder) store(addr, val pegasus.Ref, bytes int, rw alias.Set) *pegasus.Node {
	n := b.g.NewNode(pegasus.KStore, b.hyper)
	n.Ins = []pegasus.Ref{addr, val}
	n.Preds = []pegasus.Ref{pegasus.V(b.pred)}
	n.Bytes = bytes
	n.RW = rw
	n.Pos = b.pos
	n.Class = -1
	if cl, ch := b.chainFor(rw); ch != nil {
		n.Class = cl
		chainWrite(ch, n)
	}
	return n
}

// emitCall lowers a call: arguments are converted to the parameter types
// (the activation receives them raw), and the call joins the token chain
// of every class it touches — like a store for classes it may write, like
// a load for classes it only reads.
func (b *fnBuilder) emitCall(e *cminor.CallExpr) pegasus.Ref {
	var ins []pegasus.Ref
	for i, a := range e.Args {
		ins = append(ins, b.conv(b.lowerExpr(a), e.Func.Params[i].Type))
	}
	n := b.g.NewNode(pegasus.KCall, b.hyper)
	n.Callee = e.Func
	n.Ins = ins
	n.Preds = []pegasus.Ref{pegasus.V(b.pred)}
	n.Pos = b.pos
	n.Reads = b.an.FuncReads(e.Func)
	n.Writes = b.an.FuncWrites(e.Func)
	rw := n.Reads.Clone()
	rw.Union(n.Writes)
	n.RW = rw

	// Per threaded class: 2 if the call may write it, else 1 if it may
	// read it.
	access := make([]uint8, len(b.classes))
	for _, o := range n.Reads.Elems() {
		if ci := b.classIdx[b.an.ClassOf(o)]; ci >= 0 {
			access[ci] = 1
		}
	}
	for _, o := range n.Writes.Elems() {
		if ci := b.classIdx[b.an.ClassOf(o)]; ci >= 0 {
			access[ci] = 2
		}
	}
	for ci := range b.classes {
		switch access[ci] {
		case 2:
			chainWrite(&b.tok[ci], n)
		case 1:
			chainRead(&b.tok[ci], n)
		}
	}
	if e.Func.Ret.Kind != cminor.TypeVoid {
		n.VT = pegasus.VTypeOf(e.Func.Ret)
		return pegasus.V(n)
	}
	return pegasus.Ref{}
}

// boundaries collapses the per-class token state to a single token per
// class, written to out by class, for an edge leaving the hyperblock (or
// closing a loop): etas and return sites carry exactly one token.
// Mutating the chains keeps repeated snapshots (one per out edge)
// consistent.
func (b *fnBuilder) boundaries(out []pegasus.Ref) {
	for ci, cl := range b.classes {
		ch := &b.tok[ci]
		n := len(ch.reads)
		for _, w := range ch.writes {
			if !w.covered {
				n++
				out[ci] = w.ref
			}
		}
		if n == 1 {
			if len(ch.reads) == 1 {
				out[ci] = ch.reads[0]
			}
			continue
		}
		frontier := make([]pegasus.Ref, 0, n)
		frontier = append(frontier, ch.reads...)
		for _, w := range ch.writes {
			if !w.covered {
				frontier = append(frontier, w.ref)
			}
		}
		comb := b.g.NewNode(pegasus.KCombine, b.hyper)
		comb.TokClass = cl
		comb.Toks = frontier
		out[ci] = pegasus.T(comb)
		ch.reset(pegasus.T(comb))
	}
}

// spillParams stores address-taken parameters into their frame objects at
// procedure entry, mirroring the interpreter's calling convention (the
// dataflow activation only populates register params).
func (b *fnBuilder) spillParams() {
	for i, p := range b.fn.Params {
		obj, mem := b.an.ObjectOf(p)
		if !mem {
			continue
		}
		b.pos = p.Pos
		b.store(pegasus.V(b.addrOfNode(obj)), pegasus.V(b.g.Params[i]),
			int(p.Type.Decay().Size()), alias.SetOf(obj))
	}
}
