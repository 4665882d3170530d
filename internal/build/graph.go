package build

import (
	"sort"

	"spatial/internal/alias"
	"spatial/internal/cfg"
	"spatial/internal/cminor"
	"spatial/internal/pegasus"
)

// The builder keeps its per-edge state in slices indexed in its own
// orders: register variables by their index in fnBuilder.vars, location
// classes by their index in fnBuilder.classes, blocks by cfg.Block.ID.

// snap records the builder state at one outgoing CFG edge: the edge
// predicate in the source hyperblock, the register environment (by
// variable; a zero Ref is a variable never assigned on the path), and the
// token state (by class). Edges staying inside a hyperblock carry the full
// chain state (chains); edges crossing a hyperblock boundary or closing a
// loop collapse each class to a single token (toks) because etas carry
// exactly one.
type snap struct {
	pred   *pegasus.Node
	hyper  int32
	env    []pegasus.Ref
	toks   []pegasus.Ref
	chains []tokChain
}

// headerInfo holds a loop hyperblock's merge nodes so back edges, which
// are reached later in the walk, can append their etas. varMerge is nil
// for a variable that does not circulate.
type headerInfo struct {
	waveMerge *pegasus.Node
	varMerge  []*pegasus.Node
	tokMerge  []*pegasus.Node
	backPreds []*pegasus.Node
}

// retSite is one TermRet block: its predicate, converted return value,
// and token boundary, which the exit hyperblock merges together.
type retSite struct {
	hyper int32
	pred  *pegasus.Node
	val   pegasus.Ref
	toks  []pegasus.Ref
}

// tokChain is the running token state of one location class along the
// current control path. Sibling branches of a hyperblock fork this state
// and joins union it (every operation fires each wave, squashed or not,
// so tokens from all branches arrive): writes is the current write
// frontier, each marked covered once some read succeeds it, and reads the
// loads issued against it. Loads wait on the whole write frontier (never
// on other reads); stores collect the outstanding reads plus any
// still-uncovered writes.
type tokChain struct {
	writes []tokWrite
	reads  []pegasus.Ref
}

// tokWrite is one write of a frontier.
type tokWrite struct {
	ref     pegasus.Ref
	covered bool
}

type constKey struct {
	val int64
	vt  pegasus.VType
}

type boolKey struct {
	n     *pegasus.Node
	hyper int32
}

type fnBuilder struct {
	an *alias.Analysis
	fn *cminor.FuncDecl
	cg *cfg.Graph
	g  *pegasus.Graph

	exitHyper int32
	classes   []alias.ClassID
	classIdx  []int // by ClassID: index in classes, or -1
	vars      []*cminor.VarDecl
	varIdx    map[*cminor.VarDecl]int
	maxRead   []int // by variable

	params   map[*cminor.VarDecl]*pegasus.Node
	truePred []*pegasus.Node
	inSnaps  [][]snap      // by block
	headers  []*headerInfo // by block
	consts   map[constKey]*pegasus.Node
	addrs    map[alias.ObjID]*pegasus.Node
	bools    map[boolKey]*pegasus.Node

	retSites []retSite

	// Walking state for the current block, in memory the walk reuses.
	hyper int32
	pred  *pegasus.Node
	env   []pegasus.Ref // by variable
	tok   []tokChain    // by class

	// Scratch: slab hands out the snapshots' Ref slices, and seen/at
	// deduplicate tokens by node ID while joinToks unions forks
	// (seen[id] == stamp marks a token met in the current union; at[id]
	// is a write's position).
	slab  []pegasus.Ref
	seen  []uint32
	at    []int32
	stamp uint32
}

func (b *fnBuilder) build() {
	for _, hb := range b.cg.Hypers {
		b.g.NewHyper(hb.IsLoopHeader)
	}
	b.exitHyper = int32(len(b.g.Hypers))
	b.g.NewHyper(false)
	b.truePred = make([]*pegasus.Node, len(b.g.Hypers))

	b.g.Entry = b.g.NewNode(pegasus.KEntryTok, 0)
	for i, p := range b.fn.Params {
		n := b.g.NewNode(pegasus.KParam, 0)
		n.ParamIdx = int32(i)
		n.VT = pegasus.VTypeOf(p.Type.Decay())
		b.g.Params = append(b.g.Params, n)
		b.params[p] = n
	}
	b.collectVars()
	b.collectClasses()
	b.env = make([]pegasus.Ref, len(b.vars))
	b.tok = make([]tokChain, len(b.classes))
	b.inSnaps = make([][]snap, len(b.cg.Blocks))
	b.headers = make([]*headerInfo, len(b.cg.Blocks))

	for _, hb := range b.cg.Hypers {
		b.buildHyper(hb)
	}
	b.setLoopPreds()
	b.buildReturn()
}

// collectVars gathers the register-resident variables in a deterministic
// order and records, per variable, the highest hyperblock that reads it;
// merges circulate a variable only through hyperblocks at or below that
// bound.
func (b *fnBuilder) collectVars() {
	isReg := func(v *cminor.VarDecl) bool {
		_, mem := b.an.ObjectOf(v)
		return !mem
	}
	for _, p := range b.fn.Params {
		if isReg(p) {
			b.vars = append(b.vars, p)
		}
	}
	for _, l := range b.fn.Locals {
		if isReg(l) {
			b.vars = append(b.vars, l)
		}
	}
	b.varIdx = make(map[*cminor.VarDecl]int, len(b.vars))
	for i, v := range b.vars {
		b.varIdx[v] = i
	}
	b.maxRead = make([]int, len(b.vars))
	note := func(e cminor.Expr, h int) {
		eachVarRead(e, func(d *cminor.VarDecl) {
			if i, ok := b.varIdx[d]; ok && b.maxRead[i] < h {
				b.maxRead[i] = h
			}
		})
	}
	for _, blk := range b.cg.Blocks {
		h := blk.Hyper.ID
		for _, ins := range blk.Instrs {
			note(ins.RHS, h)
			// The LHS root is a definition, but index and pointer
			// subexpressions of a memory lvalue are reads.
			switch lv := ins.LHS.(type) {
			case *cminor.IndexExpr:
				note(lv.Array, h)
				note(lv.Index, h)
			case *cminor.DerefExpr:
				note(lv.X, h)
			}
		}
		if blk.Term.Cond != nil {
			note(blk.Term.Cond, h)
		}
		if blk.Term.Ret != nil {
			note(blk.Term.Ret, h)
		}
	}
	// Loop-carried liveness: a variable live into a loop header's merges
	// must circulate through every hyperblock of the loop, so the back
	// edges from the latches can return it. Extend each read bound that
	// lands inside a loop to the loop's last hyperblock, to fixpoint
	// (loops nest).
	type span struct{ header, max int }
	var spans []span
	for _, l := range b.cg.Loops {
		s := span{header: l.Header.Hyper.ID, max: l.Header.Hyper.ID}
		for blk := range l.Blocks {
			if blk.Hyper.ID > s.max {
				s.max = blk.Hyper.ID
			}
		}
		spans = append(spans, s)
	}
	for changed := true; changed; {
		changed = false
		for v := range b.maxRead {
			for _, s := range spans {
				if b.maxRead[v] >= s.header && b.maxRead[v] < s.max {
					b.maxRead[v] = s.max
					changed = true
				}
			}
		}
	}
}

// eachVarRead walks e and reports every VarRef occurrence (assignment
// roots never reach here; the normalizer keeps assignments out of
// expressions).
func eachVarRead(e cminor.Expr, f func(*cminor.VarDecl)) {
	switch e := e.(type) {
	case nil:
		return
	case *cminor.VarRef:
		f(e.Decl)
	case *cminor.BinExpr:
		eachVarRead(e.L, f)
		eachVarRead(e.R, f)
	case *cminor.UnExpr:
		eachVarRead(e.X, f)
	case *cminor.CondExpr:
		eachVarRead(e.Cond, f)
		eachVarRead(e.Then, f)
		eachVarRead(e.Else, f)
	case *cminor.IndexExpr:
		eachVarRead(e.Array, f)
		eachVarRead(e.Index, f)
	case *cminor.DerefExpr:
		eachVarRead(e.X, f)
	case *cminor.AddrExpr:
		eachVarRead(e.X, f)
	case *cminor.CastExpr:
		eachVarRead(e.X, f)
	case *cminor.CallExpr:
		for _, a := range e.Args {
			eachVarRead(a, f)
		}
	case *cminor.AssignExpr:
		eachVarRead(e.RHS, f)
		eachVarRead(e.LHS, f)
	case *cminor.IncDecExpr:
		eachVarRead(e.X, f)
	}
}

// collectClasses selects the location classes this function's token
// network must thread: every class its transitive reads/writes touch,
// except classes made entirely of immutable objects (const accesses need
// no ordering, paper Section 4.2).
func (b *fnBuilder) collectClasses() {
	touched := b.an.FuncReads(b.fn)
	touched.Union(b.an.FuncWrites(b.fn))
	mutable := map[alias.ClassID]bool{}
	for _, o := range b.an.AllObjects().Elems() {
		// Unknown external memory is always mutable.
		if !b.an.IsConstSet(alias.SetOf(o)) {
			mutable[b.an.ClassOf(o)] = true
		}
	}
	seen := map[alias.ClassID]bool{}
	for _, cl := range b.an.ClassesOf(touched) {
		if mutable[cl] && !seen[cl] {
			seen[cl] = true
			b.classes = append(b.classes, cl)
		}
	}
	sort.Slice(b.classes, func(i, j int) bool { return b.classes[i] < b.classes[j] })
	b.classIdx = make([]int, b.an.NumClasses())
	for cl := range b.classIdx {
		b.classIdx[cl] = -1
	}
	for i, cl := range b.classes {
		b.classIdx[cl] = i
	}
}

func (b *fnBuilder) buildHyper(hb *cfg.Hyperblock) {
	h := hb.ID
	b.hyper = int32(h)
	if h == 0 {
		b.truePred[0] = b.g.ConstPred(0, true)
		for _, p := range b.fn.Params {
			if i, ok := b.varIdx[p]; ok {
				b.env[i] = pegasus.V(b.params[p])
			}
		}
		for ci := range b.tok {
			b.tok[ci].reset(pegasus.T(b.g.Entry))
		}
		b.pred = b.truePred[0]
		b.spillParams()
	} else {
		b.openHyper(hb)
	}
	for _, blk := range hb.Blocks {
		b.buildBlock(blk, hb)
	}
}

// openHyper builds the control, value, and token merges of a non-entry
// hyperblock from the snapshots of its incoming forward edges. Loop
// headers additionally register a headerInfo so back edges can append
// their etas when the walk reaches the latches.
func (b *fnBuilder) openHyper(hb *cfg.Hyperblock) {
	h := b.hyper
	snaps := b.inSnaps[hb.Seed.ID]
	wm := b.g.NewNode(pegasus.KMerge, h)
	wm.VT = pegasus.Pred
	for _, s := range snaps {
		eta := b.valueEta(s.hyper, s.pred, pegasus.V(b.truePred[s.hyper]), pegasus.Pred)
		wm.Ins = append(wm.Ins, pegasus.V(eta))
	}
	b.g.RegisterTruePred(h, wm)
	b.truePred[h] = wm
	b.pred = wm

	var hi *headerInfo
	if hb.IsLoopHeader {
		hi = &headerInfo{waveMerge: wm, varMerge: make([]*pegasus.Node, len(b.vars)),
			tokMerge: make([]*pegasus.Node, len(b.classes))}
		b.headers[hb.Seed.ID] = hi
	}

	clear(b.env)
	for i, v := range b.vars {
		if b.maxRead[i] < int(h) {
			continue
		}
		vt := pegasus.VTypeOf(v.Type.Decay())
		m := b.g.NewNode(pegasus.KMerge, h)
		m.VT = vt
		for _, s := range snaps {
			eta := b.valueEta(s.hyper, s.pred, b.snapVal(s.env, i), vt)
			m.Ins = append(m.Ins, pegasus.V(eta))
		}
		b.env[i] = pegasus.V(m)
		if hi != nil {
			hi.varMerge[i] = m
		}
	}

	for ci, cl := range b.classes {
		tm := b.g.NewNode(pegasus.KMerge, h)
		tm.TokenOnly = true
		tm.TokClass = cl
		for _, s := range snaps {
			eta := b.tokenEta(s.hyper, s.pred, s.toks[ci], cl)
			tm.Toks = append(tm.Toks, pegasus.T(eta))
		}
		b.tok[ci].reset(pegasus.T(tm))
		if hi != nil {
			hi.tokMerge[ci] = tm
		}
	}
}

func (b *fnBuilder) buildBlock(blk *cfg.Block, hb *cfg.Hyperblock) {
	if blk != hb.Seed {
		b.joinBlock(blk)
	}
	for _, ins := range blk.Instrs {
		if ins.LHS == nil {
			b.lowerExpr(ins.RHS)
		} else {
			b.assign(ins.LHS, ins.RHS)
		}
	}
	switch blk.Term.Kind {
	case cfg.TermRet:
		b.lowerReturn(blk.Term.Ret)
	case cfg.TermGoto:
		b.outEdge(blk.Term.Then, b.pred)
	case cfg.TermIf:
		// A constant condition takes the same side on every wave, and
		// that side runs under the block's own predicate. b.pred ∧ c
		// would be the static c itself when b.pred is the wave, and a
		// static predicate leaves the side's etas only static inputs:
		// they fire once per activation instead of once per wave. The
		// other side keeps b.pred ∧ ¬c, which is false on every wave.
		// ConstEval follows the typing rules this lowering follows
		// (cminor.EvalTyped), so the side it picks is the one c takes.
		c := b.boolize(b.lowerExpr(blk.Term.Cond))
		v, err := cminor.ConstEval(blk.Term.Cond)
		then := b.g.PredAnd(b.pred, c)
		if err == nil && v != 0 {
			then = b.pred
		}
		b.outEdge(blk.Term.Then, then)
		els := b.g.PredAndNot(b.pred, c)
		if err == nil && v == 0 {
			els = b.pred
		}
		b.outEdge(blk.Term.Else, els)
	}
}

// joinBlock computes the path predicate and register environment of an
// intra-hyperblock join from its incoming edge snapshots: the predicate
// is the disjunction of the edge predicates, and each variable whose
// definitions differ across edges gets a decoded mux keyed by them.
func (b *fnBuilder) joinBlock(blk *cfg.Block) {
	snaps := b.inSnaps[blk.ID]
	p := snaps[0].pred
	for _, s := range snaps[1:] {
		p = b.g.PredOr(p, s.pred)
	}
	b.pred = p
	b.joinToks(snaps)
	if len(snaps) == 1 {
		copy(b.env, snaps[0].env)
		return
	}
	clear(b.env)
	for i, v := range b.vars {
		if b.maxRead[i] < int(b.hyper) {
			continue
		}
		present := false
		for _, s := range snaps {
			if s.env[i].Valid() {
				present = true
				break
			}
		}
		if !present {
			continue
		}
		first := b.snapVal(snaps[0].env, i)
		same := true
		for _, s := range snaps[1:] {
			if b.snapVal(s.env, i) != first {
				same = false
				break
			}
		}
		if same {
			b.env[i] = first
			continue
		}
		mux := b.g.NewNode(pegasus.KMux, b.hyper)
		mux.VT = pegasus.VTypeOf(v.Type.Decay())
		for _, s := range snaps {
			mux.Ins = append(mux.Ins, b.snapVal(s.env, i))
			mux.Preds = append(mux.Preds, pegasus.V(s.pred))
		}
		b.env[i] = pegasus.V(mux)
	}
}

// outEdge records the state snapshot of one CFG edge. Forward edges stash
// it for the target's merges; back edges (the target is a loop header
// whose merges already exist) append their etas immediately.
func (b *fnBuilder) outEdge(to *cfg.Block, pred *pegasus.Node) {
	hi := b.headers[to.ID]
	if hi == nil {
		// Forward edge: the target reads the snapshot later.
		s := snap{pred: pred, hyper: b.hyper, env: b.refs(len(b.vars))}
		copy(s.env, b.env)
		if to.Hyper.ID == int(b.hyper) {
			// Intra-hyperblock edge: fork the full token state so sibling
			// branches order independently against the common frontier.
			s.chains = b.fork()
		} else {
			s.toks = b.refs(len(b.classes))
			b.boundaries(s.toks)
		}
		if b.inSnaps[to.ID] == nil {
			b.inSnaps[to.ID] = make([]snap, 0, len(to.Preds))
		}
		b.inSnaps[to.ID] = append(b.inSnaps[to.ID], s)
		return
	}
	// Back edge: append the etas now, from the current state.
	toks := b.refs(len(b.classes))
	b.boundaries(toks)
	wave := b.valueEta(b.hyper, pred, pegasus.V(b.truePred[b.hyper]), pegasus.Pred)
	hi.waveMerge.Ins = append(hi.waveMerge.Ins, pegasus.V(wave))
	for i, m := range hi.varMerge {
		if m == nil {
			continue
		}
		eta := b.valueEta(b.hyper, pred, b.snapVal(b.env, i), m.VT)
		m.Ins = append(m.Ins, pegasus.V(eta))
	}
	for ci, cl := range b.classes {
		eta := b.tokenEta(b.hyper, pred, toks[ci], cl)
		hi.tokMerge[ci].Toks = append(hi.tokMerge[ci].Toks, pegasus.T(eta))
	}
	hi.backPreds = append(hi.backPreds, pred)
}

// setLoopPreds records, per loop hyperblock, the node computing "the loop
// takes another iteration" — defined only when every latch predicate
// lives in the header's own hyperblock (the shape licm and the pipeline
// passes understand).
func (b *fnBuilder) setLoopPreds() {
	for _, hb := range b.cg.Hypers {
		hi := b.headers[hb.Seed.ID]
		if hi == nil {
			continue
		}
		h := hb.ID
		var lp *pegasus.Node
		ok := len(hi.backPreds) > 0
		for _, p := range hi.backPreds {
			if int(p.Hyper) != h {
				ok = false
				break
			}
			if lp == nil {
				lp = p
			} else {
				lp = b.g.PredOr(lp, p)
			}
		}
		if ok {
			b.g.Hypers[h].LoopPred = lp
		}
	}
}

func (b *fnBuilder) lowerReturn(ret cminor.Expr) {
	site := retSite{hyper: b.hyper, pred: b.pred, toks: b.refs(len(b.classes))}
	b.boundaries(site.toks)
	if b.fn.Ret.Kind != cminor.TypeVoid {
		var v pegasus.Ref
		if ret != nil {
			v = b.lowerExpr(ret)
		} else {
			// Fall-off return in a non-void function yields 0.
			v = pegasus.V(b.constNode(0, pegasus.VTypeOf(b.fn.Ret)))
		}
		site.val = b.conv(v, b.fn.Ret)
	}
	b.retSites = append(b.retSites, site)
}

// buildReturn assembles the exit hyperblock: a value merge over the
// return sites' etas, one token merge per class combined into the
// procedure's final token, and the KReturn node. A function with no
// reachable return (an infinite loop) falls back to the entry token.
func (b *fnBuilder) buildReturn() {
	ret := b.g.NewNode(pegasus.KReturn, b.exitHyper)
	b.g.Ret = ret
	if len(b.retSites) == 0 {
		ret.Toks = []pegasus.Ref{pegasus.T(b.g.Entry)}
		return
	}
	if b.fn.Ret.Kind != cminor.TypeVoid {
		m := b.g.NewNode(pegasus.KMerge, b.exitHyper)
		m.VT = pegasus.VTypeOf(b.fn.Ret)
		for _, s := range b.retSites {
			eta := b.valueEta(s.hyper, s.pred, s.val, m.VT)
			m.Ins = append(m.Ins, pegasus.V(eta))
		}
		ret.Ins = []pegasus.Ref{pegasus.V(m)}
	}
	if len(b.classes) == 0 {
		ret.Toks = []pegasus.Ref{pegasus.T(b.g.Entry)}
		return
	}
	var finals []pegasus.Ref
	for ci, cl := range b.classes {
		tm := b.g.NewNode(pegasus.KMerge, b.exitHyper)
		tm.TokenOnly = true
		tm.TokClass = cl
		for _, s := range b.retSites {
			eta := b.tokenEta(s.hyper, s.pred, s.toks[ci], cl)
			tm.Toks = append(tm.Toks, pegasus.T(eta))
		}
		finals = append(finals, pegasus.T(tm))
	}
	if len(finals) == 1 {
		ret.Toks = finals
		return
	}
	cmb := b.g.NewNode(pegasus.KCombine, b.exitHyper)
	cmb.TokClass = -1
	cmb.Toks = finals
	ret.Toks = []pegasus.Ref{pegasus.T(cmb)}
}

// --- small node factories ---

func (b *fnBuilder) valueEta(hyper int32, pred *pegasus.Node, data pegasus.Ref, vt pegasus.VType) *pegasus.Node {
	n := b.g.NewNode(pegasus.KEta, hyper)
	n.VT = vt
	n.Ins = []pegasus.Ref{data}
	n.Preds = []pegasus.Ref{pegasus.V(pred)}
	return n
}

func (b *fnBuilder) tokenEta(hyper int32, pred *pegasus.Node, tok pegasus.Ref, cl alias.ClassID) *pegasus.Node {
	n := b.g.NewNode(pegasus.KEta, hyper)
	n.TokenOnly = true
	n.TokClass = cl
	n.Toks = []pegasus.Ref{tok}
	n.Preds = []pegasus.Ref{pegasus.V(pred)}
	return n
}

func (b *fnBuilder) constNode(val int64, vt pegasus.VType) *pegasus.Node {
	// Predicate-typed constants go through ConstPred so the BDD tables
	// stay canonical; everything else is interned globally (constants are
	// static sources usable from any hyperblock).
	if vt.Bits == 1 {
		return b.g.ConstPred(b.hyper, val != 0)
	}
	k := constKey{val: val, vt: vt}
	if n, ok := b.consts[k]; ok {
		return n
	}
	n := b.g.NewNode(pegasus.KConst, 0)
	n.VT = vt
	n.ConstVal = val
	b.consts[k] = n
	return n
}

func (b *fnBuilder) addrOfNode(obj alias.ObjID) *pegasus.Node {
	if n, ok := b.addrs[obj]; ok {
		return n
	}
	n := b.g.NewNode(pegasus.KAddrOf, 0)
	n.VT = pegasus.U32
	n.Obj = obj
	b.addrs[obj] = n
	return n
}

// boolize turns a lowered condition into a 1-bit predicate node of the
// current hyperblock. Values computed in other hyperblocks are wrapped in
// a local UBool even when already 1-bit: BDD references are only
// meaningful within one hyperblock's space.
func (b *fnBuilder) boolize(r pegasus.Ref) *pegasus.Node {
	n := r.N
	if n.Kind == pegasus.KConst {
		return b.g.ConstPred(b.hyper, n.ConstVal != 0)
	}
	if n.VT.Bits == 1 && n.Hyper == b.hyper {
		return n
	}
	k := boolKey{n: n, hyper: b.hyper}
	if u, ok := b.bools[k]; ok {
		return u
	}
	u := b.g.NewNode(pegasus.KUnOp, b.hyper)
	u.UnOp = pegasus.UBool
	u.VT = pegasus.Pred
	u.Ins = []pegasus.Ref{r}
	b.bools[k] = u
	return u
}

// snapVal returns variable i's value in env, or the constant 0 of its
// type when it was never assigned on the path.
func (b *fnBuilder) snapVal(env []pegasus.Ref, i int) pegasus.Ref {
	if r := env[i]; r.Valid() {
		return r
	}
	return pegasus.V(b.constNode(0, pegasus.VTypeOf(b.vars[i].Type.Decay())))
}

// refs returns n zero Refs carved from the builder's slab. Snapshots live
// only while their function is built, so one chunk serves many of them;
// each new chunk doubles the last, as append grows a slice. Node inputs
// are never carved from it.
func (b *fnBuilder) refs(n int) []pegasus.Ref {
	if n > cap(b.slab)-len(b.slab) {
		b.slab = make([]pegasus.Ref, 0, max(n, 2*cap(b.slab), 32))
	}
	k := len(b.slab)
	b.slab = b.slab[:k+n]
	return b.slab[k : k+n : k+n]
}

// reset makes write the chain's whole state.
func (ch *tokChain) reset(write pegasus.Ref) {
	ch.writes = append(ch.writes[:0], tokWrite{ref: write})
	ch.reads = ch.reads[:0]
}

// fork copies the token state for an intra-hyperblock edge.
func (b *fnBuilder) fork() []tokChain {
	nw := 0
	for _, ch := range b.tok {
		nw += len(ch.writes)
	}
	writes := make([]tokWrite, nw)
	out := make([]tokChain, len(b.tok))
	for ci, ch := range b.tok {
		w := copy(writes, ch.writes)
		out[ci].writes, writes = writes[:w:w], writes[w:]
		out[ci].reads = b.refs(len(ch.reads))
		copy(out[ci].reads, ch.reads)
	}
	return out
}

// joinToks rebuilds the per-class token state at an intra-hyperblock join
// as the union of the incoming forks, in order of first appearance.
// Coverage unions too: a token edge is structural, so a read that
// succeeds a write does so on every path.
func (b *fnBuilder) joinToks(snaps []snap) {
	if len(snaps) == 1 {
		for ci := range b.tok {
			ch, in := &b.tok[ci], &snaps[0].chains[ci]
			ch.writes = append(ch.writes[:0], in.writes...)
			ch.reads = append(ch.reads[:0], in.reads...)
		}
		return
	}
	if n := b.g.MaxID(); len(b.seen) < n {
		b.seen = make([]uint32, n+n/2)
		b.at = make([]int32, len(b.seen))
	}
	for ci := range b.tok {
		ch := &b.tok[ci]
		ch.writes, ch.reads = ch.writes[:0], ch.reads[:0]
		b.stamp++
		for _, s := range snaps {
			for _, w := range s.chains[ci].writes {
				id := w.ref.N.ID
				if b.seen[id] == b.stamp {
					ch.writes[b.at[id]].covered = ch.writes[b.at[id]].covered || w.covered
					continue
				}
				b.seen[id], b.at[id] = b.stamp, int32(len(ch.writes))
				ch.writes = append(ch.writes, w)
			}
		}
		b.stamp++
		for _, s := range snaps {
			for _, r := range s.chains[ci].reads {
				if b.seen[r.N.ID] != b.stamp {
					b.seen[r.N.ID] = b.stamp
					ch.reads = append(ch.reads, r)
				}
			}
		}
	}
}
