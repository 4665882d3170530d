package alias

import (
	"fmt"
	"sort"

	"spatial/internal/cminor"
)

// ObjKind discriminates abstract memory objects.
type ObjKind int

// Object kinds.
const (
	ObjGlobal  ObjKind = iota
	ObjLocal           // address-taken local or local array (one per declaration)
	ObjString          // string literal
	ObjUnknown         // external memory a ⊤ pointer may reference
)

// Object is an abstract memory object.
type Object struct {
	ID        ObjID
	Kind      ObjKind
	Name      string
	Decl      *cminor.VarDecl  // ObjGlobal/ObjLocal
	Fn        *cminor.FuncDecl // ObjLocal
	StringIdx int              // ObjString
	Const     bool             // object is immutable (paper Section 4.2)
}

// ClassID identifies a location class: the unit that receives its own
// merge/eta token circuit (paper Section 6, Figure 11).
type ClassID int32

// Analysis holds the results of the whole-program memory analysis.
type Analysis struct {
	Prog    *cminor.Program
	Objects []*Object
	Unknown ObjID

	objOfDecl   map[*cminor.VarDecl]ObjID
	objOfString map[int]ObjID
	all         Set // every object including Unknown

	// points-to solution
	pts    map[ptKey]*Set
	rets   map[*cminor.FuncDecl]ptKey
	called map[*cminor.FuncDecl]bool

	// union-find over objects for location classes
	classParent []int
	classIDs    map[int]ClassID
	numClasses  int

	// per-function read/write summaries (including callees)
	funcReads  map[*cminor.FuncDecl]Set
	funcWrites map[*cminor.FuncDecl]Set

	// independence annotations per function: pairs of declarations
	indep map[*cminor.FuncDecl]map[[2]*cminor.VarDecl]bool
}

// ptKey identifies a node in the points-to constraint graph.
type ptKey struct {
	decl *cminor.VarDecl  // register-resident pointer variable
	obj  ObjID            // summary of pointers stored in an object (decl==nil)
	fn   *cminor.FuncDecl // return value of fn (decl==nil, obj==-1)
}

func varKey(d *cminor.VarDecl) ptKey  { return ptKey{decl: d, obj: -1} }
func sumKey(o ObjID) ptKey            { return ptKey{obj: o} }
func retKey(f *cminor.FuncDecl) ptKey { return ptKey{obj: -1, fn: f} }

// ptVal is a symbolic points-to value: objs ∪ pts(keys), or ⊤.
type ptVal struct {
	objs Set
	keys []ptKey
	top  bool
}

func (v *ptVal) addKey(k ptKey) { v.keys = append(v.keys, k) }

func (v *ptVal) merge(o ptVal) {
	v.objs.Union(o.objs)
	v.keys = append(v.keys, o.keys...)
	v.top = v.top || o.top
}

// constraint kinds processed iteratively to a fixpoint.
type copyCons struct{ from, to ptKey }
type loadCons struct {
	addr ptVal
	to   ptKey
}
type storeCons struct {
	addr ptVal
	val  ptVal
}

// Analyze runs the whole-program analysis on a checked program.
func Analyze(prog *cminor.Program) (*Analysis, error) {
	a := &Analysis{
		Prog:        prog,
		objOfDecl:   map[*cminor.VarDecl]ObjID{},
		objOfString: map[int]ObjID{},
		pts:         map[ptKey]*Set{},
		rets:        map[*cminor.FuncDecl]ptKey{},
		called:      map[*cminor.FuncDecl]bool{},
		funcReads:   map[*cminor.FuncDecl]Set{},
		funcWrites:  map[*cminor.FuncDecl]Set{},
		indep:       map[*cminor.FuncDecl]map[[2]*cminor.VarDecl]bool{},
	}
	a.collectObjects()
	a.solvePointsTo()
	a.collectIndependence()
	a.buildClasses()
	a.summarizeFunctions()
	return a, nil
}

func (a *Analysis) addObject(o *Object) ObjID {
	o.ID = ObjID(len(a.Objects))
	a.Objects = append(a.Objects, o)
	a.all.Add(o.ID)
	return o.ID
}

func (a *Analysis) collectObjects() {
	for _, g := range a.Prog.Globals {
		a.objOfDecl[g] = a.addObject(&Object{
			Kind: ObjGlobal, Name: g.Name, Decl: g,
			Const: g.Type.Const || (g.Type.Kind == cminor.TypeArray && g.Type.Elem.Const),
		})
	}
	for i := range a.Prog.Strings {
		id := a.addObject(&Object{
			Kind: ObjString, Name: fmt.Sprintf("str%d", i), StringIdx: i, Const: true,
		})
		a.objOfString[i] = id
	}
	for _, f := range a.Prog.Funcs {
		if f.Body == nil {
			continue
		}
		for _, l := range f.Locals {
			if a.isMemoryVar(l) {
				id := a.addObject(&Object{
					Kind: ObjLocal, Name: f.Name + "." + l.Name, Decl: l, Fn: f,
					Const: l.Type.Const || (l.Type.Kind == cminor.TypeArray && l.Type.Elem.Const),
				})
				a.objOfDecl[l] = id
			}
		}
		// Address-taken parameters also live in memory.
		for _, p := range f.Params {
			if p.AddrTaken {
				id := a.addObject(&Object{Kind: ObjLocal, Name: f.Name + "." + p.Name, Decl: p, Fn: f})
				a.objOfDecl[p] = id
			}
		}
	}
	a.Unknown = a.addObject(&Object{Kind: ObjUnknown, Name: "<unknown>"})
}

// isMemoryVar reports whether the variable lives in memory rather than a
// register: globals always, locals when arrays or address-taken (paper
// Section 3.3).
func (a *Analysis) isMemoryVar(v *cminor.VarDecl) bool {
	if v.Global {
		return true
	}
	return v.Type.Kind == cminor.TypeArray || v.AddrTaken
}

// IsMemoryVar is the exported form used by the Pegasus builder.
func (a *Analysis) IsMemoryVar(v *cminor.VarDecl) bool { return a.isMemoryVar(v) }

// ObjectOf returns the abstract object for a memory-resident variable.
func (a *Analysis) ObjectOf(v *cminor.VarDecl) (ObjID, bool) {
	id, ok := a.objOfDecl[v]
	return id, ok
}

// StringObject returns the object for string literal index i.
func (a *Analysis) StringObject(i int) ObjID { return a.objOfString[i] }

// AllObjects returns the set of every object, including Unknown.
func (a *Analysis) AllObjects() Set { return a.all.Clone() }

func (a *Analysis) ptsOf(k ptKey) *Set {
	s, ok := a.pts[k]
	if !ok {
		s = &Set{}
		a.pts[k] = s
	}
	return s
}

// flatten resolves a ptVal against the current solution.
func (a *Analysis) flatten(v ptVal) Set {
	if v.top {
		return a.all.Clone()
	}
	out := v.objs.Clone()
	for _, k := range v.keys {
		out.Union(*a.ptsOf(k))
	}
	return out
}

func (a *Analysis) solvePointsTo() {
	var copies []copyCons
	var loads []loadCons
	var stores []storeCons

	addCopy := func(from, to ptKey) { copies = append(copies, copyCons{from, to}) }

	// assignPtr registers constraints for "dst ⊇ val".
	assignVal := func(dst ptKey, val ptVal) {
		if val.top {
			a.ptsOf(dst).Union(a.all)
			return
		}
		a.ptsOf(dst).Union(val.objs)
		for _, k := range val.keys {
			addCopy(k, dst)
		}
	}

	for _, f := range a.Prog.Funcs {
		if f.Body == nil {
			continue
		}
		fn := f
		var genStmt func(cminor.Stmt)
		var genExpr func(cminor.Expr)

		// ptOf computes the symbolic points-to value of a pointer-typed
		// expression.
		var ptOf func(cminor.Expr) ptVal
		ptOf = func(e cminor.Expr) ptVal {
			switch e := e.(type) {
			case *cminor.NumberLit:
				return ptVal{} // null or integer constant
			case *cminor.StringLit:
				return ptVal{objs: SetOf(a.objOfString[e.Index])}
			case *cminor.VarRef:
				d := e.Decl
				t := d.Type
				if t.Kind == cminor.TypeArray {
					// The array name denotes the object's address.
					if id, ok := a.objOfDecl[d]; ok {
						return ptVal{objs: SetOf(id)}
					}
					return ptVal{top: true}
				}
				if a.isMemoryVar(d) {
					// Reading a memory-resident pointer variable loads the
					// stored pointer: its pointees are the object summary.
					if id, ok := a.objOfDecl[d]; ok {
						return ptVal{keys: []ptKey{sumKey(id)}}
					}
					return ptVal{top: true}
				}
				return ptVal{keys: []ptKey{varKey(d)}}
			case *cminor.AddrExpr:
				switch lv := e.X.(type) {
				case *cminor.VarRef:
					if id, ok := a.objOfDecl[lv.Decl]; ok {
						return ptVal{objs: SetOf(id)}
					}
					return ptVal{top: true}
				case *cminor.IndexExpr:
					return ptOf(lv.Array)
				case *cminor.DerefExpr:
					return ptOf(lv.X)
				}
				return ptVal{top: true}
			case *cminor.BinExpr:
				var v ptVal
				if exprMayCarryPointer(e.L) {
					v.merge(ptOf(e.L))
				}
				if exprMayCarryPointer(e.R) {
					v.merge(ptOf(e.R))
				}
				return v
			case *cminor.UnExpr:
				if exprMayCarryPointer(e.X) {
					return ptOf(e.X)
				}
				return ptVal{}
			case *cminor.CondExpr:
				var v ptVal
				if exprMayCarryPointer(e.Then) {
					v.merge(ptOf(e.Then))
				}
				if exprMayCarryPointer(e.Else) {
					v.merge(ptOf(e.Else))
				}
				return v
			case *cminor.CastExpr:
				if exprMayCarryPointer(e.X) {
					return ptOf(e.X)
				}
				if isConstExpr(e.X) {
					return ptVal{}
				}
				// Integer of unknown provenance cast to a pointer.
				return ptVal{top: true}
			case *cminor.IndexExpr:
				// a[i]: when the element is itself an array this is pure
				// address arithmetic; otherwise it loads a stored pointer.
				if e.Typ.Kind == cminor.TypeArray {
					return ptOf(e.Array)
				}
				return ptVal{keys: a.loadKeys(ptOf(e.Array), &loads)}
			case *cminor.DerefExpr:
				// *p of a pointer to a row is its address, like a[i] above.
				if e.Typ.Kind == cminor.TypeArray {
					return ptOf(e.X)
				}
				return ptVal{keys: a.loadKeys(ptOf(e.X), &loads)}
			case *cminor.CallExpr:
				if e.Func != nil {
					return ptVal{keys: []ptKey{retKey(e.Func)}}
				}
				return ptVal{top: true}
			}
			return ptVal{top: true}
		}

		// genAssign handles "lhs = rhs" for points-to purposes.
		genAssign := func(lhs, rhs cminor.Expr) {
			if !exprMayCarryPointer(rhs) && !lvalueHoldsPointer(lhs) {
				return
			}
			val := ptVal{}
			if exprMayCarryPointer(rhs) {
				val = ptOf(rhs)
			}
			switch lv := lhs.(type) {
			case *cminor.VarRef:
				d := lv.Decl
				if a.isMemoryVar(d) {
					if id, ok := a.objOfDecl[d]; ok {
						assignVal(sumKey(id), val)
					}
					return
				}
				assignVal(varKey(d), val)
			case *cminor.IndexExpr:
				stores = append(stores, storeCons{addr: ptOf(lv.Array), val: val})
			case *cminor.DerefExpr:
				stores = append(stores, storeCons{addr: ptOf(lv.X), val: val})
			}
		}

		genExpr = func(e cminor.Expr) {
			switch e := e.(type) {
			case *cminor.AssignExpr:
				genExpr(e.RHS)
				genAssign(e.LHS, e.RHS)
			case *cminor.CallExpr:
				for i, arg := range e.Args {
					genExpr(arg)
					if e.Func != nil && i < len(e.Func.Params) {
						p := e.Func.Params[i]
						if exprMayCarryPointer(arg) {
							if p.AddrTaken {
								if id, ok := a.objOfDecl[p]; ok {
									assignVal(sumKey(id), ptOf(arg))
								}
							} else {
								assignVal(varKey(p), ptOf(arg))
							}
						}
					}
				}
				if e.Func != nil {
					a.called[e.Func] = true
				}
			case *cminor.BinExpr:
				genExpr(e.L)
				genExpr(e.R)
			case *cminor.UnExpr:
				genExpr(e.X)
			case *cminor.CondExpr:
				genExpr(e.Cond)
				genExpr(e.Then)
				genExpr(e.Else)
			case *cminor.IndexExpr:
				genExpr(e.Array)
				genExpr(e.Index)
			case *cminor.DerefExpr:
				genExpr(e.X)
			case *cminor.AddrExpr:
				genExpr(e.X)
			case *cminor.CastExpr:
				genExpr(e.X)
			}
		}

		genStmt = func(s cminor.Stmt) {
			switch s := s.(type) {
			case *cminor.BlockStmt:
				for _, sub := range s.Stmts {
					genStmt(sub)
				}
			case *cminor.DeclStmt:
				if s.Var.Init != nil {
					genExpr(s.Var.Init)
					ref := &cminor.VarRef{Name: s.Var.Name, Decl: s.Var, Typ: s.Var.Type}
					genAssign(ref, s.Var.Init)
				}
				for _, e := range s.Var.InitList {
					genExpr(e)
					if exprMayCarryPointer(e) {
						if id, ok := a.objOfDecl[s.Var]; ok {
							assignVal(sumKey(id), ptOf(e))
						}
					}
				}
			case *cminor.ExprStmt:
				genExpr(s.X)
			case *cminor.IfStmt:
				genExpr(s.Cond)
				genStmt(s.Then)
				if s.Else != nil {
					genStmt(s.Else)
				}
			case *cminor.WhileStmt:
				genExpr(s.Cond)
				genStmt(s.Body)
			case *cminor.DoWhileStmt:
				genStmt(s.Body)
				genExpr(s.Cond)
			case *cminor.ForStmt:
				if s.Init != nil {
					genStmt(s.Init)
				}
				if s.Cond != nil {
					genExpr(s.Cond)
				}
				if s.Post != nil {
					genExpr(s.Post)
				}
				genStmt(s.Body)
			case *cminor.ReturnStmt:
				if s.X != nil {
					genExpr(s.X)
					if exprMayCarryPointer(s.X) {
						assignVal(retKey(fn), ptOf(s.X))
					}
				}
			}
		}
		genStmt(f.Body)
	}

	// Global initializers: &x and string pointers stored in globals.
	for _, g := range a.Prog.Globals {
		if g.Init != nil && exprMayCarryPointer(g.Init) {
			if id, ok := a.objOfDecl[g]; ok {
				switch init := g.Init.(type) {
				case *cminor.AddrExpr:
					if lv, ok := init.X.(*cminor.VarRef); ok {
						if tid, ok := a.objOfDecl[lv.Decl]; ok {
							a.ptsOf(sumKey(id)).Add(tid)
						}
					}
				case *cminor.StringLit:
					a.ptsOf(sumKey(id)).Add(a.objOfString[init.Index])
				}
			}
		}
	}

	// Pointer parameters of functions never called inside the program may
	// point anywhere (they are entry points; the Section 2 example relies
	// on this conservatism).
	for _, f := range a.Prog.Funcs {
		if f.Body == nil || a.called[f] {
			continue
		}
		for _, p := range f.Params {
			if p.Type.Decay().IsPointer() {
				if p.AddrTaken {
					if id, ok := a.objOfDecl[p]; ok {
						a.ptsOf(sumKey(id)).Union(a.all)
					}
				} else {
					a.ptsOf(varKey(p)).Union(a.all)
				}
			}
		}
	}

	// Fixpoint iteration over copies and complex constraints.
	edgeSeen := map[copyCons]bool{}
	for {
		changed := false
		for _, c := range copies {
			if a.ptsOf(c.to).Union(*a.ptsOf(c.from)) {
				changed = true
			}
		}
		for _, l := range loads {
			addrs := a.flatten(l.addr)
			for _, o := range addrs.Elems() {
				e := copyCons{from: sumKey(o), to: l.to}
				if !edgeSeen[e] {
					edgeSeen[e] = true
					copies = append(copies, e)
					changed = true
				}
			}
		}
		for _, s := range stores {
			addrs := a.flatten(s.addr)
			val := a.flatten(s.val)
			for _, o := range addrs.Elems() {
				if a.ptsOf(sumKey(o)).Union(val) {
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
}

// loadKeys materializes the summary keys for a load through addr; when the
// address set may still grow, a deferred load constraint is recorded.
func (a *Analysis) loadKeys(addr ptVal, loads *[]loadCons) []ptKey {
	// A fresh anonymous node (keyed by a synthetic VarDecl for unique
	// identity) holds the loaded pointer set.
	tmp := varKey(&cminor.VarDecl{Name: "<load>"})
	*loads = append(*loads, loadCons{addr: addr, to: tmp})
	return []ptKey{tmp}
}

// exprMayCarryPointer reports whether e's value could be (or contain the
// provenance of) a pointer.
func exprMayCarryPointer(e cminor.Expr) bool {
	t := e.Type()
	if t != nil && (t.Decay().IsPointer() || t.Kind == cminor.TypeArray) {
		return true
	}
	// Integer expressions with pointer-typed subexpressions keep
	// provenance (e.g. (int)p).
	switch e := e.(type) {
	case *cminor.CastExpr:
		return exprMayCarryPointer(e.X)
	case *cminor.BinExpr:
		return exprMayCarryPointer(e.L) || exprMayCarryPointer(e.R)
	case *cminor.UnExpr:
		return exprMayCarryPointer(e.X)
	case *cminor.AddrExpr:
		return true
	}
	return false
}

// lvalueHoldsPointer reports whether a store into this lvalue could place
// a pointer in memory (so the stored value's points-to set matters).
func lvalueHoldsPointer(e cminor.Expr) bool {
	t := e.Type()
	return t != nil && t.Decay().IsPointer()
}

func isConstExpr(e cminor.Expr) bool {
	_, err := cminor.ConstEval(e)
	return err == nil
}

// PointsTo returns the solved points-to set of a pointer variable.
func (a *Analysis) PointsTo(d *cminor.VarDecl) Set {
	if a.isMemoryVar(d) {
		if id, ok := a.objOfDecl[d]; ok {
			return a.ptsOf(sumKey(id)).Clone()
		}
		return a.all.Clone()
	}
	return a.ptsOf(varKey(d)).Clone()
}

// AddrObjects computes the read/write set of an access whose address is
// the given expression: the abstract objects the access may touch.
func (a *Analysis) AddrObjects(addr cminor.Expr) Set {
	v := a.addrVal(addr)
	return a.flatten(v)
}

// addrVal evaluates an address expression to a symbolic points-to value
// using the solved solution (no new constraints are generated; the
// solution is already a fixpoint).
func (a *Analysis) addrVal(e cminor.Expr) ptVal {
	switch e := e.(type) {
	case *cminor.NumberLit:
		return ptVal{}
	case *cminor.StringLit:
		return ptVal{objs: SetOf(a.objOfString[e.Index])}
	case *cminor.VarRef:
		d := e.Decl
		if d.Type.Kind == cminor.TypeArray {
			if id, ok := a.objOfDecl[d]; ok {
				return ptVal{objs: SetOf(id)}
			}
			return ptVal{top: true}
		}
		if a.isMemoryVar(d) {
			if id, ok := a.objOfDecl[d]; ok {
				return ptVal{keys: []ptKey{sumKey(id)}}
			}
			return ptVal{top: true}
		}
		return ptVal{keys: []ptKey{varKey(d)}}
	case *cminor.AddrExpr:
		switch lv := e.X.(type) {
		case *cminor.VarRef:
			if id, ok := a.objOfDecl[lv.Decl]; ok {
				return ptVal{objs: SetOf(id)}
			}
			return ptVal{top: true}
		case *cminor.IndexExpr:
			return a.addrVal(lv.Array)
		case *cminor.DerefExpr:
			return a.addrVal(lv.X)
		}
		return ptVal{top: true}
	case *cminor.BinExpr:
		var v ptVal
		if exprMayCarryPointer(e.L) {
			v.merge(a.addrVal(e.L))
		}
		if exprMayCarryPointer(e.R) {
			v.merge(a.addrVal(e.R))
		}
		return v
	case *cminor.UnExpr:
		if exprMayCarryPointer(e.X) {
			return a.addrVal(e.X)
		}
		return ptVal{}
	case *cminor.CondExpr:
		var v ptVal
		if exprMayCarryPointer(e.Then) {
			v.merge(a.addrVal(e.Then))
		}
		if exprMayCarryPointer(e.Else) {
			v.merge(a.addrVal(e.Else))
		}
		return v
	case *cminor.CastExpr:
		if exprMayCarryPointer(e.X) {
			return a.addrVal(e.X)
		}
		if isConstExpr(e.X) {
			return ptVal{}
		}
		return ptVal{top: true}
	case *cminor.IndexExpr:
		if e.Typ != nil && e.Typ.Kind == cminor.TypeArray {
			return a.addrVal(e.Array)
		}
		// Loaded pointer: approximate by the summaries of the base objects.
		base := a.flatten(a.addrVal(e.Array))
		var v ptVal
		for _, o := range base.Elems() {
			v.addKey(sumKey(o))
		}
		return v
	case *cminor.DerefExpr:
		if e.Typ != nil && e.Typ.Kind == cminor.TypeArray {
			return a.addrVal(e.X)
		}
		base := a.flatten(a.addrVal(e.X))
		var v ptVal
		for _, o := range base.Elems() {
			v.addKey(sumKey(o))
		}
		return v
	case *cminor.CallExpr:
		if e.Func != nil {
			return ptVal{keys: []ptKey{retKey(e.Func)}}
		}
		return ptVal{top: true}
	}
	return ptVal{top: true}
}

// Roots returns the pointer/array declarations an address expression
// syntactically derives from — the connection-analysis roots that the
// `#pragma independent` test uses. An empty result means the derivation
// passes through memory and the pragma cannot apply.
func Roots(e cminor.Expr) []*cminor.VarDecl {
	var out []*cminor.VarDecl
	var walk func(cminor.Expr) bool // returns false if derivation is lost
	walk = func(e cminor.Expr) bool {
		switch e := e.(type) {
		case *cminor.VarRef:
			t := e.Decl.Type.Decay()
			if t.IsPointer() {
				out = append(out, e.Decl)
				return true
			}
			return true // integer component contributes no root
		case *cminor.NumberLit, *cminor.StringLit:
			return true
		case *cminor.BinExpr:
			return walk(e.L) && walk(e.R)
		case *cminor.UnExpr:
			return walk(e.X)
		case *cminor.CastExpr:
			return walk(e.X)
		case *cminor.AddrExpr:
			switch lv := e.X.(type) {
			case *cminor.VarRef:
				_ = lv
				return true // a distinct named object, no pointer root
			case *cminor.IndexExpr:
				return walk(lv.Array)
			case *cminor.DerefExpr:
				return walk(lv.X)
			default:
				return false
			}
		case *cminor.IndexExpr:
			if e.Typ != nil && e.Typ.Kind == cminor.TypeArray {
				return walk(e.Array)
			}
			return false // address loaded from memory
		case *cminor.DerefExpr:
			if e.Typ != nil && e.Typ.Kind == cminor.TypeArray {
				return walk(e.X)
			}
			return false // address loaded from memory
		case *cminor.CondExpr:
			return walk(e.Then) && walk(e.Else)
		}
		return false
	}
	if !walk(e) {
		return nil
	}
	return out
}

func (a *Analysis) collectIndependence() {
	for _, f := range a.Prog.Funcs {
		if len(f.Pragmas) == 0 {
			continue
		}
		m := map[[2]*cminor.VarDecl]bool{}
		// Resolve pragma names against parameters and locals, then globals.
		resolve := func(name string) *cminor.VarDecl {
			for _, p := range f.Params {
				if p.Name == name {
					return p
				}
			}
			for _, l := range f.Locals {
				if l.Name == name {
					return l
				}
			}
			if g := a.Prog.Global(name); g != nil {
				return g
			}
			return nil
		}
		for _, pr := range f.Pragmas {
			da, db := resolve(pr.A), resolve(pr.B)
			if da == nil || db == nil {
				continue
			}
			m[[2]*cminor.VarDecl{da, db}] = true
			m[[2]*cminor.VarDecl{db, da}] = true
		}
		a.indep[f] = m
	}
}

// Independent reports whether two accesses in fn are declared independent
// via pragmas: every pair of derivation roots must be annotated, and both
// accesses must have known roots.
func (a *Analysis) Independent(fn *cminor.FuncDecl, rootsA, rootsB []*cminor.VarDecl) bool {
	m := a.indep[fn]
	if m == nil || len(rootsA) == 0 || len(rootsB) == 0 {
		return false
	}
	for _, ra := range rootsA {
		for _, rb := range rootsB {
			if ra == rb {
				return false
			}
			if !m[[2]*cminor.VarDecl{ra, rb}] {
				return false
			}
		}
	}
	return true
}

// --- location classes ---

func (a *Analysis) classFind(x int) int {
	for a.classParent[x] != x {
		a.classParent[x] = a.classParent[a.classParent[x]]
		x = a.classParent[x]
	}
	return x
}

func (a *Analysis) classUnion(x, y int) {
	rx, ry := a.classFind(x), a.classFind(y)
	if rx != ry {
		a.classParent[rx] = ry
	}
}

// buildClasses unions objects that co-occur in some load/store access's
// read/write set; each resulting class gets its own token circuit.
func (a *Analysis) buildClasses() {
	a.classParent = make([]int, len(a.Objects))
	for i := range a.classParent {
		a.classParent[i] = i
	}
	for _, f := range a.Prog.Funcs {
		if f.Body == nil {
			continue
		}
		a.visitAccesses(f, func(addr cminor.Expr, isWrite bool) {
			objs := a.AddrObjects(addr).Elems()
			for i := 1; i < len(objs); i++ {
				a.classUnion(int(objs[0]), int(objs[i]))
			}
		}, nil)
	}
	a.classIDs = map[int]ClassID{}
	roots := []int{}
	for i := range a.Objects {
		r := a.classFind(i)
		if _, ok := a.classIDs[r]; !ok {
			roots = append(roots, r)
		}
		a.classIDs[r] = 0
	}
	sort.Ints(roots)
	for i, r := range roots {
		a.classIDs[r] = ClassID(i)
	}
	a.numClasses = len(roots)
}

// ClassOf returns the location class of an object.
func (a *Analysis) ClassOf(o ObjID) ClassID { return a.classIDs[a.classFind(int(o))] }

// NumClasses returns the number of location classes.
func (a *Analysis) NumClasses() int { return a.numClasses }

// ClassesOf returns the distinct classes covering a read/write set, in
// increasing order.
func (a *Analysis) ClassesOf(s Set) []ClassID {
	seen := map[ClassID]bool{}
	var out []ClassID
	for _, o := range s.Elems() {
		c := a.ClassOf(o)
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsConstSet reports whether every object in the set is immutable; such
// accesses need no tokens at all (paper Section 4.2).
func (a *Analysis) IsConstSet(s Set) bool {
	if s.Empty() {
		return false
	}
	all := true
	s.Each(func(o ObjID) {
		all = all && a.Objects[o].Const
	})
	return all
}

// --- function summaries ---

// visitAccesses calls access for every load/store address expression in
// fn's body (isWrite true for stores), and call (if non-nil) for every
// call expression.
func (a *Analysis) visitAccesses(fn *cminor.FuncDecl, access func(addr cminor.Expr, isWrite bool), call func(*cminor.CallExpr)) {
	var walkExpr func(e cminor.Expr, isStoreTarget bool)
	walkExpr = func(e cminor.Expr, isStoreTarget bool) {
		switch e := e.(type) {
		case *cminor.VarRef:
			if a.isMemoryVar(e.Decl) && e.Decl.Type.Kind != cminor.TypeArray {
				// Memory-resident scalar: the access address is &var; model
				// with the VarRef itself as "address" via AddrObjects on a
				// synthetic AddrExpr — but AddrObjects(VarRef) for a memory
				// scalar resolves to the summary, so wrap explicitly.
				access(&cminor.AddrExpr{X: e, Typ: cminor.PointerTo(e.Decl.Type)}, isStoreTarget)
			}
		case *cminor.IndexExpr:
			walkExpr(e.Array, false)
			walkExpr(e.Index, false)
			if e.Typ.Kind != cminor.TypeArray {
				access(e.Array, isStoreTarget)
			}
		case *cminor.DerefExpr:
			walkExpr(e.X, false)
			if e.Typ.Kind != cminor.TypeArray {
				access(e.X, isStoreTarget)
			}
		case *cminor.AddrExpr:
			// Taking an address is not an access; but &a[i] evaluates i.
			if idx, ok := e.X.(*cminor.IndexExpr); ok {
				walkExpr(idx.Array, false)
				walkExpr(idx.Index, false)
			}
			if d, ok := e.X.(*cminor.DerefExpr); ok {
				walkExpr(d.X, false)
			}
		case *cminor.BinExpr:
			walkExpr(e.L, false)
			walkExpr(e.R, false)
		case *cminor.UnExpr:
			walkExpr(e.X, false)
		case *cminor.CondExpr:
			walkExpr(e.Cond, false)
			walkExpr(e.Then, false)
			walkExpr(e.Else, false)
		case *cminor.CastExpr:
			walkExpr(e.X, false)
		case *cminor.CallExpr:
			for _, arg := range e.Args {
				walkExpr(arg, false)
			}
			if call != nil {
				call(e)
			}
		case *cminor.AssignExpr:
			walkExpr(e.RHS, false)
			walkExpr(e.LHS, true)
		}
	}
	var walkStmt func(cminor.Stmt)
	walkStmt = func(s cminor.Stmt) {
		switch s := s.(type) {
		case *cminor.BlockStmt:
			for _, sub := range s.Stmts {
				walkStmt(sub)
			}
		case *cminor.DeclStmt:
			if s.Var.Init != nil {
				walkExpr(s.Var.Init, false)
				if a.isMemoryVar(s.Var) {
					ref := &cminor.VarRef{Name: s.Var.Name, Decl: s.Var, Typ: s.Var.Type}
					walkExpr(ref, true)
				}
			}
			for _, e := range s.Var.InitList {
				walkExpr(e, false)
			}
			if len(s.Var.InitList) > 0 {
				if id, ok := a.objOfDecl[s.Var]; ok {
					_ = id
					ref := &cminor.VarRef{Name: s.Var.Name, Decl: s.Var, Typ: s.Var.Type}
					access(&cminor.AddrExpr{X: ref, Typ: cminor.PointerTo(s.Var.Type)}, true)
				}
			}
		case *cminor.ExprStmt:
			walkExpr(s.X, false)
		case *cminor.IfStmt:
			walkExpr(s.Cond, false)
			walkStmt(s.Then)
			if s.Else != nil {
				walkStmt(s.Else)
			}
		case *cminor.WhileStmt:
			walkExpr(s.Cond, false)
			walkStmt(s.Body)
		case *cminor.DoWhileStmt:
			walkStmt(s.Body)
			walkExpr(s.Cond, false)
		case *cminor.ForStmt:
			if s.Init != nil {
				walkStmt(s.Init)
			}
			if s.Cond != nil {
				walkExpr(s.Cond, false)
			}
			if s.Post != nil {
				walkExpr(s.Post, false)
			}
			walkStmt(s.Body)
		case *cminor.ReturnStmt:
			if s.X != nil {
				walkExpr(s.X, false)
			}
		}
	}
	walkStmt(fn.Body)
}

// summarizeFunctions computes each function's transitive read and write
// object sets (used for call nodes' token plumbing).
func (a *Analysis) summarizeFunctions() {
	type summary struct {
		reads, writes Set
		calls         []*cminor.FuncDecl
	}
	local := map[*cminor.FuncDecl]*summary{}
	for _, f := range a.Prog.Funcs {
		if f.Body == nil {
			continue
		}
		s := &summary{}
		a.visitAccesses(f, func(addr cminor.Expr, isWrite bool) {
			objs := a.AddrObjects(addr)
			if isWrite {
				s.writes.Union(objs)
			} else {
				s.reads.Union(objs)
			}
		}, func(c *cminor.CallExpr) {
			if c.Func != nil {
				s.calls = append(s.calls, c.Func)
			}
		})
		local[f] = s
	}
	for _, f := range a.Prog.Funcs {
		if f.Body == nil {
			continue
		}
		a.funcReads[f] = local[f].reads.Clone()
		a.funcWrites[f] = local[f].writes.Clone()
	}
	// Transitive closure over the call graph.
	for {
		changed := false
		for _, f := range a.Prog.Funcs {
			if f.Body == nil {
				continue
			}
			for _, callee := range local[f].calls {
				if callee.Body == nil {
					continue
				}
				r := a.funcReads[f]
				w := a.funcWrites[f]
				if r.Union(a.funcReads[callee]) {
					changed = true
				}
				if w.Union(a.funcWrites[callee]) {
					changed = true
				}
				a.funcReads[f] = r
				a.funcWrites[f] = w
			}
		}
		if !changed {
			break
		}
	}
}

// FuncReads returns the transitive read set of fn.
func (a *Analysis) FuncReads(fn *cminor.FuncDecl) Set { return a.funcReads[fn].Clone() }

// FuncWrites returns the transitive write set of fn.
func (a *Analysis) FuncWrites(fn *cminor.FuncDecl) Set { return a.funcWrites[fn].Clone() }
