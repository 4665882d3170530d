package cminor

import (
	"errors"
	"fmt"
)

// Check resolves names, assigns types, enforces the cMinor placement rules
// for side-effecting expressions, collects locals and pragmas, and interns
// string literals. It mutates the AST in place.
//
// Placement rules (they keep hyperblock predication sound and simple):
//   - assignment and ++/-- are statements: they may appear only as the root
//     of an expression statement or a for-loop init/post;
//   - the arms of ?:, &&, and || may contain loads (which become predicated
//     Pegasus loads) but no assignments or calls.
func Check(prog *Program) error {
	c := &checker{prog: prog, funcs: map[string]*FuncDecl{}, strings: map[string]int{}}
	for _, f := range prog.Funcs {
		if prev, dup := c.funcs[f.Name]; dup && prev.Body != nil && f.Body != nil {
			return errf(f.Pos, "function %s redefined", f.Name)
		}
		// Prefer the definition over a prototype.
		if prev, ok := c.funcs[f.Name]; !ok || prev.Body == nil {
			c.funcs[f.Name] = f
		}
	}
	globals := map[string]*VarDecl{}
	for _, g := range prog.Globals {
		if _, dup := globals[g.Name]; dup {
			return errf(g.Pos, "global %s redeclared", g.Name)
		}
		if _, dup := c.funcs[g.Name]; dup {
			return errf(g.Pos, "%s declared as both variable and function", g.Name)
		}
		globals[g.Name] = g
		g.Global = true
		if g.Type.Kind == TypeArray {
			g.AddrTaken = true
		}
	}
	// Initializers are checked after every global is declared, so they
	// may reference later globals (&other, array names).
	c.globals = globals
	for _, g := range prog.Globals {
		if err := c.checkGlobalInit(g); err != nil {
			return err
		}
	}
	for _, f := range prog.Funcs {
		if f.Body == nil {
			continue
		}
		if err := c.checkFunc(f); err != nil {
			return err
		}
	}
	return nil
}

type checker struct {
	prog    *Program
	funcs   map[string]*FuncDecl
	globals map[string]*VarDecl
	strings map[string]int

	fn     *FuncDecl
	scopes []map[string]*VarDecl
}

func (c *checker) checkGlobalInit(g *VarDecl) error {
	if g.Init != nil {
		if err := c.checkExpr(g.Init, false); err != nil {
			return err
		}
		if !isGlobalConstInit(g.Init) {
			return errf(g.Pos, "initializer for global %s is not constant", g.Name)
		}
	}
	if err := checkInitListShape(g); err != nil {
		return err
	}
	for _, e := range g.InitList {
		if err := c.checkExpr(e, false); err != nil {
			return err
		}
		if !isGlobalConstInit(e) {
			return errf(g.Pos, "initializer element for global %s is not constant", g.Name)
		}
	}
	return nil
}

// checkInitListShape rejects a brace initializer on a variable that is
// not an array, and one with more elements than the array holds: both
// would store past the variable. Elements are stored one per array
// element, so an array of arrays (which C initializes element by scalar
// element) is rejected too.
func checkInitListShape(v *VarDecl) error {
	if len(v.InitList) == 0 {
		return nil
	}
	if v.Type.Kind != TypeArray {
		return errf(v.Pos, "brace initializer for non-array %s of type %s", v.Name, v.Type)
	}
	if v.Type.Elem.Kind == TypeArray {
		return errf(v.Pos, "brace initializer for multidimensional array %s is not supported", v.Name)
	}
	if v.Type.Len > 0 && int64(len(v.InitList)) > v.Type.Len {
		return errf(v.Pos, "too many initializers for %s", v.Name)
	}
	return nil
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, map[string]*VarDecl{}) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(v *VarDecl) error {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[v.Name]; dup {
		return errf(v.Pos, "%s redeclared in this scope", v.Name)
	}
	top[v.Name] = v
	return nil
}

func (c *checker) lookup(name string) *VarDecl {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if v, ok := c.scopes[i][name]; ok {
			return v
		}
	}
	return c.globals[name]
}

func (c *checker) checkFunc(f *FuncDecl) error {
	c.fn = f
	c.scopes = nil
	c.pushScope()
	defer c.popScope()
	for _, p := range f.Params {
		if p.Type.Kind == TypeVoid || p.Type.Kind == TypeArray {
			return errf(p.Pos, "parameter %s has invalid type %s", p.Name, p.Type)
		}
		if err := c.declare(p); err != nil {
			return err
		}
	}
	return c.checkStmt(f.Body)
}

func (c *checker) checkStmt(s Stmt) error {
	switch s := s.(type) {
	case *BlockStmt:
		c.pushScope()
		defer c.popScope()
		for i, sub := range s.Stmts {
			if err := c.checkStmt(sub); err != nil {
				return err
			}
			s.Stmts[i] = normalizeStmt(s.Stmts[i])
		}
		return nil
	case *DeclStmt:
		v := s.Var
		if v.Type.Kind == TypeVoid {
			return errf(v.Pos, "variable %s has void type", v.Name)
		}
		if v.Type.Kind == TypeArray {
			if v.Type.Len < 0 {
				return errf(v.Pos, "local array %s must have a size", v.Name)
			}
			v.AddrTaken = true
		}
		if v.Init != nil {
			if err := c.checkExpr(v.Init, false); err != nil {
				return err
			}
			if err := c.checkAssignable(v.Type.Decay(), v.Init, v.Pos); err != nil {
				return err
			}
		}
		if err := checkInitListShape(v); err != nil {
			return err
		}
		for _, e := range v.InitList {
			if err := c.checkExpr(e, false); err != nil {
				return err
			}
		}
		if err := c.declare(v); err != nil {
			return err
		}
		c.fn.Locals = append(c.fn.Locals, v)
		return nil
	case *ExprStmt:
		return c.checkExpr(s.X, true)
	case *IfStmt:
		if err := c.checkExpr(s.Cond, false); err != nil {
			return err
		}
		if err := c.checkStmt(s.Then); err != nil {
			return err
		}
		s.Then = normalizeStmt(s.Then)
		if s.Else != nil {
			if err := c.checkStmt(s.Else); err != nil {
				return err
			}
			s.Else = normalizeStmt(s.Else)
		}
		return nil
	case *WhileStmt:
		if err := c.checkExpr(s.Cond, false); err != nil {
			return err
		}
		if err := c.checkStmt(s.Body); err != nil {
			return err
		}
		s.Body = normalizeStmt(s.Body)
		return nil
	case *DoWhileStmt:
		if err := c.checkStmt(s.Body); err != nil {
			return err
		}
		s.Body = normalizeStmt(s.Body)
		return c.checkExpr(s.Cond, false)
	case *ForStmt:
		c.pushScope()
		defer c.popScope()
		if s.Init != nil {
			if err := c.checkStmt(s.Init); err != nil {
				return err
			}
			s.Init = normalizeStmt(s.Init)
		}
		if s.Cond != nil {
			if err := c.checkExpr(s.Cond, false); err != nil {
				return err
			}
		}
		if s.Post != nil {
			if err := c.checkExpr(s.Post, true); err != nil {
				return err
			}
			s.Post = normalizeExpr(s.Post)
		}
		if err := c.checkStmt(s.Body); err != nil {
			return err
		}
		s.Body = normalizeStmt(s.Body)
		return nil
	case *ReturnStmt:
		if s.X == nil {
			if c.fn.Ret.Kind != TypeVoid {
				return errf(s.Pos, "missing return value in %s", c.fn.Name)
			}
			return nil
		}
		if c.fn.Ret.Kind == TypeVoid {
			return errf(s.Pos, "return with a value in void function %s", c.fn.Name)
		}
		if err := c.checkExpr(s.X, false); err != nil {
			return err
		}
		return c.checkAssignable(c.fn.Ret, s.X, s.Pos)
	case *BreakStmt, *ContinueStmt, *EmptyStmt:
		return nil
	case *PragmaStmt:
		for _, name := range []string{s.Pragma.A, s.Pragma.B} {
			v := c.lookup(name)
			if v == nil {
				return errf(s.Pos, "pragma independent: unknown name %s", name)
			}
			t := v.Type.Decay()
			if !t.IsPointer() {
				return errf(s.Pos, "pragma independent: %s is not a pointer or array", name)
			}
		}
		c.fn.Pragmas = append(c.fn.Pragmas, s.Pragma)
		return nil
	}
	return fmt.Errorf("checkStmt: unknown statement %T", s)
}

// checkExpr type-checks e. stmtRoot is true when e is the root of an
// expression statement (or for-init/post), where assignments and ++/-- are
// allowed.
func (c *checker) checkExpr(e Expr, stmtRoot bool) error {
	switch e := e.(type) {
	case *NumberLit:
		if e.Typ == nil {
			e.Typ = Int
		}
		return nil
	case *StringLit:
		idx, ok := c.strings[e.Value]
		if !ok {
			idx = len(c.prog.Strings)
			c.strings[e.Value] = idx
			c.prog.Strings = append(c.prog.Strings, e)
		}
		e.Index = idx
		e.Typ = PointerTo(ConstOf(Char))
		return nil
	case *VarRef:
		v := c.lookup(e.Name)
		if v == nil {
			return errf(e.Pos, "undeclared identifier %s", e.Name)
		}
		e.Decl = v
		e.Typ = v.Type
		return nil
	case *BinExpr:
		// A side effect in a short-circuit operand is refused before the
		// operand's type is checked: the effect, not its type, is the error.
		if e.Op == OpLogAnd || e.Op == OpLogOr {
			if err := noSideEffects(e.R, "the right operand of "+e.Op.String()); err != nil {
				return err
			}
		}
		if err := c.checkExpr(e.L, false); err != nil {
			return err
		}
		if err := c.checkExpr(e.R, false); err != nil {
			return err
		}
		lt, rt := e.L.Type().Decay(), e.R.Type().Decay()
		switch {
		case e.Op.IsComparison() || e.Op == OpLogAnd || e.Op == OpLogOr:
			e.Typ = Int
		case lt.IsPointer() && rt.IsInteger() && (e.Op == OpAdd || e.Op == OpSub):
			e.Typ = lt
		case rt.IsPointer() && lt.IsInteger() && e.Op == OpAdd:
			e.Typ = rt
		case lt.IsPointer() && rt.IsPointer() && e.Op == OpSub:
			e.Typ = Int
		case lt.IsInteger() && rt.IsInteger():
			e.Typ = usualArith(lt, rt)
			if e.Op == OpShl || e.Op == OpShr {
				e.Typ = promote(lt)
			}
		default:
			return errf(e.Pos, "invalid operands to %s: %s and %s", e.Op, lt, rt)
		}
		return nil
	case *UnExpr:
		if err := c.checkExpr(e.X, false); err != nil {
			return err
		}
		t := e.X.Type().Decay()
		switch e.Op {
		case OpNot:
			e.Typ = Int
		case OpNeg, OpBitNot:
			if !t.IsInteger() {
				return errf(e.Pos, "invalid operand to %s: %s", e.Op, t)
			}
			e.Typ = promote(t)
		}
		return nil
	case *CondExpr:
		if err := c.checkExpr(e.Cond, false); err != nil {
			return err
		}
		if err := c.checkExpr(e.Then, false); err != nil {
			return err
		}
		if err := c.checkExpr(e.Else, false); err != nil {
			return err
		}
		for _, arm := range []Expr{e.Then, e.Else} {
			if err := noSideEffects(arm, "a ?: arm"); err != nil {
				return err
			}
		}
		tt, et := e.Then.Type().Decay(), e.Else.Type().Decay()
		switch {
		case tt.Same(et):
			e.Typ = tt
		case tt.IsInteger() && et.IsInteger():
			e.Typ = usualArith(tt, et)
		case tt.IsPointer() && et.IsInteger():
			e.Typ = tt // p : 0
		case et.IsPointer() && tt.IsInteger():
			e.Typ = et
		default:
			return errf(e.Pos, "?: arms have incompatible types %s and %s", tt, et)
		}
		return nil
	case *IndexExpr:
		if err := c.checkExpr(e.Array, false); err != nil {
			return err
		}
		if err := c.checkExpr(e.Index, false); err != nil {
			return err
		}
		at := e.Array.Type().Decay()
		if !at.IsPointer() {
			return errf(e.Pos, "indexed expression has type %s, not array/pointer", e.Array.Type())
		}
		if !e.Index.Type().Decay().IsInteger() {
			return errf(e.Pos, "array index has type %s", e.Index.Type())
		}
		if at.Elem.Kind == TypeVoid {
			return errf(e.Pos, "cannot index %s", at)
		}
		e.Typ = at.Elem
		return nil
	case *DerefExpr:
		if err := c.checkExpr(e.X, false); err != nil {
			return err
		}
		t := e.X.Type().Decay()
		if !t.IsPointer() || t.Elem.Kind == TypeVoid {
			return errf(e.Pos, "cannot dereference %s", t)
		}
		e.Typ = t.Elem
		return nil
	case *AddrExpr:
		if err := c.checkExpr(e.X, false); err != nil {
			return err
		}
		switch lv := e.X.(type) {
		case *VarRef:
			lv.Decl.AddrTaken = true
			if lv.Decl.Type.Kind == TypeArray {
				e.Typ = PointerTo(lv.Decl.Type.Elem)
			} else {
				e.Typ = PointerTo(lv.Decl.Type)
			}
		case *IndexExpr:
			e.Typ = PointerTo(lv.Type())
		case *DerefExpr:
			e.Typ = lv.X.Type().Decay()
		default:
			return errf(e.Pos, "cannot take the address of this expression")
		}
		return nil
	case *CastExpr:
		if err := c.checkExpr(e.X, false); err != nil {
			return err
		}
		from := e.X.Type().Decay()
		to := e.To
		ok := (from.IsInteger() || from.IsPointer()) && (to.IsInteger() || to.IsPointer())
		if !ok {
			return errf(e.Pos, "invalid cast from %s to %s", from, to)
		}
		return nil
	case *CallExpr:
		fn, ok := c.funcs[e.Callee]
		if !ok {
			return errf(e.Pos, "call to undeclared function %s", e.Callee)
		}
		e.Func = fn
		e.Typ = fn.Ret
		if fn.Ret.Kind == TypeVoid && !stmtRoot {
			return errf(e.Pos, "void function %s used as a value", e.Callee)
		}
		if len(e.Args) != len(fn.Params) {
			return errf(e.Pos, "%s expects %d arguments, got %d", e.Callee, len(fn.Params), len(e.Args))
		}
		for i, a := range e.Args {
			if err := c.checkExpr(a, false); err != nil {
				return err
			}
			if err := c.checkAssignable(fn.Params[i].Type, a, e.Pos); err != nil {
				return err
			}
		}
		return nil
	case *AssignExpr:
		if !stmtRoot {
			return errf(e.Pos, "assignment may only appear as a statement in cMinor")
		}
		if err := c.checkExpr(e.LHS, false); err != nil {
			return err
		}
		if !isLvalue(e.LHS) {
			return errf(e.Pos, "left side of assignment is not an lvalue")
		}
		if t := lvalueType(e.LHS); t.Kind == TypeArray {
			return errf(e.Pos, "cannot assign to array of type %s", t)
		}
		if lvalueType(e.LHS).Const {
			return errf(e.Pos, "assignment to const object")
		}
		if err := c.checkExpr(e.RHS, false); err != nil {
			return err
		}
		e.Typ = lvalueType(e.LHS)
		return c.checkAssignable(e.Typ, e.RHS, e.Pos)
	case *IncDecExpr:
		if !stmtRoot {
			return errf(e.Pos, "++/-- may only appear as a statement in cMinor")
		}
		if err := c.checkExpr(e.X, false); err != nil {
			return err
		}
		if !isLvalue(e.X) {
			return errf(e.Pos, "operand of ++/-- is not an lvalue")
		}
		if t := lvalueType(e.X); t.Kind == TypeArray {
			return errf(e.Pos, "operand of ++/-- is an array of type %s", t)
		}
		if lvalueType(e.X).Const {
			return errf(e.Pos, "++/-- of const object")
		}
		e.Typ = lvalueType(e.X)
		return nil
	}
	return fmt.Errorf("checkExpr: unknown expression %T", e)
}

func (c *checker) checkAssignable(to *Type, from Expr, pos Pos) error {
	ft := from.Type().Decay()
	tt := to.Decay()
	switch {
	case tt.IsInteger() && ft.IsInteger():
		return nil
	case tt.IsPointer() && ft.IsPointer():
		return nil // cMinor allows pointer conversions, like pre-ANSI C
	case tt.IsPointer() && ft.IsInteger():
		// Allow the constant 0 (null) and explicit integer expressions;
		// kernels use table-driven addressing.
		return nil
	case tt.IsInteger() && ft.IsPointer():
		return nil
	}
	return errf(pos, "cannot assign %s to %s", ft, tt)
}

func isLvalue(e Expr) bool {
	switch e.(type) {
	case *VarRef, *IndexExpr, *DerefExpr:
		return true
	}
	return false
}

func lvalueType(e Expr) *Type {
	return e.Type()
}

// noSideEffects rejects assignments, ++/--, and calls inside e.
func noSideEffects(e Expr, where string) error {
	var walk func(Expr) error
	walk = func(e Expr) error {
		switch e := e.(type) {
		case *AssignExpr:
			return errf(e.Pos, "assignment not allowed in %s", where)
		case *IncDecExpr:
			return errf(e.Pos, "++/-- not allowed in %s", where)
		case *CallExpr:
			return errf(e.Pos, "call not allowed in %s (it would be speculated)", where)
		case *BinExpr:
			if err := walk(e.L); err != nil {
				return err
			}
			return walk(e.R)
		case *UnExpr:
			return walk(e.X)
		case *CondExpr:
			if err := walk(e.Cond); err != nil {
				return err
			}
			if err := walk(e.Then); err != nil {
				return err
			}
			return walk(e.Else)
		case *IndexExpr:
			if err := walk(e.Array); err != nil {
				return err
			}
			return walk(e.Index)
		case *DerefExpr:
			return walk(e.X)
		case *AddrExpr:
			return walk(e.X)
		case *CastExpr:
			return walk(e.X)
		}
		return nil
	}
	return walk(e)
}

// promote applies the integer promotions (everything computes at >= 32 bits).
func promote(t *Type) *Type {
	if t.IsInteger() && t.Bits < 32 {
		return Int
	}
	if t.Const {
		u := *t
		u.Const = false
		return &u
	}
	return t
}

// usualArith implements the usual arithmetic conversions for 32-bit ints.
func usualArith(a, b *Type) *Type {
	a, b = promote(a), promote(b)
	if !a.Signed || !b.Signed {
		return UInt
	}
	return Int
}

// normalizeStmt desugars statement-level ++/-- into plain assignments.
func normalizeStmt(s Stmt) Stmt {
	switch s := s.(type) {
	case *ExprStmt:
		s.X = normalizeExpr(s.X)
		return s
	}
	return s
}

// normalizeExpr rewrites a statement-root expression: ++/-- become
// lv = lv ± 1 (the value is unused at statement level, so prefix and
// postfix are equivalent).
func normalizeExpr(e Expr) Expr {
	id, ok := e.(*IncDecExpr)
	if !ok {
		return e
	}
	op := OpAdd
	if id.Decr {
		op = OpSub
	}
	one := &NumberLit{Pos: id.Pos, Val: 1, Typ: Int}
	rhs := &BinExpr{Pos: id.Pos, Op: op, L: cloneExpr(id.X), R: one}
	// Re-derive the type of the cloned lvalue and the sum. The clone
	// preserves resolved Decl pointers and types, so only the new nodes
	// need types.
	lt := id.X.Type().Decay()
	rhs.Typ = lt
	if lt.IsInteger() {
		rhs.Typ = promote(lt)
	}
	return &AssignExpr{Pos: id.Pos, LHS: id.X, RHS: rhs, Typ: id.X.Type()}
}

// isGlobalConstInit reports whether an expression is a valid global
// initializer: a constant expression or an address constant (&global, a
// global array's name, or a string literal) whose value the linker/layout
// resolves.
func isGlobalConstInit(e Expr) bool {
	if _, err := ConstEval(e); err == nil {
		return true
	}
	switch e := e.(type) {
	case *StringLit:
		return true
	case *VarRef:
		return e.Decl != nil && e.Decl.Global && e.Decl.Type.Kind == TypeArray
	case *AddrExpr:
		if lv, ok := e.X.(*VarRef); ok {
			return lv.Decl != nil && lv.Decl.Global
		}
	}
	return false
}

// errNotConst is ConstEval's answer for an expression outside its
// forms: one value, so a probe of an ordinary expression allocates
// nothing.
var errNotConst = errors.New("not a constant expression")

// ConstEval evaluates a compile-time constant expression. It supports the
// forms allowed in global initializers.
func ConstEval(e Expr) (int64, error) {
	switch e := e.(type) {
	case *NumberLit:
		return e.Val, nil
	case *UnExpr:
		v, err := ConstEval(e.X)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case OpNeg:
			return int64(int32(-v)), nil
		case OpBitNot:
			return int64(int32(^v)), nil
		case OpNot:
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
	case *BinExpr:
		l, err := ConstEval(e.L)
		if err != nil {
			return 0, err
		}
		r, err := ConstEval(e.R)
		if err != nil {
			return 0, err
		}
		return EvalTyped(e.Op, e.L.Type(), e.R.Type(), e.Typ, l, r)
	case *CastExpr:
		v, err := ConstEval(e.X)
		if err != nil {
			return 0, err
		}
		return truncateTo(v, e.To), nil
	}
	return 0, errNotConst
}

// EvalTyped evaluates op over l and r, operands of types lt and rt (after
// array decay) giving type typ, as C types it: pointer arithmetic scales
// by the element size (a void pointer by 1, as the compiler lowers it)
// and UnsignedOp picks the signedness. ConstEval and the interpreter
// both evaluate binary expressions here, and the compiler lowers them by
// the same two rules, so a condition ConstEval folds takes the side the
// compiled graph computes.
func EvalTyped(op BinOpKind, lt, rt, typ *Type, l, r int64) (int64, error) {
	switch {
	case lt.IsPointer() && rt.IsInteger() && (op == OpAdd || op == OpSub):
		r *= max(lt.Elem.Size(), 1)
	case rt.IsPointer() && lt.IsInteger() && op == OpAdd:
		l *= max(rt.Elem.Size(), 1)
	case lt.IsPointer() && rt.IsPointer() && op == OpSub:
		d := int64(int32(l - r))
		if sz := lt.Elem.Size(); sz > 1 {
			d /= sz
		}
		return d, nil
	}
	return evalBinOp(op, l, r, UnsignedOp(op, lt, rt, typ))
}

// UnsignedOp reports whether op takes unsigned semantics over operands of
// types lt and rt (after array decay) giving type typ. A comparison does
// when either operand is a pointer or an unsigned integer of at least 32
// bits (narrower unsigned values fit in a signed compare); other
// operators follow their result type.
func UnsignedOp(op BinOpKind, lt, rt, typ *Type) bool {
	if op.IsComparison() {
		return unsignedOperand(lt) || unsignedOperand(rt)
	}
	return typ.IsInteger() && !typ.Signed
}

func unsignedOperand(t *Type) bool {
	return t.IsPointer() || t.IsInteger() && !t.Signed && t.Bits >= 32
}

// EvalBinOp evaluates op over canonical 32-bit values with pisa hardware
// semantics (wrapping arithmetic); uns selects unsigned semantics for
// division, remainder, shifts, and comparisons. Division by zero returns
// an error; hardware models may substitute 0.
func EvalBinOp(op BinOpKind, l, r int64, uns bool) (int64, error) {
	return evalBinOp(op, l, r, uns)
}

// evalBinOp evaluates op over 32-bit values; uns selects unsigned semantics
// for division, remainder, shifts, and comparisons.
func evalBinOp(op BinOpKind, l, r int64, uns bool) (int64, error) {
	li, ri := int32(l), int32(r)
	lu, ru := uint32(l), uint32(r)
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case OpAdd:
		return int64(li + ri), nil
	case OpSub:
		return int64(li - ri), nil
	case OpMul:
		return int64(li * ri), nil
	case OpDiv:
		if ri == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		if uns {
			return int64(int32(lu / ru)), nil
		}
		if li == -1<<31 && ri == -1 {
			return int64(li), nil // wraps like pisa hardware
		}
		return int64(li / ri), nil
	case OpRem:
		if ri == 0 {
			return 0, fmt.Errorf("remainder by zero")
		}
		if uns {
			return int64(int32(lu % ru)), nil
		}
		if li == -1<<31 && ri == -1 {
			return 0, nil
		}
		return int64(li % ri), nil
	case OpAnd:
		return int64(li & ri), nil
	case OpOr:
		return int64(li | ri), nil
	case OpXor:
		return int64(li ^ ri), nil
	case OpShl:
		return int64(li << (ru & 31)), nil
	case OpShr:
		if uns {
			return int64(int32(lu >> (ru & 31))), nil
		}
		return int64(li >> (ru & 31)), nil
	case OpEq:
		return b2i(li == ri), nil
	case OpNe:
		return b2i(li != ri), nil
	case OpLt:
		if uns {
			return b2i(lu < ru), nil
		}
		return b2i(li < ri), nil
	case OpLe:
		if uns {
			return b2i(lu <= ru), nil
		}
		return b2i(li <= ri), nil
	case OpGt:
		if uns {
			return b2i(lu > ru), nil
		}
		return b2i(li > ri), nil
	case OpGe:
		if uns {
			return b2i(lu >= ru), nil
		}
		return b2i(li >= ri), nil
	case OpLogAnd: // operands tested whole, as the interpreter does
		return b2i(l != 0 && r != 0), nil
	case OpLogOr:
		return b2i(l != 0 || r != 0), nil
	}
	return 0, fmt.Errorf("evalBinOp: unknown operator %v", op)
}

// truncateTo narrows v to the representation of type t, then sign- or
// zero-extends back to int64.
// The canonical in-compiler representation of every 32-bit quantity
// (signed, unsigned, or pointer) is the sign-extended int32 bit pattern;
// narrower values are extended per their own signedness.
func truncateTo(v int64, t *Type) int64 {
	if t.IsPointer() {
		return int64(int32(v))
	}
	if !t.IsInteger() {
		return v
	}
	switch t.Bits {
	case 8:
		if t.Signed {
			return int64(int8(v))
		}
		return int64(uint8(v))
	case 16:
		if t.Signed {
			return int64(int16(v))
		}
		return int64(uint16(v))
	default:
		return int64(int32(v))
	}
}
