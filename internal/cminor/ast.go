package cminor

// This file defines the abstract syntax tree produced by the parser and
// decorated by the type checker.

// Program is one translation unit.
type Program struct {
	Globals []*VarDecl
	Funcs   []*FuncDecl
	// Strings holds the string literals of the program in first-appearance
	// order; each becomes an anonymous const char array object.
	Strings []*StringLit
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Global returns the global variable with the given name, or nil.
func (p *Program) Global(name string) *VarDecl {
	for _, g := range p.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// VarDecl declares a variable (global, local, or parameter).
type VarDecl struct {
	Pos      Pos
	Name     string
	Type     *Type
	Extern   bool
	Static   bool
	Init     Expr   // scalar initializer, or nil
	InitList []Expr // array initializer elements, or nil
	// IsParam marks function parameters.
	IsParam bool
	// AddrTaken is set by the type checker when &v appears or when the
	// variable is an array (arrays live in memory). Scalars without
	// AddrTaken are register-allocated in Pegasus (paper Section 3.3).
	AddrTaken bool
	// Global marks file-scope variables.
	Global bool
}

// FuncDecl declares or defines a function.
type FuncDecl struct {
	Pos    Pos
	Name   string
	Ret    *Type
	Params []*VarDecl
	Body   *BlockStmt // nil for a declaration (extern prototype)
	Locals []*VarDecl // all locals, filled by the checker
	// Pragmas holds independence annotations declared anywhere in the body.
	Pragmas []IndependentPragma
}

// Type returns the function's type.
func (f *FuncDecl) Type() *Type {
	params := make([]*Type, len(f.Params))
	for i, p := range f.Params {
		params[i] = p.Type
	}
	return FuncType(f.Ret, params)
}

// IndependentPragma records `#pragma independent p q`: a promise that the
// two named pointers never alias in this function (paper Section 7.1).
type IndependentPragma struct {
	Pos  Pos
	A, B string
}

// Stmt is implemented by all statement nodes.
type Stmt interface{ stmt() }

// Expr is implemented by all expression nodes. Every expression carries
// the type assigned by the checker.
type Expr interface {
	expr()
	Type() *Type
	Position() Pos
}

// --- Statements ---

// BlockStmt is a { ... } sequence with its own scope.
type BlockStmt struct {
	Pos   Pos
	Stmts []Stmt
}

// DeclStmt declares a local variable.
type DeclStmt struct {
	Pos Pos
	Var *VarDecl
}

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct {
	Pos Pos
	X   Expr
}

// IfStmt is if/else.
type IfStmt struct {
	Pos  Pos
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Pos  Pos
	Cond Expr
	Body Stmt
}

// DoWhileStmt is a do { } while loop.
type DoWhileStmt struct {
	Pos  Pos
	Body Stmt
	Cond Expr
}

// ForStmt is a for loop; Init/Cond/Post may each be nil.
type ForStmt struct {
	Pos  Pos
	Init Stmt // DeclStmt or ExprStmt
	Cond Expr
	Post Expr
	Body Stmt
}

// ReturnStmt returns from the function; X may be nil for void.
type ReturnStmt struct {
	Pos Pos
	X   Expr
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ Pos Pos }

// ContinueStmt restarts the innermost loop.
type ContinueStmt struct{ Pos Pos }

// PragmaStmt is a `#pragma independent a b` occurrence in statement
// position. The checker records it in FuncDecl.Pragmas; it generates no
// code.
type PragmaStmt struct {
	Pos    Pos
	Pragma IndependentPragma
}

// EmptyStmt is a bare semicolon.
type EmptyStmt struct{ Pos Pos }

func (*BlockStmt) stmt()    {}
func (*DeclStmt) stmt()     {}
func (*ExprStmt) stmt()     {}
func (*IfStmt) stmt()       {}
func (*WhileStmt) stmt()    {}
func (*DoWhileStmt) stmt()  {}
func (*ForStmt) stmt()      {}
func (*ReturnStmt) stmt()   {}
func (*BreakStmt) stmt()    {}
func (*ContinueStmt) stmt() {}
func (*PragmaStmt) stmt()   {}
func (*EmptyStmt) stmt()    {}

// --- Expressions ---

// BinOpKind enumerates binary operators (after assignment desugaring).
type BinOpKind uint8

// Binary operators.
const (
	OpAdd BinOpKind = iota
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpLogAnd // short-circuit &&
	OpLogOr  // short-circuit ||
)

var binOpNames = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpRem: "%",
	OpAnd: "&", OpOr: "|", OpXor: "^", OpShl: "<<", OpShr: ">>",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpLogAnd: "&&", OpLogOr: "||",
}

// String returns the C spelling of the operator.
func (op BinOpKind) String() string { return binOpNames[op] }

// IsComparison reports whether op yields a boolean truth value.
func (op BinOpKind) IsComparison() bool {
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

// UnOpKind enumerates unary operators.
type UnOpKind int

// Unary operators.
const (
	OpNeg    UnOpKind = iota // -
	OpNot                    // !
	OpBitNot                 // ~
)

var unOpNames = [...]string{OpNeg: "-", OpNot: "!", OpBitNot: "~"}

// String returns the C spelling of the operator.
func (op UnOpKind) String() string { return unOpNames[op] }

// NumberLit is an integer literal.
type NumberLit struct {
	Pos Pos
	Val int64
	Typ *Type
}

// StringLit is a string literal; it denotes a const char array object.
type StringLit struct {
	Pos   Pos
	Value string
	Index int // index into Program.Strings, set by the checker
	Typ   *Type
}

// VarRef names a variable.
type VarRef struct {
	Pos  Pos
	Name string
	Decl *VarDecl // resolved by the checker
	Typ  *Type
}

// BinExpr is a binary operation.
type BinExpr struct {
	Pos  Pos
	Op   BinOpKind
	L, R Expr
	Typ  *Type
}

// UnExpr is a unary operation.
type UnExpr struct {
	Pos Pos
	Op  UnOpKind
	X   Expr
	Typ *Type
}

// CondExpr is the ternary ?: operator.
type CondExpr struct {
	Pos  Pos
	Cond Expr
	Then Expr
	Else Expr
	Typ  *Type
}

// IndexExpr is a[i]; it is an lvalue.
type IndexExpr struct {
	Pos   Pos
	Array Expr
	Index Expr
	Typ   *Type
}

// DerefExpr is *p; it is an lvalue.
type DerefExpr struct {
	Pos Pos
	X   Expr
	Typ *Type
}

// AddrExpr is &lv.
type AddrExpr struct {
	Pos Pos
	X   Expr // must be an lvalue
	Typ *Type
}

// CastExpr is (T)x.
type CastExpr struct {
	Pos Pos
	To  *Type
	X   Expr
}

// CallExpr is f(args...).
type CallExpr struct {
	Pos    Pos
	Callee string
	Func   *FuncDecl // resolved by the checker
	Args   []Expr
	Typ    *Type
}

// AssignExpr is lv = rhs (compound assignments are desugared by the
// checker into Op + plain assignment; see normalize.go).
type AssignExpr struct {
	Pos Pos
	LHS Expr // lvalue: VarRef, IndexExpr, or DerefExpr
	RHS Expr
	Typ *Type
}

// IncDecExpr is ++lv / lv++ / --lv / lv--; desugared by the normalizer.
type IncDecExpr struct {
	Pos    Pos
	X      Expr
	Decr   bool
	Prefix bool
	Typ    *Type
}

func (*NumberLit) expr()  {}
func (*StringLit) expr()  {}
func (*VarRef) expr()     {}
func (*BinExpr) expr()    {}
func (*UnExpr) expr()     {}
func (*CondExpr) expr()   {}
func (*IndexExpr) expr()  {}
func (*DerefExpr) expr()  {}
func (*AddrExpr) expr()   {}
func (*CastExpr) expr()   {}
func (*CallExpr) expr()   {}
func (*AssignExpr) expr() {}
func (*IncDecExpr) expr() {}

// Type implementations.
func (e *NumberLit) Type() *Type  { return e.Typ }
func (e *StringLit) Type() *Type  { return e.Typ }
func (e *VarRef) Type() *Type     { return e.Typ }
func (e *BinExpr) Type() *Type    { return e.Typ }
func (e *UnExpr) Type() *Type     { return e.Typ }
func (e *CondExpr) Type() *Type   { return e.Typ }
func (e *IndexExpr) Type() *Type  { return e.Typ }
func (e *DerefExpr) Type() *Type  { return e.Typ }
func (e *AddrExpr) Type() *Type   { return e.Typ }
func (e *CastExpr) Type() *Type   { return e.To }
func (e *CallExpr) Type() *Type   { return e.Typ }
func (e *AssignExpr) Type() *Type { return e.Typ }
func (e *IncDecExpr) Type() *Type { return e.Typ }

// Position implementations.
func (e *NumberLit) Position() Pos  { return e.Pos }
func (e *StringLit) Position() Pos  { return e.Pos }
func (e *VarRef) Position() Pos     { return e.Pos }
func (e *BinExpr) Position() Pos    { return e.Pos }
func (e *UnExpr) Position() Pos     { return e.Pos }
func (e *CondExpr) Position() Pos   { return e.Pos }
func (e *IndexExpr) Position() Pos  { return e.Pos }
func (e *DerefExpr) Position() Pos  { return e.Pos }
func (e *AddrExpr) Position() Pos   { return e.Pos }
func (e *CastExpr) Position() Pos   { return e.Pos }
func (e *CallExpr) Position() Pos   { return e.Pos }
func (e *AssignExpr) Position() Pos { return e.Pos }
func (e *IncDecExpr) Position() Pos { return e.Pos }
