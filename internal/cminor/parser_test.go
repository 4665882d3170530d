package cminor

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return prog
}

func mustFront(t *testing.T, src string) *Program {
	t.Helper()
	prog := mustParse(t, src)
	if err := Check(prog); err != nil {
		t.Fatalf("Check: %v", err)
	}
	return prog
}

func TestParseGlobalScalars(t *testing.T) {
	prog := mustFront(t, "int x; unsigned y = 3; static int z = -1;")
	if len(prog.Globals) != 3 {
		t.Fatalf("globals = %d, want 3", len(prog.Globals))
	}
	if prog.Globals[1].Type != UInt && !prog.Globals[1].Type.Same(UInt) {
		t.Errorf("y type = %v", prog.Globals[1].Type)
	}
	v, err := ConstEval(prog.Globals[2].Init)
	if err != nil || v != -1 {
		t.Errorf("z init = %d, %v", v, err)
	}
	if !prog.Globals[2].Static {
		t.Error("z not marked static")
	}
}

func TestParseArrays(t *testing.T) {
	prog := mustFront(t, "int a[10]; extern int b[]; int m[2][3]; char s[4] = {1,2,3,4};")
	a := prog.Global("a")
	if !a.Type.IsArray() || a.Type.Len != 10 {
		t.Errorf("a type = %v", a.Type)
	}
	b := prog.Global("b")
	if !b.Type.IsArray() || b.Type.Len != -1 || !b.Extern {
		t.Errorf("b = %+v", b)
	}
	m := prog.Global("m")
	if m.Type.Len != 2 || m.Type.Elem.Len != 3 {
		t.Errorf("m type = %v, want int[2][3]", m.Type)
	}
	s := prog.Global("s")
	if len(s.InitList) != 4 {
		t.Errorf("s initializers = %d", len(s.InitList))
	}
}

func TestParsePointerTypes(t *testing.T) {
	prog := mustFront(t, "int *p; const char *s; int **pp;")
	if !prog.Global("p").Type.IsPointer() {
		t.Error("p not a pointer")
	}
	s := prog.Global("s").Type
	if !s.IsPointer() || !s.Elem.Const || s.Elem.Bits != 8 {
		t.Errorf("s type = %v", s)
	}
	pp := prog.Global("pp").Type
	if !pp.IsPointer() || !pp.Elem.IsPointer() {
		t.Errorf("pp type = %v", pp)
	}
}

func TestParseFunctionAndCalls(t *testing.T) {
	prog := mustFront(t, `
int add(int a, int b) { return a + b; }
int main(void) { return add(1, 2); }
`)
	if len(prog.Funcs) != 2 {
		t.Fatalf("funcs = %d", len(prog.Funcs))
	}
	main := prog.Func("main")
	ret := main.Body.Stmts[0].(*ReturnStmt)
	call := ret.X.(*CallExpr)
	if call.Func == nil || call.Func.Name != "add" {
		t.Errorf("call not resolved: %+v", call)
	}
}

func TestParsePrototypeThenDefinition(t *testing.T) {
	prog := mustFront(t, `
int f(int x);
int g(int x) { return f(x); }
int f(int x) { return x + 1; }
`)
	g := prog.Func("g")
	call := g.Body.Stmts[0].(*ReturnStmt).X.(*CallExpr)
	if call.Func.Body == nil {
		t.Error("call resolved to the prototype, not the definition")
	}
}

func TestParseControlFlow(t *testing.T) {
	prog := mustFront(t, `
int f(int n) {
  int s = 0;
  int i;
  for (i = 0; i < n; i++) {
    if (i % 2 == 0) s += i; else s -= i;
    while (s > 100) { s /= 2; }
    do { s++; } while (s < 0);
    if (s == 42) break;
    if (s == 7) continue;
  }
  return s;
}
`)
	f := prog.Func("f")
	if f == nil || len(f.Locals) != 2 {
		t.Fatalf("locals = %d, want 2", len(f.Locals))
	}
}

func TestParsePrecedence(t *testing.T) {
	prog := mustFront(t, "int f(int a, int b, int c) { return a + b * c; }")
	ret := prog.Func("f").Body.Stmts[0].(*ReturnStmt)
	add := ret.X.(*BinExpr)
	if add.Op != OpAdd {
		t.Fatalf("root op = %v", add.Op)
	}
	if mul, ok := add.R.(*BinExpr); !ok || mul.Op != OpMul {
		t.Errorf("b*c not grouped under +: %T", add.R)
	}
}

func TestParseTernaryAndShortCircuit(t *testing.T) {
	mustFront(t, `
int f(int a, int b) { return a ? a + 1 : b - 1; }
int g(int *p) { return p && *p; }
int h(int a, int b) { return a || b; }
`)
}

func TestParseCompoundAssignDesugars(t *testing.T) {
	prog := mustFront(t, "int a[10]; void f(int i) { a[i] += 3; }")
	st := prog.Func("f").Body.Stmts[0].(*ExprStmt)
	asn := st.X.(*AssignExpr)
	rhs := asn.RHS.(*BinExpr)
	if rhs.Op != OpAdd {
		t.Fatalf("rhs op = %v", rhs.Op)
	}
	if _, ok := rhs.L.(*IndexExpr); !ok {
		t.Errorf("compound assign did not clone the lvalue: %T", rhs.L)
	}
}

func TestParseIncDecDesugars(t *testing.T) {
	prog := mustFront(t, "void f(void) { int i = 0; i++; --i; }")
	f := prog.Func("f")
	for _, idx := range []int{1, 2} {
		st, ok := f.Body.Stmts[idx].(*ExprStmt)
		if !ok {
			t.Fatalf("stmt %d is %T", idx, f.Body.Stmts[idx])
		}
		if _, ok := st.X.(*AssignExpr); !ok {
			t.Errorf("stmt %d not desugared to assignment: %T", idx, st.X)
		}
	}
}

func TestParsePragmaIndependent(t *testing.T) {
	prog := mustFront(t, `
void f(int *p, int *q) {
  #pragma independent p q
  *p = *q + 1;
}
`)
	f := prog.Func("f")
	if len(f.Pragmas) != 1 || f.Pragmas[0].A != "p" || f.Pragmas[0].B != "q" {
		t.Fatalf("pragmas = %+v", f.Pragmas)
	}
}

func TestParseCastsAndSizedTypes(t *testing.T) {
	mustFront(t, `
void f(char *buf, int n) {
  short s = (short)n;
  unsigned char c = (unsigned char)(n >> 8);
  buf[0] = (char)s;
  buf[1] = (char)c;
  int *ip = (int*)buf;
  *ip = (int)c;
}
`)
}

func TestParseStringLiteralInterned(t *testing.T) {
	prog := mustFront(t, `
const char *f(void) { return "abc"; }
const char *g(void) { return "abc"; }
const char *h(void) { return "xyz"; }
`)
	if len(prog.Strings) != 2 {
		t.Fatalf("interned strings = %d, want 2", len(prog.Strings))
	}
}

func TestParseErrorCases(t *testing.T) {
	bad := map[string]string{
		"int f( { }":                                    "expected",
		"int x = ;":                                     "expression",
		"void f(void) { y = 1; }":                       "undeclared",
		"void f(void) { int x; int x; }":                "redeclared",
		"int f(void) { return; }":                       "missing return value",
		"void f(void) { return 1; }":                    "return with a value",
		"void f(int a) { (a = 1) + 2; }":                "assignment may only appear",
		"void f(int a, int b) { int c = a ? b++ : 0; }": "may only appear",
		"void f(int *p) { int x = p && f(p); }":         "call not allowed",
		"int g(int y);\nvoid f(void) { g(1,2); }":       "expects 1 arguments",
		"void f(void) { h(); }":                         "undeclared function",
		"void f(void) { int a[]; }":                     "extern",
		"int a[0];":                                     "non-positive",
		"void f(void) { break }":                        "expected",
		"#pragma independent a b\nint x;":               "inside a function",
		"void f(int x) { #pragma independent x x\n }":   "not a pointer",
		"void f(void) { #pragma independent p q\n }":    "unknown name",
		"void f(const int *p) { *p = 1; }":              "const",
		"void f(int x) { 3 = x; }":                      "not an lvalue",
		"void f(int x) { x++ ++; }":                     "may only appear",
		"int a[2][3];\nvoid f(int *p) { a[1] = p; }":    "cannot assign to array",
		"void f(int *p) { int a[4]; a = p; }":           "cannot assign to array",
		"int a[2][3];\nvoid f(void) { a[1]++; }":        "is an array",
		"void f(const int *p) { (*p)++; }":              "const",
		"void f(void *p) { *p; }":                       "cannot dereference",
		"int f(void *p) { return &p[1] != 0; }":         "cannot index",
		"void g(void);\nint f(void) { return !g(); }":   "used as a value",
	}
	for src, want := range bad {
		prog, err := Parse(src)
		if err == nil {
			err = Check(prog)
		}
		if err == nil {
			t.Errorf("front end accepted %q", src)
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error for %q = %q, want substring %q", src, err, want)
		}
	}
}

func TestAddrTakenMarking(t *testing.T) {
	prog := mustFront(t, `
int g(int *p) { return *p; }
int f(void) {
  int x = 1;
  int y = 2;
  int r = g(&x);
  return r + y;
}
`)
	f := prog.Func("f")
	byName := map[string]*VarDecl{}
	for _, l := range f.Locals {
		byName[l.Name] = l
	}
	if !byName["x"].AddrTaken {
		t.Error("x should be address-taken")
	}
	if byName["y"].AddrTaken {
		t.Error("y should not be address-taken")
	}
}

func TestTypeRules(t *testing.T) {
	prog := mustFront(t, `
unsigned u;
int f(int a, unsigned b, int *p) {
  int x = a + 1;
  unsigned y = a + b;
  int c = a < (int)b;
  int *q = p + a;
  int d = q - p;
  return x + (int)y + c + *q + d;
}
`)
	f := prog.Func("f")
	// a + b with one unsigned operand is unsigned.
	decl := f.Body.Stmts[1].(*DeclStmt)
	bin := decl.Var.Init.(*BinExpr)
	if bin.Typ.Signed {
		t.Errorf("a + b type = %v, want unsigned", bin.Typ)
	}
	// q - p is int.
	d := f.Body.Stmts[4].(*DeclStmt)
	if !d.Var.Init.(*BinExpr).Typ.Same(Int) {
		t.Errorf("q - p type = %v", d.Var.Init.Type())
	}
}

func TestConstEval(t *testing.T) {
	cases := map[string]int64{
		"1 + 2*3":                  7,
		"-(4)":                     -4,
		"~0":                       -1,
		"!3":                       0,
		"!0":                       1,
		"10 / 3":                   3,
		"10 % 3":                   1,
		"1 << 4":                   16,
		"0x100 >> 4":               16,
		"(5 > 2) + (1 == 1)":       2,
		"7 & 3":                    3,
		"1 | 6":                    7,
		"5 ^ 1":                    4,
		"(unsigned)-1 > 0":         1, // a 32-bit unsigned operand compares unsigned
		"(int *)8 - (int *)0":      2, // pointer arithmetic scales by the element size
		"(int *)0 + 1 == (int *)4": 1,
		"(void *)8 + 1":            9,
		"-4294967296":              0, // negation wraps at 32 bits
		"4294967296 && 1":          1, // a logical operand is tested whole
	}
	for src, want := range cases {
		prog := mustFront(t, "int x = "+src+";")
		got, err := ConstEval(prog.Globals[0].Init)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		if got != want {
			t.Errorf("%q = %d, want %d", src, got, want)
		}
	}
}

func TestConstEvalDivZero(t *testing.T) {
	prog := mustParse(t, "int x = 1/0;")
	if err := Check(prog); err == nil {
		t.Error("1/0 accepted as constant initializer")
	}
}

func TestTruncateTo(t *testing.T) {
	cases := []struct {
		v    int64
		t    *Type
		want int64
	}{
		{0x1ff, Char, -1},
		{0x1ff, UChar, 0xff},
		{0x18000, Short, -0x8000},
		{0x18000, UShort, 0x8000},
		{1 << 33, Int, 0},
		{0xffffffff, UInt, -1}, // canonical sign-extended form
	}
	for _, c := range cases {
		if got := truncateTo(c.v, c.t); got != c.want {
			t.Errorf("truncateTo(%#x, %v) = %d, want %d", c.v, c.t, got, c.want)
		}
	}
}

func TestUsualArith(t *testing.T) {
	if usualArith(Char, Char).Bits != 32 {
		t.Error("char+char should promote to 32 bits")
	}
	if usualArith(Int, UInt).Signed {
		t.Error("int+unsigned should be unsigned")
	}
	if !usualArith(Short, Char).Signed {
		t.Error("short+char should be signed int")
	}
}

func TestGlobalAddressInitializers(t *testing.T) {
	prog := mustFront(t, `
int target;
int arr[4];
int *gp = &target;
int *ap = arr;
const char *msg = "hello";
void f(void) { *gp = 1; }
`)
	if prog.Global("gp") == nil {
		t.Fatal("gp missing")
	}
}

func TestGlobalBadInitializers(t *testing.T) {
	bad := []string{
		"int x; int y = x;",                      // value of another global: not const
		"int f(void) { return 1; } int z = f();", // call
	}
	for _, src := range bad {
		prog, err := Parse(src)
		if err == nil {
			err = Check(prog)
		}
		if err == nil {
			t.Errorf("accepted non-constant global initializer: %q", src)
		}
	}
}
