package cminor

import (
	"fmt"
	"math"
)

// TypeKind discriminates cMinor types.
type TypeKind int

// Type kinds.
const (
	TypeVoid TypeKind = iota
	TypeInt           // integer of some width and signedness
	TypePointer
	TypeArray
	TypeFunc
)

// Type describes a cMinor type. Types are interned-by-construction through
// the package-level constructors; equality is structural via Same.
type Type struct {
	Kind   TypeKind
	Bits   int   // TypeInt: 8, 16, or 32
	Signed bool  // TypeInt
	Elem   *Type // TypePointer, TypeArray
	Len    int64 // TypeArray; -1 for unsized extern arrays
	Const  bool  // object is immutable (const qualifier)

	// TypeFunc:
	Ret    *Type
	Params []*Type
}

// Predefined scalar types.
var (
	Void   = &Type{Kind: TypeVoid}
	Int    = &Type{Kind: TypeInt, Bits: 32, Signed: true}
	UInt   = &Type{Kind: TypeInt, Bits: 32, Signed: false}
	Short  = &Type{Kind: TypeInt, Bits: 16, Signed: true}
	UShort = &Type{Kind: TypeInt, Bits: 16, Signed: false}
	Char   = &Type{Kind: TypeInt, Bits: 8, Signed: true}
	UChar  = &Type{Kind: TypeInt, Bits: 8, Signed: false}
)

// PointerTo returns the type *elem.
func PointerTo(elem *Type) *Type { return &Type{Kind: TypePointer, Elem: elem} }

// ArrayOf returns the type elem[n]; n may be -1 for an unsized extern array.
func ArrayOf(elem *Type, n int64) *Type {
	return &Type{Kind: TypeArray, Elem: elem, Len: n}
}

// ConstOf returns a copy of t with the const qualifier set.
func ConstOf(t *Type) *Type {
	c := *t
	c.Const = true
	return &c
}

// FuncType returns a function type.
func FuncType(ret *Type, params []*Type) *Type {
	return &Type{Kind: TypeFunc, Ret: ret, Params: params}
}

// Size returns the object size in bytes. Pointers are 4 bytes (the paper
// models a 32-bit pisa machine). Array sizes past int64 saturate at
// math.MaxInt64.
func (t *Type) Size() int64 {
	switch t.Kind {
	case TypeVoid:
		return 0
	case TypeInt:
		return int64(t.Bits / 8)
	case TypePointer:
		return 4
	case TypeArray:
		if t.Len < 0 {
			return 0
		}
		// Saturate rather than wrap: an array too large for int64 must
		// still read as too large, not as a small or unsized one.
		es := t.Elem.Size()
		if es > 0 && t.Len > math.MaxInt64/es {
			return math.MaxInt64
		}
		return t.Len * es
	}
	return 0
}

// IsInteger reports whether t is an integer type.
func (t *Type) IsInteger() bool { return t.Kind == TypeInt }

// IsPointer reports whether t is a pointer type.
func (t *Type) IsPointer() bool { return t.Kind == TypePointer }

// IsArray reports whether t is an array type.
func (t *Type) IsArray() bool { return t.Kind == TypeArray }

// IsScalar reports whether t is an integer or pointer (register-allocatable).
func (t *Type) IsScalar() bool { return t.IsInteger() || t.IsPointer() }

// Decay returns the type after array-to-pointer decay.
func (t *Type) Decay() *Type {
	if t.Kind == TypeArray {
		p := PointerTo(t.Elem)
		p.Const = t.Const || t.Elem.Const
		return p
	}
	return t
}

// Same reports structural type equality, ignoring const qualifiers.
func (t *Type) Same(o *Type) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case TypeVoid:
		return true
	case TypeInt:
		return t.Bits == o.Bits && t.Signed == o.Signed
	case TypePointer:
		return t.Elem.Same(o.Elem)
	case TypeArray:
		return t.Len == o.Len && t.Elem.Same(o.Elem)
	case TypeFunc:
		if !t.Ret.Same(o.Ret) || len(t.Params) != len(o.Params) {
			return false
		}
		for i := range t.Params {
			if !t.Params[i].Same(o.Params[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// String renders the type in C-like syntax.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	prefix := ""
	if t.Const {
		prefix = "const "
	}
	switch t.Kind {
	case TypeVoid:
		return prefix + "void"
	case TypeInt:
		name := ""
		switch t.Bits {
		case 8:
			name = "char"
		case 16:
			name = "short"
		case 32:
			name = "int"
		default:
			name = fmt.Sprintf("int%d", t.Bits)
		}
		if !t.Signed {
			name = "unsigned " + name
		}
		return prefix + name
	case TypePointer:
		return prefix + t.Elem.String() + "*"
	case TypeArray:
		if t.Len < 0 {
			return prefix + t.Elem.String() + "[]"
		}
		return prefix + fmt.Sprintf("%s[%d]", t.Elem, t.Len)
	case TypeFunc:
		s := t.Ret.String() + " (*)("
		for i, p := range t.Params {
			if i > 0 {
				s += ", "
			}
			s += p.String()
		}
		return s + ")"
	}
	return "<bad type>"
}
