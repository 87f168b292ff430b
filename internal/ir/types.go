// Package ir implements a typed, SSA-oriented intermediate representation
// modelled on LLVM IR. It is the code representation every other layer of
// the reproduction consumes: the front-end lowers MPI-C programs into it,
// the pass pipelines (-O0/-O2/-Os) transform it, IR2Vec embeds it, the
// ProGraML-style graph builder walks it, and the MPI runtime simulator
// interprets it.
//
// The representation keeps LLVM's essential structure — modules holding
// globals and functions, functions holding basic blocks, blocks holding
// instructions that produce typed values — along with a textual syntax with
// a printer and parser that round-trip.
package ir

import "strconv"

// Kind enumerates the type constructors of the IR type system.
type Kind int

// Type kinds.
const (
	KVoid Kind = iota
	KInt1
	KInt8
	KInt32
	KInt64
	KFloat64
	KPtr
	KArray
	KStruct
	KFunc
	KLabel
)

// Type is an IR type. Types are interned by the constructors below so that
// equal types are pointer-equal for the scalar kinds; aggregate types
// compare structurally via Equal.
type Type struct {
	Kind   Kind
	Elem   *Type   // element type for KPtr and KArray
	Len    int     // array length for KArray
	Fields []*Type // field types for KStruct
	Params []*Type // parameter types for KFunc
	Ret    *Type   // return type for KFunc
	SName  string  // optional struct tag (e.g. "MPI_Status")
}

// Singleton scalar types.
var (
	Void    = &Type{Kind: KVoid}
	I1      = &Type{Kind: KInt1}
	I8      = &Type{Kind: KInt8}
	I32     = &Type{Kind: KInt32}
	I64     = &Type{Kind: KInt64}
	F64     = &Type{Kind: KFloat64}
	LabelTy = &Type{Kind: KLabel}
)

// PtrTo returns the pointer type *elem.
func PtrTo(elem *Type) *Type { return &Type{Kind: KPtr, Elem: elem} }

// ArrayOf returns the array type [n x elem].
func ArrayOf(n int, elem *Type) *Type { return &Type{Kind: KArray, Len: n, Elem: elem} }

// StructOf returns a struct type with the given tag and field types.
func StructOf(name string, fields ...*Type) *Type {
	return &Type{Kind: KStruct, SName: name, Fields: fields}
}

// FuncOf returns the function type ret(params...).
func FuncOf(ret *Type, params ...*Type) *Type {
	return &Type{Kind: KFunc, Ret: ret, Params: params}
}

// IsInt reports whether t is an integer type of any width.
func (t *Type) IsInt() bool {
	switch t.Kind {
	case KInt1, KInt8, KInt32, KInt64:
		return true
	}
	return false
}

// IsFloat reports whether t is a floating-point type.
func (t *Type) IsFloat() bool { return t.Kind == KFloat64 }

// IsPtr reports whether t is a pointer type.
func (t *Type) IsPtr() bool { return t.Kind == KPtr }

// IsAggregate reports whether t is an array or struct type.
func (t *Type) IsAggregate() bool { return t.Kind == KArray || t.Kind == KStruct }

// Bits returns the bit width of an integer type (0 for non-integers).
func (t *Type) Bits() int {
	switch t.Kind {
	case KInt1:
		return 1
	case KInt8:
		return 8
	case KInt32:
		return 32
	case KInt64:
		return 64
	}
	return 0
}

// Equal reports structural type equality.
func (t *Type) Equal(o *Type) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case KVoid, KInt1, KInt8, KInt32, KInt64, KFloat64, KLabel:
		return true
	case KPtr:
		return t.Elem.Equal(o.Elem)
	case KArray:
		return t.Len == o.Len && t.Elem.Equal(o.Elem)
	case KStruct:
		if len(t.Fields) != len(o.Fields) {
			return false
		}
		for i := range t.Fields {
			if !t.Fields[i].Equal(o.Fields[i]) {
				return false
			}
		}
		return true
	case KFunc:
		if !t.Ret.Equal(o.Ret) || len(t.Params) != len(o.Params) {
			return false
		}
		for i := range t.Params {
			if !t.Params[i].Equal(o.Params[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// scalarNames spells the scalar kinds; AppendString and String share it,
// so rendering a scalar type allocates nothing on either path.
var scalarNames = [...]string{
	KVoid: "void", KInt1: "i1", KInt8: "i8", KInt32: "i32", KInt64: "i64",
	KFloat64: "double", KLabel: "label",
}

// scalarName returns the spelling of a scalar kind, "" for the others.
func (k Kind) scalarName() string {
	if k >= 0 && int(k) < len(scalarNames) {
		return scalarNames[k]
	}
	return ""
}

// AppendString appends t's rendering in LLVM-like syntax to dst without
// any interior allocation, for hot paths that assemble type-derived tokens
// in a reusable buffer (the feature-token spellings in graphs).
func (t *Type) AppendString(dst []byte) []byte {
	if t == nil {
		return append(dst, "<nil-type>"...)
	}
	if name := t.Kind.scalarName(); name != "" {
		return append(dst, name...)
	}
	switch t.Kind {
	case KPtr:
		return append(t.Elem.AppendString(dst), '*')
	case KArray:
		dst = append(dst, '[')
		dst = strconv.AppendInt(dst, int64(t.Len), 10)
		dst = append(dst, " x "...)
		dst = t.Elem.AppendString(dst)
		return append(dst, ']')
	case KStruct:
		if t.SName != "" {
			return append(append(dst, "%struct."...), t.SName...)
		}
		dst = append(dst, '{')
		for i, f := range t.Fields {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = f.AppendString(dst)
		}
		return append(dst, '}')
	case KFunc:
		dst = t.Ret.AppendString(dst)
		dst = append(dst, " ("...)
		for i, p := range t.Params {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = p.AppendString(dst)
		}
		return append(dst, ')')
	}
	return append(dst, "<?>"...)
}

// String renders the type in LLVM-like syntax: AppendString's spelling,
// returned without allocating for the scalar kinds.
func (t *Type) String() string {
	if t != nil {
		if name := t.Kind.scalarName(); name != "" {
			return name
		}
	}
	var buf [64]byte
	return string(t.AppendString(buf[:0]))
}

// SizeOf returns the abstract size in bytes of a value of type t, used by
// alloca layout and GEP arithmetic in the interpreter.
func SizeOf(t *Type) int {
	switch t.Kind {
	case KInt1, KInt8:
		return 1
	case KInt32:
		return 4
	case KInt64, KFloat64, KPtr:
		return 8
	case KArray:
		return t.Len * SizeOf(t.Elem)
	case KStruct:
		n := 0
		for _, f := range t.Fields {
			n += SizeOf(f)
		}
		return n
	}
	return 0
}
