// Package uts implements the Universal Type System (UTS), the type
// specification language and machine-independent intermediate data
// representation used by the Schooner heterogeneous RPC facility.
//
// UTS provides three things:
//
//   - a type model covering the simple types (integer, long, byte,
//     boolean, float, double, string) and the structured types (fixed
//     length arrays and records) used by scientific codes;
//
//   - a Pascal-like specification language in which an export
//     specification is written for every procedure made publicly
//     available and a nearly identical import specification is written
//     for the invoking code (see Parse);
//
//   - a common data interchange format (the intermediate
//     representation) together with encode/decode routines that convert
//     between a machine's native format and the interchange format
//     (see Encode/Decode and package machine for the native side).
//
// The original UTS carried only double-precision floating point,
// following the K&R C promotion rules; both single- and
// double-precision floats are supported here, reflecting the change
// described in section 4.1 of the paper.
package uts

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the primitive and structured type constructors of UTS.
type Kind int

const (
	// Integer is a 32-bit two's-complement signed integer.
	Integer Kind = iota
	// Long is a 64-bit two's-complement signed integer. It exists so
	// that machines with 64-bit native words (for example a Cray) can
	// exchange full-width integers when both ends agree to it.
	Long
	// Byte is an uninterpreted 8-bit quantity.
	Byte
	// Boolean is a truth value, carried as a single byte (0 or 1).
	Boolean
	// Float is an IEEE-754 single-precision floating point value.
	Float
	// Double is an IEEE-754 double-precision floating point value.
	Double
	// String is a variable-length sequence of bytes preceded by a
	// 32-bit length.
	String
	// Array is a fixed-length homogeneous sequence; the length is part
	// of the type.
	Array
	// Record is a heterogeneous sequence of named fields.
	Record
)

// String returns the specification-language spelling of the kind.
func (k Kind) String() string {
	switch k {
	case Integer:
		return "integer"
	case Long:
		return "long"
	case Byte:
		return "byte"
	case Boolean:
		return "boolean"
	case Float:
		return "float"
	case Double:
		return "double"
	case String:
		return "string"
	case Array:
		return "array"
	case Record:
		return "record"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Type describes a UTS data type. Types are immutable once built;
// the constructors below are the supported way to obtain one.
type Type struct {
	kind   Kind
	length int     // array length
	elem   *Type   // array element type
	fields []Field // record fields
	// size caches FixedSize, which sits on the per-element marshal
	// path: positive when fixed, negative when variable, zero when not
	// computed (a Type the constructors below did not build).
	size int
}

// Field is a single named component of a record type.
type Field struct {
	Name string
	Type *Type
}

// Predefined singleton types for the simple kinds. They are literals,
// with the size sized would cache written out (TestSingletonSizes
// checks it), so the linker places them in the data segment: every
// decoded element points at one, and a pointer the collector finds
// outside the heap costs it no lookup.
var (
	TInteger = &Type{kind: Integer, size: 4}
	TLong    = &Type{kind: Long, size: 8}
	TByte    = &Type{kind: Byte, size: 1}
	TBoolean = &Type{kind: Boolean, size: 1}
	TFloat   = &Type{kind: Float, size: 4}
	TDouble  = &Type{kind: Double, size: 8}
	TString  = &Type{kind: String, size: -1}
)

// sized fills in a new type's cached size.
func sized(t *Type) *Type {
	n, ok := t.fixedSize()
	if !ok {
		n = -1
	}
	t.size = n
	return t
}

// ArrayOf returns the type "array[n] of elem". It panics if n is not
// positive or elem is nil, since those are programming errors in the
// caller rather than data errors.
func ArrayOf(n int, elem *Type) *Type {
	if n <= 0 {
		panic(fmt.Sprintf("uts: array length %d must be positive", n))
	}
	if elem == nil {
		panic("uts: array element type must not be nil")
	}
	return sized(&Type{kind: Array, length: n, elem: elem})
}

// RecordOf returns a record type with the given fields, in order.
// Field names must be non-empty and unique within the record.
func RecordOf(fields ...Field) (*Type, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("uts: record must have at least one field")
	}
	seen := make(map[string]bool, len(fields))
	for _, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("uts: record field name must not be empty")
		}
		if f.Type == nil {
			return nil, fmt.Errorf("uts: record field %q has nil type", f.Name)
		}
		if seen[f.Name] {
			return nil, fmt.Errorf("uts: duplicate record field %q", f.Name)
		}
		seen[f.Name] = true
	}
	return sized(&Type{kind: Record, fields: append([]Field(nil), fields...)}), nil
}

// MustRecordOf is RecordOf but panics on error; for package-level
// declarations of statically known record types.
func MustRecordOf(fields ...Field) *Type {
	t, err := RecordOf(fields...)
	if err != nil {
		panic(err)
	}
	return t
}

// Kind reports the type constructor of t.
func (t *Type) Kind() Kind { return t.kind }

// Len reports the length of an array type; it is zero for other kinds.
func (t *Type) Len() int { return t.length }

// Elem reports the element type of an array; it is nil for other kinds.
func (t *Type) Elem() *Type { return t.elem }

// Fields reports the fields of a record type; it is nil for other
// kinds. The returned slice must not be modified.
func (t *Type) Fields() []Field { return t.fields }

// String renders the type in the specification language syntax, for
// example "array[4] of float".
func (t *Type) String() string {
	var b strings.Builder
	t.write(&b)
	return b.String()
}

func (t *Type) write(b *strings.Builder) {
	switch t.kind {
	case Array:
		var n [20]byte
		b.WriteString("array[")
		b.Write(strconv.AppendInt(n[:0], int64(t.length), 10))
		b.WriteString("] of ")
		t.elem.write(b)
	case Record:
		b.WriteString("record (")
		for i, f := range t.fields {
			if i > 0 {
				b.WriteString(", ")
			}
			// Verbatim quoting, matching the lexer's raw (escape-free)
			// string syntax; see writeName in spec.go.
			writeName(b, f.Name)
			b.WriteByte(' ')
			f.Type.write(b)
		}
		b.WriteString(")")
	default:
		b.WriteString(t.kind.String())
	}
}

// Equal reports whether two types are structurally identical,
// including array lengths and record field names.
func (t *Type) Equal(u *Type) bool {
	if t == u {
		return true
	}
	if t == nil || u == nil || t.kind != u.kind {
		return false
	}
	switch t.kind {
	case Array:
		return t.length == u.length && t.elem.Equal(u.elem)
	case Record:
		if len(t.fields) != len(u.fields) {
			return false
		}
		for i := range t.fields {
			if t.fields[i].Name != u.fields[i].Name ||
				!t.fields[i].Type.Equal(u.fields[i].Type) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// FixedSize reports the number of bytes the intermediate representation
// of a value of this type occupies, and whether that size is fixed.
// Strings (and any aggregate containing one) are variable-sized.
func (t *Type) FixedSize() (int, bool) {
	if t.size > 0 {
		return t.size, true
	}
	if t.size < 0 {
		return 0, false
	}
	return t.fixedSize()
}

// scalarSize is FixedSize for the scalar kinds that have one, and false
// for strings and aggregates: the types the codec's per-element kernels
// handle.
func (t *Type) scalarSize() (int, bool) {
	if t.kind >= String {
		return 0, false
	}
	return t.FixedSize()
}

func (t *Type) fixedSize() (int, bool) {
	switch t.kind {
	case Integer, Float:
		return 4, true
	case Long, Double:
		return 8, true
	case Byte, Boolean:
		return 1, true
	case String:
		return 0, false
	case Array:
		n, ok := t.elem.FixedSize()
		return n * t.length, ok
	case Record:
		total := 0
		for _, f := range t.fields {
			n, ok := f.Type.FixedSize()
			if !ok {
				return 0, false
			}
			total += n
		}
		return total, true
	}
	return 0, false
}
