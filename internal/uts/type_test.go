package uts

import (
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Integer: "integer", Long: "long", Byte: "byte", Boolean: "boolean",
		Float: "float", Double: "double", String: "string",
		Array: "array", Record: "record",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind rendered %q", got)
	}
}

func TestArrayOf(t *testing.T) {
	a := ArrayOf(4, TFloat)
	if a.Kind() != Array || a.Len() != 4 || a.Elem() != TFloat {
		t.Fatalf("ArrayOf(4, float) = %v", a)
	}
	if got, want := a.String(), "array[4] of float"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	nested := ArrayOf(2, ArrayOf(3, TInteger))
	if got, want := nested.String(), "array[2] of array[3] of integer"; got != want {
		t.Errorf("nested String() = %q, want %q", got, want)
	}
}

func TestArrayOfPanics(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ArrayOf(%d) did not panic", n)
				}
			}()
			ArrayOf(n, TFloat)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ArrayOf with nil elem did not panic")
			}
		}()
		ArrayOf(1, nil)
	}()
}

func TestRecordOf(t *testing.T) {
	r, err := RecordOf(Field{"p", TDouble}, Field{"t", TDouble}, Field{"w", TFloat})
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind() != Record || len(r.Fields()) != 3 {
		t.Fatalf("RecordOf = %v", r)
	}
	if got, want := r.String(), `record ("p" double, "t" double, "w" float)`; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestRecordOfErrors(t *testing.T) {
	if _, err := RecordOf(); err == nil {
		t.Error("empty record accepted")
	}
	if _, err := RecordOf(Field{"", TFloat}); err == nil {
		t.Error("empty field name accepted")
	}
	if _, err := RecordOf(Field{"x", nil}); err == nil {
		t.Error("nil field type accepted")
	}
	if _, err := RecordOf(Field{"x", TFloat}, Field{"x", TDouble}); err == nil {
		t.Error("duplicate field name accepted")
	}
}

func TestTypeEqual(t *testing.T) {
	r1 := MustRecordOf(Field{"a", TFloat}, Field{"b", TInteger})
	r2 := MustRecordOf(Field{"a", TFloat}, Field{"b", TInteger})
	r3 := MustRecordOf(Field{"a", TFloat}, Field{"c", TInteger})
	r4 := MustRecordOf(Field{"a", TFloat})
	cases := []struct {
		a, b *Type
		want bool
	}{
		{TFloat, TFloat, true},
		{TFloat, TDouble, false},
		{TInteger, TLong, false},
		{ArrayOf(4, TFloat), ArrayOf(4, TFloat), true},
		{ArrayOf(4, TFloat), ArrayOf(5, TFloat), false},
		{ArrayOf(4, TFloat), ArrayOf(4, TDouble), false},
		{r1, r2, true},
		{r1, r3, false},
		{r1, r4, false},
		{nil, TFloat, false},
		{TFloat, nil, false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("(%v).Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestFixedSize(t *testing.T) {
	cases := []struct {
		t     *Type
		size  int
		fixed bool
	}{
		{TInteger, 4, true},
		{TLong, 8, true},
		{TByte, 1, true},
		{TBoolean, 1, true},
		{TFloat, 4, true},
		{TDouble, 8, true},
		{TString, 0, false},
		{ArrayOf(4, TFloat), 16, true},
		{ArrayOf(3, ArrayOf(2, TDouble)), 48, true},
		{ArrayOf(2, TString), 0, false},
		{MustRecordOf(Field{"a", TFloat}, Field{"b", TDouble}), 12, true},
		{MustRecordOf(Field{"a", TString}), 0, false},
	}
	for _, c := range cases {
		size, fixed := c.t.FixedSize()
		if fixed != c.fixed || (fixed && size != c.size) {
			t.Errorf("(%v).FixedSize() = %d,%v want %d,%v", c.t, size, fixed, c.size, c.fixed)
		}
	}
}

// TestSingletonSizes: each scalar singleton's literal size is the one
// sized would have cached, so FixedSize answers from the cache with the
// size the type has.
func TestSingletonSizes(t *testing.T) {
	for _, typ := range []*Type{TInteger, TLong, TByte, TBoolean, TFloat, TDouble, TString} {
		n, ok := typ.fixedSize()
		if !ok {
			n = -1
		}
		if typ.size != n {
			t.Errorf("%v: literal size %d, fixedSize gives %d", typ, typ.size, n)
		}
	}
}
