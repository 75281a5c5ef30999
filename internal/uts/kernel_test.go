package uts

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

var scalarTypes = []*Type{TInteger, TLong, TByte, TBoolean, TFloat, TDouble}

// sameErr compares two errors by text; both paths build theirs with
// fmt.Errorf, so equal text is an equal error.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// sameValue is reflect.DeepEqual with floats compared bit for bit, so
// that a NaN equals itself.
func sameValue(a, b Value) bool {
	if a.Type != b.Type && !a.Type.Equal(b.Type) {
		return false
	}
	if a.I != b.I || math.Float64bits(a.F) != math.Float64bits(b.F) || a.S != b.S || len(a.Elems) != len(b.Elems) {
		return false
	}
	for i := range a.Elems {
		if !sameValue(a.Elems[i], b.Elems[i]) {
			return false
		}
	}
	return true
}

// checkAgainstGeneral encodes v and decodes every prefix of the result
// (plus some corrupted copies) on both paths and requires the same
// bytes, values, remainders and errors.
func checkAgainstGeneral(t *testing.T, r *rand.Rand, v Value) {
	t.Helper()
	want, wantErr := refEncode([]byte{0xAA}, v)
	got, err := Encode([]byte{0xAA}, v)
	if !sameErr(err, wantErr) || string(got) != string(want) {
		t.Fatalf("Encode(%v %v) = %x, %v; general path %x, %v", v.Type, v, got, err, want, wantErr)
	}
	if err != nil {
		return
	}
	data := got[1:]
	decode := func(buf []byte) {
		t.Helper()
		wv, wrest, werr := refDecode(buf, v.Type)
		gv, grest, gerr := Decode(buf, v.Type)
		if !sameErr(gerr, werr) || (werr == nil && !sameValue(gv, wv)) || string(grest) != string(wrest) {
			t.Fatalf("Decode(%x, %v) = %v, %x, %v; general path %v, %x, %v", buf, v.Type, gv, grest, gerr, wv, wrest, werr)
		}
	}
	decode(append(append([]byte(nil), data...), 1, 2, 3)) // trailing bytes stay
	for cut := 0; cut <= len(data); cut++ {
		decode(data[:cut])
	}
	// A byte that is not 0 or 1 is an invalid boolean wherever one sits;
	// truncated after it, the buffer has two things wrong with it and
	// both paths must name the same one.
	for i := 0; i < 8 && len(data) > 0; i++ {
		bad := append([]byte(nil), data...)
		bad[r.Intn(len(bad))] = byte(2 + r.Intn(254))
		decode(bad)
		decode(bad[:r.Intn(len(bad)+1)])
	}
}

func TestFastPathMatchesGeneral(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	point := MustRecordOf(Field{Name: "on", Type: TBoolean}, Field{Name: "xs", Type: ArrayOf(3, TFloat)}, Field{Name: "s", Type: TString})
	for _, et := range scalarTypes {
		for _, n := range []int{1, 2, 7, 64} {
			checkAgainstGeneral(t, r, coerceTo(r, ArrayOf(n, et)))
		}
		// Nested: the inner arrays take the fast path, the outer the
		// general one.
		checkAgainstGeneral(t, r, coerceTo(r, ArrayOf(3, ArrayOf(4, et))))
		checkAgainstGeneral(t, r, coerceTo(r, MustRecordOf(Field{Name: "a", Type: ArrayOf(5, et)}, Field{Name: "b", Type: et})))
	}
	checkAgainstGeneral(t, r, coerceTo(r, ArrayOf(4, point)))
	checkAgainstGeneral(t, r, coerceTo(r, ArrayOf(4, TString)))
	for i := 0; i < 300; i++ {
		checkAgainstGeneral(t, r, coerceTo(r, randomType(r, 3)))
	}
}

// TestFastPathEncodeErrors: values the encoder must refuse, refused
// with the general path's error: wrong element types (a different
// scalar, an aggregate, an equal type that is a different pointer is
// fine), wrong lengths, out-of-range elements, first bad element wins.
func TestFastPathEncodeErrors(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	outOfRange := map[Kind]Value{
		Integer: {Type: TInteger, I: math.MaxInt32 + 1},
		Byte:    {Type: TByte, I: 256},
		Float:   {Type: TFloat, F: 1e39},
	}
	for _, et := range scalarTypes {
		for _, other := range []Value{Str("x"), coerceTo(r, scalarTypes[(int(et.Kind())+1)%len(scalarTypes)]), coerceTo(r, ArrayOf(2, et))} {
			v := coerceTo(r, ArrayOf(5, et))
			v.Elems[3] = other
			checkAgainstGeneral(t, r, v)
			if bad, ok := outOfRange[et.Kind()]; ok {
				v.Elems[1] = bad // an earlier, different failure
				checkAgainstGeneral(t, r, v)
			}
		}
		v := coerceTo(r, ArrayOf(5, et))
		v.Elems = v.Elems[:4]
		checkAgainstGeneral(t, r, v)
		if _, err := Encode(nil, v); err == nil {
			t.Errorf("array[5] of %v with 4 elements encoded", et)
		}
	}
	// Structurally equal element types need not be the same pointer.
	inner := ArrayOf(2, TDouble)
	v := Value{Type: ArrayOf(2, inner), Elems: []Value{DoubleArray(1, 2), DoubleArray(3, 4)}}
	checkAgainstGeneral(t, r, v)
	if _, err := Encode(nil, v); err != nil {
		t.Errorf("equal element types behind different pointers: %v", err)
	}
}

// halver is a Native that cannot hold negative numbers and holds every
// float as half of itself, so its effect on an encoding is unmistakable.
type halver struct{}

var errNegative = errors.New("negative")

func (halver) NativeFloat(f float64) (float64, error) {
	if f < 0 {
		return 0, errNegative
	}
	return f / 2, nil
}
func (halver) NativeDoubles(vs []Value) error {
	for i := range vs {
		f, err := halver{}.NativeFloat(vs[i].F)
		if err != nil {
			return err
		}
		vs[i].F = f
	}
	return nil
}
func (halver) NativeDoubleBytes(b []byte) error {
	for ; len(b) >= 8; b = b[8:] {
		f, err := halver{}.NativeFloat(math.Float64frombits(binary.BigEndian.Uint64(b)))
		if err != nil {
			return err
		}
		binary.BigEndian.PutUint64(b, math.Float64bits(f))
	}
	return nil
}
func (halver) CheckInteger(i int64) error { return halver{}.CheckLong(i) }
func (halver) CheckLong(i int64) error {
	if i < 0 {
		return errNegative
	}
	return nil
}

// halve is what halver does, done the slow way: a converted copy.
func halve(v Value) Value {
	v = v.Clone()
	var walk func(v *Value)
	walk = func(v *Value) {
		switch v.Type.Kind() {
		case Float:
			*v = FloatVal(v.F / 2)
		case Double:
			v.F /= 2
		}
		for i := range v.Elems {
			walk(&v.Elems[i])
		}
	}
	walk(&v)
	return v
}

// TestEncodeParamNative: marshaling through a Native gives the bytes of
// marshaling a converted copy, leaves the value alone, and reports the
// Native's own error, unwrapped by parameter context, as a NativeError.
// halverValue draws a value of type typ that halver mostly holds, and
// reports whether it holds a negative number somewhere, which halver
// refuses.
func halverValue(r *rand.Rand, typ *Type) (v Value, negative bool) {
	var walk func(v *Value)
	walk = func(v *Value) {
		switch v.Type.Kind() {
		case Integer, Long:
			if r.Intn(8) != 0 && v.I < 0 {
				v.I = -(v.I + 1)
			}
			negative = negative || v.I < 0
		case Float, Double:
			v.F = float64(float32(math.Abs(v.F)))
			if math.IsInf(v.F, 0) {
				v.F = 1
			}
			if r.Intn(30) == 0 {
				v.F = -3
			}
			negative = negative || v.F < 0
		}
		for i := range v.Elems {
			walk(&v.Elems[i])
		}
	}
	v = coerceTo(r, typ)
	walk(&v)
	return v, negative
}

func TestEncodeParamNative(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 500; i++ {
		typ := randomType(r, 3)
		v, negative := halverValue(r, typ)
		before := v.Clone()
		p := Param{Name: "p", Mode: Val, Type: typ}
		got, err := EncodeParam(nil, p, v, halver{})
		if !reflect.DeepEqual(v, before) {
			t.Fatalf("EncodeParam modified its value: %v, was %v", v, before)
		}
		if negative {
			var ne *NativeError
			if !errors.As(err, &ne) || ne.Err != errNegative || err.Error() != "negative" {
				t.Fatalf("EncodeParam(%v %v): error %#v, want the Native's own error as a NativeError", typ, v, err)
			}
			continue
		}
		want, wantErr := EncodeParam(nil, p, halve(v), nil)
		if err != nil || wantErr != nil || string(got) != string(want) {
			t.Fatalf("EncodeParam(%v %v) through a Native = %x, %v; converted copy encodes to %x, %v", typ, v, got, err, want, wantErr)
		}
	}
	// An error that is not the Native's keeps its parameter context.
	_, err := EncodeParam(nil, Param{Name: "b", Type: TByte}, Value{Type: TByte, I: 300}, halver{})
	if err == nil || err.Error() != `uts: parameter "b": uts: byte value 300 out of range` {
		t.Errorf("byte range error through a Native: %v", err)
	}
}

// TestDecodeParamsNative: decoding through a Native gives the converted
// copy of what plain decoding gives. A value the Native refuses comes
// back as its parameter's index and the Native's own error, unless the
// message is malformed further on: then the decode error wins.
func TestDecodeParamsNative(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	refused := 0
	for i := 0; i < 500; i++ {
		params := make([]Param, 1+r.Intn(4))
		vals := make([]Value, len(params))
		firstNegative := -1
		for j := range params {
			params[j] = Param{Name: fmt.Sprint("p", j), Mode: Val, Type: randomType(r, 3)}
			var negative bool
			vals[j], negative = halverValue(r, params[j].Type)
			if negative && firstNegative < 0 {
				firstNegative = j
			}
		}
		buf, err := EncodeParams(nil, params, vals)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := DecodeParams(buf, params)
		if err != nil {
			t.Fatal(err)
		}
		got, bad, err := DecodeParamsNative(buf, params, halver{}, nil)
		if firstNegative >= 0 {
			refused++
			if bad != firstNegative || err != errNegative || got != nil {
				t.Fatalf("DecodeParamsNative(%v) = %v, %d, %v; want parameter %d refused", vals, got, bad, err, firstNegative)
			}
		} else {
			for j := range plain {
				if bad != -1 || err != nil || !sameValue(got[j], halve(plain[j])) {
					t.Fatalf("DecodeParamsNative(%v) = %v, %d, %v; want %v halved", vals, got, bad, err, plain)
				}
			}
		}
		for _, malformed := range [][]byte{buf[:len(buf)-1], append(buf[:len(buf):len(buf)], 0)} {
			_, wantErr := DecodeParams(malformed, params)
			if _, bad, err := DecodeParamsNative(malformed, params, halver{}, nil); bad != -1 || err == nil || !sameErr(err, wantErr) {
				t.Fatalf("malformed %v: DecodeParamsNative error %d, %v; DecodeParams %v", vals, bad, err, wantErr)
			}
		}
	}
	if refused < 50 || refused > 450 {
		t.Errorf("halver refused %d of 500 lists; the corpus should mix both", refused)
	}
}

// TestEncodeParamsPresizes: marshaling into a nil buffer allocates the
// result in one piece, whatever its size.
func TestEncodeParamsPresizes(t *testing.T) {
	params := []Param{{Name: "xs", Type: ArrayOf(4096, TDouble)}, {Name: "n", Type: TInteger}}
	vals := []Value{Zero(params[0].Type), MustInt(7)}
	if n := ParamsSize(params); n != 4096*8+4 {
		t.Errorf("ParamsSize = %d", n)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := EncodeParams(nil, params, vals); err != nil {
			t.Fatal(err)
		}
	})
	// One, for the result; the race detector's build adds another. Growing
	// by doubling from nil took thirteen.
	if allocs > 2 {
		t.Errorf("EncodeParams into nil allocated %v times, want 1", allocs)
	}
	buf := make([]byte, 0, ParamsSize(params))
	allocs = testing.AllocsPerRun(20, func() {
		if _, err := EncodeParams(buf, params, vals); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("EncodeParams into a large enough buffer allocated %v times", allocs)
	}
}

// TestDecodeArrayAllocatesOnce: the elements, and nothing per element.
func TestDecodeArrayAllocatesOnce(t *testing.T) {
	typ := ArrayOf(4096, TDouble)
	buf, err := Encode(nil, Zero(typ))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := Decode(buf, typ); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("Decode of %v allocated %v times, want 1", typ, allocs)
	}
}

func TestFixedSizeCached(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for i := 0; i < 500; i++ {
		typ := randomType(r, 3)
		n, ok := typ.FixedSize()
		wn, wok := typ.fixedSize()
		if n != wn || ok != wok {
			t.Fatalf("%v: FixedSize() = %d, %v; computed %d, %v", typ, n, ok, wn, wok)
		}
	}
	// A Type no constructor built has nothing cached and still answers.
	if n, ok := new(Type).FixedSize(); n != 4 || !ok {
		t.Errorf("zero Type: FixedSize() = %d, %v", n, ok)
	}
}

// FuzzDecodeArray decodes arbitrary bytes as arrays of every scalar
// kind, flat and nested. The fast path and the general path must agree
// on the value, the remainder and the error, and a value that decodes
// must encode back to the bytes it came from.
func FuzzDecodeArray(f *testing.F) {
	f.Add(uint8(5), uint8(4), false, []byte("0123456789abcdef0123456789abcdef"))
	f.Add(uint8(5), uint8(4), false, []byte("0123456789abcdef0123456789abcde")) // one byte short
	f.Add(uint8(3), uint8(6), false, []byte{0, 1, 1, 0, 2, 1})                  // invalid boolean
	f.Add(uint8(3), uint8(6), false, []byte{0, 1, 7})                           // invalid, then truncated
	f.Add(uint8(4), uint8(2), true, []byte{0x7f, 0x80, 0, 1, 0x7f, 0xc0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0})
	f.Add(uint8(0), uint8(3), true, []byte{0xff, 0xff, 0xff, 0xff, 0x80, 0, 0, 0, 0x7f, 0xff, 0xff, 0xff})
	f.Add(uint8(1), uint8(1), false, []byte{})
	f.Add(uint8(2), uint8(255), false, make([]byte, 300))
	f.Fuzz(func(t *testing.T, kind, n uint8, nested bool, data []byte) {
		et := scalarTypes[int(kind)%len(scalarTypes)]
		typ := ArrayOf(1+int(n)%64, et)
		if nested {
			typ = ArrayOf(2, typ)
		}
		wv, wrest, werr := refDecode(data, typ)
		v, rest, err := Decode(data, typ)
		if !sameErr(err, werr) || (werr == nil && !sameValue(v, wv)) || string(rest) != string(wrest) {
			t.Fatalf("Decode(%x, %v) = %v, %x, %v; general path %v, %x, %v", data, typ, v, rest, err, wv, wrest, werr)
		}
		if err != nil {
			return
		}
		enc, err := Encode(nil, v)
		if err != nil {
			t.Fatalf("decoded %v from %x but cannot encode it: %v", v, data, err)
		}
		consumed := data[:len(data)-len(rest)]
		if et == TFloat {
			// A signaling NaN is quieted on its way through float64;
			// compare the values, NaN equal to NaN.
			again, _, err := Decode(enc, typ)
			if err != nil || !again.EqualValue(v) || len(enc) != len(consumed) {
				t.Fatalf("%v: %x decoded to %v, which encodes to %x (%v)", typ, consumed, v, enc, err)
			}
		} else if string(enc) != string(consumed) {
			t.Fatalf("%v: %x decoded to %v, which encodes to %x", typ, consumed, v, enc)
		}
	})
}

func ExampleEncodeParam() {
	p := Param{Name: "xs", Mode: Val, Type: ArrayOf(2, TDouble)}
	buf, err := EncodeParam(nil, p, DoubleArray(3, 5), halver{})
	fmt.Printf("%x %v\n", buf, err)
	// Output: 3ff80000000000004004000000000000 <nil>
}
