package uts

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// The UTS intermediate representation is a canonical big-endian
// encoding: integers are 4-byte and longs 8-byte two's complement,
// floats are IEEE-754 single and doubles IEEE-754 double, bytes and
// booleans occupy one byte, strings carry a 4-byte length prefix, and
// aggregates are the concatenation of their elements. Every machine
// converts between its native format and this interchange format; the
// native side of the conversion lives in package machine.

// Native is one machine's native data representation as the codec
// needs it: what a float or a run of doubles becomes when the machine
// holds it, and whether an integer or long fits its word. Doubles come
// a run at a time, so an array of them costs one call: NativeDoubles
// converts the F of every value in vs, NativeDoubleBytes every
// big-endian IEEE double in b, in place; each stops at the first double
// the machine cannot hold and returns its error. *machine.Arch is the
// implementation; the interface exists because machine imports uts.
type Native interface {
	NativeFloat(f float64) (float64, error)
	NativeDoubles(vs []Value) error
	NativeDoubleBytes(b []byte) error
	CheckInteger(i int64) error
	CheckLong(i int64) error
}

// NativeError wraps an error a Native returned, so a caller of
// EncodeParam can tell a value the machine cannot hold from a value
// that does not match its declared type. Err is the Native's error,
// untouched.
type NativeError struct{ Err error }

func (e *NativeError) Error() string { return e.Err.Error() }
func (e *NativeError) Unwrap() error { return e.Err }

// Encode appends the intermediate representation of v to buf and
// returns the extended buffer.
func Encode(buf []byte, v Value) ([]byte, error) { return encode(buf, v, nil) }

// encode is Encode with every scalar passed through n on its way into
// the buffer, when n is not nil (an array of doubles once it is in): the
// native-to-interchange conversion in one traversal, with no converted
// copy of v in between.
func encode(buf []byte, v Value, n Native) ([]byte, error) {
	switch v.Type.Kind() {
	case Integer, Long, Byte, Boolean, Float, Double:
		return appendScalar(buf, &v, n)
	case String:
		if len(v.S) > math.MaxInt32 {
			return nil, fmt.Errorf("uts: string of %d bytes too long", len(v.S))
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.S)))
		return append(buf, v.S...), nil
	case Array:
		if len(v.Elems) != v.Type.Len() {
			return nil, fmt.Errorf("uts: array value has %d elements, type wants %d", len(v.Elems), v.Type.Len())
		}
		et := v.Type.Elem()
		// An array of fixed-size scalars grows the buffer once and runs
		// the scalar kernel over its elements without recursing. An
		// array of doubles goes into the buffer as it is and through n
		// afterwards, in one call over the bytes just appended.
		size, bulk := et.scalarSize()
		if bulk {
			buf = slices.Grow(buf, size*len(v.Elems))
		}
		start := len(buf)
		var err error
		for i := range v.Elems {
			e := &v.Elems[i]
			if e.Type != et && !e.Type.Equal(et) {
				err = fmt.Errorf("uts: array element type %v does not match %v", e.Type, et)
				break
			}
			if et.kind == Double {
				buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(e.F))
				continue
			}
			var next []byte
			if bulk {
				next, err = appendScalar(buf, e, n)
			} else {
				next, err = encode(buf, *e, n)
			}
			if err != nil {
				break
			}
			buf = next
		}
		// The doubles ahead of a malformed element pass through n before
		// it is reported: the machine's error comes first, as it would
		// element by element.
		if et.kind == Double && n != nil {
			if nerr := n.NativeDoubleBytes(buf[start:]); nerr != nil {
				return nil, &NativeError{nerr}
			}
		}
		if err != nil {
			return nil, err
		}
		return buf, nil
	case Record:
		fields := v.Type.Fields()
		if len(v.Elems) != len(fields) {
			return nil, fmt.Errorf("uts: record value has %d fields, type wants %d", len(v.Elems), len(fields))
		}
		var err error
		for i, e := range v.Elems {
			if !e.Type.Equal(fields[i].Type) {
				return nil, fmt.Errorf("uts: record field %q type %v does not match %v", fields[i].Name, e.Type, fields[i].Type)
			}
			if buf, err = encode(buf, e, n); err != nil {
				return nil, err
			}
		}
		return buf, nil
	}
	return nil, fmt.Errorf("uts: cannot encode value of type %v", v.Type)
}

// appendScalar is the per-element kernel of encode: one value of a
// fixed-size scalar kind, which it does not modify.
func appendScalar(buf []byte, v *Value, n Native) ([]byte, error) {
	switch v.Type.Kind() {
	case Integer:
		if n != nil {
			if err := n.CheckInteger(v.I); err != nil {
				return nil, &NativeError{err}
			}
		}
		if v.I < math.MinInt32 || v.I > math.MaxInt32 {
			return nil, fmt.Errorf("uts: integer value %d out of range", v.I)
		}
		return binary.BigEndian.AppendUint32(buf, uint32(int32(v.I))), nil
	case Long:
		if n != nil {
			if err := n.CheckLong(v.I); err != nil {
				return nil, &NativeError{err}
			}
		}
		return binary.BigEndian.AppendUint64(buf, uint64(v.I)), nil
	case Byte:
		if v.I < 0 || v.I > 255 {
			return nil, fmt.Errorf("uts: byte value %d out of range", v.I)
		}
		return append(buf, byte(v.I)), nil
	case Boolean:
		b := byte(0)
		if v.I != 0 {
			b = 1
		}
		return append(buf, b), nil
	case Float:
		f := v.F
		if n != nil {
			var err error
			if f, err = n.NativeFloat(f); err != nil {
				return nil, &NativeError{err}
			}
			f = FloatVal(f).F
		}
		if !fitsFloat32(f) {
			return nil, fmt.Errorf("uts: value %g out of range for single-precision float", f)
		}
		return binary.BigEndian.AppendUint32(buf, math.Float32bits(float32(f))), nil
	default: // Double
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v.F))
		if n != nil {
			if err := n.NativeDoubleBytes(buf[len(buf)-8:]); err != nil {
				return nil, &NativeError{err}
			}
		}
		return buf, nil
	}
}

// fitsFloat32 reports whether f survives conversion to single
// precision without overflowing to infinity (NaN and infinities pass
// through as themselves).
func fitsFloat32(f float64) bool {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return true
	}
	return !math.IsInf(float64(float32(f)), 0)
}

func truncated(t *Type, need, have int) error {
	return fmt.Errorf("uts: truncated data decoding %v: need %d bytes, have %d", t, need, have)
}

// Decode reads one value of type t from buf, returning the value and
// the remaining bytes.
func Decode(buf []byte, t *Type) (Value, []byte, error) { return decode(buf, t, nil) }

// decode is Decode into storage the caller keeps: when t is an array of
// fixed-size scalars and elems has its declared length, the elements
// are decoded into elems rather than into a new slice.
func decode(buf []byte, t *Type, elems []Value) (Value, []byte, error) {
	switch t.Kind() {
	case Integer, Long, Byte, Boolean, Float, Double:
		size, _ := t.scalarSize()
		if len(buf) < size {
			return Value{}, nil, truncated(t, size, len(buf))
		}
		var v [1]Value
		if err := decodeScalars(v[:], t.kind, buf); err != nil {
			return Value{}, nil, err
		}
		return v[0], buf[size:], nil
	case String:
		if len(buf) < 4 {
			return Value{}, nil, truncated(t, 4, len(buf))
		}
		n := binary.BigEndian.Uint32(buf)
		if n > math.MaxInt32 {
			return Value{}, nil, fmt.Errorf("uts: string length %d too large", n)
		}
		buf = buf[4:]
		if len(buf) < int(n) {
			return Value{}, nil, fmt.Errorf("uts: truncated string: need %d bytes, have %d", n, len(buf))
		}
		return Value{Type: TString, S: string(buf[:n])}, buf[n:], nil
	case Array:
		// Every element encodes to at least one byte, so a length
		// exceeding the remaining buffer is truncated data — checked
		// before sizing the allocation off the declared length.
		if t.Len() > len(buf) {
			return Value{}, nil, fmt.Errorf("uts: truncated array: %d elements declared, %d bytes remain", t.Len(), len(buf))
		}
		et := t.Elem()
		if size, scalar := et.scalarSize(); scalar {
			if len(elems) != t.Len() {
				elems = make([]Value, t.Len())
			}
			// Fixed-size scalars: the length is checked once, here, and
			// the kernel fills the elements. A short buffer still
			// decodes the elements it holds first, so an invalid one
			// among them is reported before the truncation.
			whole := min(len(elems), len(buf)/size)
			if err := decodeScalars(elems[:whole], et.kind, buf); err != nil {
				return Value{}, nil, err
			}
			buf = buf[whole*size:]
			if whole < len(elems) {
				return Value{}, nil, truncated(et, size, len(buf))
			}
			return Value{Type: t, Elems: elems}, buf, nil
		}
		elems = make([]Value, t.Len())
		var err error
		for i := range elems {
			if elems[i], buf, err = Decode(buf, et); err != nil {
				return Value{}, nil, err
			}
		}
		return Value{Type: t, Elems: elems}, buf, nil
	case Record:
		fields := t.Fields()
		elems := make([]Value, len(fields))
		var err error
		for i, f := range fields {
			if elems[i], buf, err = Decode(buf, f.Type); err != nil {
				return Value{}, nil, err
			}
		}
		return Value{Type: t, Elems: elems}, buf, nil
	}
	return Value{}, nil, fmt.Errorf("uts: cannot decode type %v", t)
}

// decodeScalars is the scalar kernel of decode: it fills vs with the
// consecutive scalars of kind k at the front of b, which the caller has
// checked holds len(vs) of them, in one loop per kind.
func decodeScalars(vs []Value, k Kind, b []byte) error {
	switch k {
	case Integer:
		for i := range vs {
			setScalar(&vs[i], TInteger, int64(int32(binary.BigEndian.Uint32(b[4*i:]))), 0)
		}
	case Long:
		for i := range vs {
			setScalar(&vs[i], TLong, int64(binary.BigEndian.Uint64(b[8*i:])), 0)
		}
	case Byte:
		for i := range vs {
			setScalar(&vs[i], TByte, int64(b[i]), 0)
		}
	case Boolean:
		for i := range vs {
			if b[i] > 1 {
				return fmt.Errorf("uts: invalid boolean byte %#x", b[i])
			}
			setScalar(&vs[i], TBoolean, int64(b[i]), 0)
		}
	case Float:
		for i := range vs {
			setScalar(&vs[i], TFloat, 0, float64(math.Float32frombits(binary.BigEndian.Uint32(b[4*i:]))))
		}
	default: // Double
		for i := range vs {
			setScalar(&vs[i], TDouble, 0, math.Float64frombits(binary.BigEndian.Uint64(b[8*i:])))
		}
	}
	return nil
}

// setScalar makes *v the scalar of type t holding i or f, whatever v
// held before, so storage that last held another kind keeps no stale
// field. It writes a pointer field only where v's differs: while the
// collector runs, a pointer store costs a write barrier, and storing a
// whole Value costs a bulk one, several times the decode itself. In
// storage a decode of the same types filled last time, that is no
// pointer store at all.
func setScalar(v *Value, t *Type, i int64, f float64) {
	if v.S != "" || v.Elems != nil {
		v.S, v.Elems = "", nil
	}
	if v.Type != t {
		v.Type = t
	}
	v.I, v.F = i, f
}

// ParamsSize reports how many bytes the fixed-size parameters among
// params marshal to: the whole of an EncodeParams, unless a string is
// among them.
func ParamsSize(params []Param) int {
	total := 0
	for _, p := range params {
		n, _ := p.Type.FixedSize()
		total += n
	}
	return total
}

// EncodeParams marshals the values bound to the given parameters in
// declaration order. The values slice must be parallel to params.
func EncodeParams(buf []byte, params []Param, values []Value) ([]byte, error) {
	if len(params) != len(values) {
		return nil, fmt.Errorf("uts: %d parameters but %d values", len(params), len(values))
	}
	if cap(buf) == 0 {
		// From nothing, allocate the result once. A caller that brings
		// a buffer has sized it, or append will.
		buf = make([]byte, 0, ParamsSize(params))
	}
	var err error
	for i, p := range params {
		if buf, err = EncodeParam(buf, p, values[i], nil); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// EncodeParam marshals the value bound to one parameter. With a non-nil
// n it marshals the value as that machine holds it: each float, double,
// integer and long passes through n on its way into the buffer, and an
// error from n comes back as a *NativeError. v is never modified.
func EncodeParam(buf []byte, p Param, v Value, n Native) ([]byte, error) {
	if !v.Type.Equal(p.Type) {
		return nil, fmt.Errorf("uts: parameter %q: value type %v does not match declared type %v", p.Name, v.Type, p.Type)
	}
	buf, err := encode(buf, v, n)
	if _, native := err.(*NativeError); err != nil && !native {
		err = fmt.Errorf("uts: parameter %q: %w", p.Name, err)
	}
	return buf, err
}

// DecodeParams unmarshals values for the given parameters from buf.
// All bytes must be consumed.
func DecodeParams(buf []byte, params []Param) ([]Value, error) {
	values, _, err := DecodeParamsNative(buf, params, nil, nil)
	return values, err
}

// DecodeParamsNative is DecodeParams with every value passed through n,
// when n is not nil, as soon as it is decoded: the interchange-to-native
// conversion, in place, over values nobody else owns yet. An array of
// doubles costs n one call. A value the machine cannot hold comes back
// as (nil, i, err), i the index of its parameter and err n's error; a
// malformed message as (nil, -1, err) with DecodeParams' error, even
// when an earlier value is one the machine cannot hold, so after the
// first refusal the rest of the message is only decoded.
//
// dst is storage to decode into, nil for none: a set of values an
// earlier call returned, which the caller no longer needs. The values
// come back in dst when it has room for them, and each parameter that
// is an array of fixed-size scalars is decoded into the elements dst
// holds for it when they are as many as the array declares; anything
// else is allocated. After an error, dst holds no meaningful values.
func DecodeParamsNative(buf []byte, params []Param, n Native, dst []Value) (values []Value, bad int, err error) {
	if cap(dst) >= len(params) {
		values = dst[:len(params)]
	} else {
		values = make([]Value, len(params))
	}
	var nerr error
	for i, p := range params {
		if values[i], buf, err = decode(buf, p.Type, values[i].Elems); err != nil {
			return nil, -1, fmt.Errorf("uts: parameter %q: %w", p.Name, err)
		}
		if n != nil && nerr == nil {
			if nerr = toNative(values[i:i+1], n); nerr != nil {
				bad = i
			}
		}
	}
	if len(buf) != 0 {
		return nil, -1, fmt.Errorf("uts: %d trailing bytes after parameters", len(buf))
	}
	if nerr != nil {
		return nil, bad, nerr
	}
	return values, -1, nil
}

// toNative passes every value in vs, and every element under it,
// through n in place, in order, and returns n's first error.
func toNative(vs []Value, n Native) error {
	for i := range vs {
		v := &vs[i]
		var err error
		switch v.Type.Kind() {
		case Float:
			var f float64
			if f, err = n.NativeFloat(v.F); err == nil {
				// Keep the single-precision invariant.
				v.F = FloatVal(f).F
			}
		case Double:
			err = n.NativeDoubles(vs[i : i+1])
		case Integer:
			err = n.CheckInteger(v.I)
		case Long:
			err = n.CheckLong(v.I)
		case Array:
			if v.Type.Elem().Kind() == Double {
				err = n.NativeDoubles(v.Elems)
			} else {
				err = toNative(v.Elems, n)
			}
		case Record:
			err = toNative(v.Elems, n)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
