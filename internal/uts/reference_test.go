package uts

// Encode and Decode as they were before the scalar kernels and the
// array fast path: one recursion per element, a bounds check per
// scalar. They stay here, test-only, as the general path the fast path
// is compared against (TestFastPathMatchesGeneral, FuzzDecodeArray).

import (
	"encoding/binary"
	"fmt"
	"math"
)

func refEncode(buf []byte, v Value) ([]byte, error) {
	switch v.Type.Kind() {
	case Integer:
		if v.I < math.MinInt32 || v.I > math.MaxInt32 {
			return nil, fmt.Errorf("uts: integer value %d out of range", v.I)
		}
		return binary.BigEndian.AppendUint32(buf, uint32(int32(v.I))), nil
	case Long:
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
		if !fitsFloat32(f) {
			return nil, fmt.Errorf("uts: value %g out of range for single-precision float", f)
		}
		return binary.BigEndian.AppendUint32(buf, math.Float32bits(float32(f))), nil
	case Double:
		return binary.BigEndian.AppendUint64(buf, math.Float64bits(v.F)), nil
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
		var err error
		for _, e := range v.Elems {
			if !e.Type.Equal(v.Type.Elem()) {
				return nil, fmt.Errorf("uts: array element type %v does not match %v", e.Type, v.Type.Elem())
			}
			if buf, err = refEncode(buf, e); err != nil {
				return nil, err
			}
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
			if buf, err = refEncode(buf, e); err != nil {
				return nil, err
			}
		}
		return buf, nil
	}
	return nil, fmt.Errorf("uts: cannot encode value of type %v", v.Type)
}

func refDecode(buf []byte, t *Type) (Value, []byte, error) {
	need := func(n int) error {
		if len(buf) < n {
			return fmt.Errorf("uts: truncated data decoding %v: need %d bytes, have %d", t, n, len(buf))
		}
		return nil
	}
	switch t.Kind() {
	case Integer:
		if err := need(4); err != nil {
			return Value{}, nil, err
		}
		v := int32(binary.BigEndian.Uint32(buf))
		return Value{Type: TInteger, I: int64(v)}, buf[4:], nil
	case Long:
		if err := need(8); err != nil {
			return Value{}, nil, err
		}
		v := int64(binary.BigEndian.Uint64(buf))
		return Value{Type: TLong, I: v}, buf[8:], nil
	case Byte:
		if err := need(1); err != nil {
			return Value{}, nil, err
		}
		return Value{Type: TByte, I: int64(buf[0])}, buf[1:], nil
	case Boolean:
		if err := need(1); err != nil {
			return Value{}, nil, err
		}
		if buf[0] > 1 {
			return Value{}, nil, fmt.Errorf("uts: invalid boolean byte %#x", buf[0])
		}
		return Value{Type: TBoolean, I: int64(buf[0])}, buf[1:], nil
	case Float:
		if err := need(4); err != nil {
			return Value{}, nil, err
		}
		f := math.Float32frombits(binary.BigEndian.Uint32(buf))
		return Value{Type: TFloat, F: float64(f)}, buf[4:], nil
	case Double:
		if err := need(8); err != nil {
			return Value{}, nil, err
		}
		f := math.Float64frombits(binary.BigEndian.Uint64(buf))
		return Value{Type: TDouble, F: f}, buf[8:], nil
	case String:
		if err := need(4); err != nil {
			return Value{}, nil, err
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
		elems := make([]Value, t.Len())
		var err error
		for i := range elems {
			if elems[i], buf, err = refDecode(buf, t.Elem()); err != nil {
				return Value{}, nil, err
			}
		}
		return Value{Type: t, Elems: elems}, buf, nil
	case Record:
		fields := t.Fields()
		elems := make([]Value, len(fields))
		var err error
		for i, f := range fields {
			if elems[i], buf, err = refDecode(buf, f.Type); err != nil {
				return Value{}, nil, err
			}
		}
		return Value{Type: t, Elems: elems}, buf, nil
	}
	return Value{}, nil, fmt.Errorf("uts: cannot decode type %v", t)
}
