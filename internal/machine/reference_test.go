package machine

// The byte-slice codecs as they were written before the word kernels in
// float.go replaced them: Frexp/Round/Ldexp arithmetic, one format per
// type. They stay here, test-only, as the reference the kernels are
// compared against bit for bit (TestKernelMatchesReference).

import (
	"fmt"
	"math"
)

// refCodecs maps a codec name to its reference implementation.
var refCodecs = map[string]interface {
	Encode(f float64) ([]byte, error)
	Decode(b []byte) (float64, error)
}{
	"ieee32be": refIEEE32{}, "ieee64be": refIEEE64{},
	"ieee32le": refIEEE32LE{}, "ieee64le": refIEEE64LE{},
	"cray64": refCray64{}, "ibmhex64": refIBMHex64{}, "vaxd64": refVAXD64{},
}

// ieee32 is IEEE-754 single precision, big-endian.
type refIEEE32 struct{}

func (refIEEE32) Encode(f float64) ([]byte, error) {
	s := float32(f)
	if math.IsInf(float64(s), 0) && !math.IsInf(f, 0) {
		return nil, &RangeError{Value: f, Format: "ieee32be"}
	}
	bits := math.Float32bits(s)
	return []byte{byte(bits >> 24), byte(bits >> 16), byte(bits >> 8), byte(bits)}, nil
}

func (refIEEE32) Decode(b []byte) (float64, error) {
	if len(b) != 4 {
		return 0, fmt.Errorf("machine: ieee32be needs 4 bytes, got %d", len(b))
	}
	bits := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	return float64(math.Float32frombits(bits)), nil
}

// ieee64 is IEEE-754 double precision, big-endian.
type refIEEE64 struct{}

func (refIEEE64) Encode(f float64) ([]byte, error) {
	bits := math.Float64bits(f)
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(bits >> (56 - 8*i))
	}
	return b, nil
}

func (refIEEE64) Decode(b []byte) (float64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("machine: ieee64be needs 8 bytes, got %d", len(b))
	}
	var bits uint64
	for i := 0; i < 8; i++ {
		bits = bits<<8 | uint64(b[i])
	}
	return math.Float64frombits(bits), nil
}

// ieee32le / ieee64le are the little-endian layouts (e.g. a PC
// workstation); format semantics are identical, only byte order
// differs, which is exactly the classic cross-machine bug UTS exists
// to prevent.
type refIEEE32LE struct{}

func (refIEEE32LE) Encode(f float64) ([]byte, error) {
	b, err := refIEEE32{}.Encode(f)
	if err != nil {
		return nil, err
	}
	reverse(b)
	return b, nil
}

func (refIEEE32LE) Decode(b []byte) (float64, error) {
	if len(b) != 4 {
		return 0, fmt.Errorf("machine: ieee32le needs 4 bytes, got %d", len(b))
	}
	r := []byte{b[3], b[2], b[1], b[0]}
	return refIEEE32{}.Decode(r)
}

type refIEEE64LE struct{}

func (refIEEE64LE) Encode(f float64) ([]byte, error) {
	b, err := refIEEE64{}.Encode(f)
	if err != nil {
		return nil, err
	}
	reverse(b)
	return b, nil
}

func (refIEEE64LE) Decode(b []byte) (float64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("machine: ieee64le needs 8 bytes, got %d", len(b))
	}
	r := make([]byte, 8)
	for i := range r {
		r[i] = b[7-i]
	}
	return refIEEE64{}.Decode(r)
}

func reverse(b []byte) {
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
}

// cray64 is the Cray-1 single-word floating point format used by the
// Cray Y-MP: a 64-bit word holding a sign bit, a 15-bit biased binary
// exponent (bias 040000 octal = 16384), and a 48-bit mantissa with no
// hidden bit, normalized into [0.5, 1). The representable magnitude
// range (~1e-2466 .. ~1e2466) vastly exceeds IEEE-754 double, which is
// why Cray-to-IEEE conversion can fail; the mantissa is 4 bits
// narrower than IEEE double's 52+1, so IEEE-to-Cray conversion loses
// precision. Note the Y-MP had no 32-bit float: Fortran REAL on a Cray
// is this 64-bit word, so a Cray architecture uses cray64 for both
// single and double precision.
type refCray64 struct{}

const (
	crayExpMin = 0o20000 // hardware valid exponent range lower bound
	crayExpMax = 0o57777 // upper bound
)

func (refCray64) Encode(f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		// Cray hardware had no NaN or infinity; arriving at one here
		// means the computation already failed.
		return nil, &RangeError{Value: f, Format: "cray64", Detail: "no NaN/Inf representation"}
	}
	if f == 0 {
		return make([]byte, 8), nil
	}
	sign := uint64(0)
	if math.Signbit(f) {
		sign = 1
		f = -f
	}
	frac, exp := math.Frexp(f) // f = frac * 2^exp, frac in [0.5, 1)
	e := exp + crayBias
	if e > crayExpMax {
		return nil, &RangeError{Value: f, Format: "cray64", Detail: "exponent overflow"}
	}
	if e < crayExpMin {
		// Underflow flushes to zero, as the hardware did.
		return make([]byte, 8), nil
	}
	// Round the 53-bit fraction to 48 bits.
	man := uint64(math.Round(frac * (1 << crayManBits)))
	if man == 1<<crayManBits {
		// Rounding carried out of the mantissa; renormalize.
		man >>= 1
		e++
		if e > crayExpMax {
			return nil, &RangeError{Value: f, Format: "cray64", Detail: "exponent overflow after rounding"}
		}
	}
	word := sign<<63 | uint64(e)<<48 | man&(1<<crayManBits-1)
	// The mantissa's leading bit is implicit in the word layout used
	// here: normalized values have man in [2^47, 2^48), so bit 47 is
	// always set and stored.
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(word >> (56 - 8*i))
	}
	return b, nil
}

func (refCray64) Decode(b []byte) (float64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("machine: cray64 needs 8 bytes, got %d", len(b))
	}
	var word uint64
	for i := 0; i < 8; i++ {
		word = word<<8 | uint64(b[i])
	}
	if word == 0 {
		return 0, nil
	}
	sign := word >> 63
	e := int((word >> 48) & 0x7fff)
	man := word & (1<<crayManBits - 1)
	if man == 0 {
		return 0, nil
	}
	frac := float64(man) / (1 << crayManBits)
	f := math.Ldexp(frac, e-crayBias)
	if math.IsInf(f, 0) {
		// A genuine Cray value too large for IEEE double: the exact
		// situation section 4.1 of the paper discusses. Error, do not
		// saturate.
		return 0, &RangeError{Format: "ieee64", Detail: fmt.Sprintf("cray64 exponent %d exceeds IEEE double range", e-crayBias)}
	}
	if sign == 1 {
		f = -f
	}
	return f, nil
}

// ibmHex64 is the IBM System/360-heritage long hexadecimal float: sign
// bit, 7-bit excess-64 base-16 exponent, 56-bit fraction in [1/16, 1).
// Its maximum magnitude (~7.2e75) is far below IEEE double's, so an
// IEEE value produced on a workstation can fail to convert when sent
// toward such a machine — the opposite failure direction from Cray.
type refIBMHex64 struct{}

func (refIBMHex64) Encode(f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, &RangeError{Value: f, Format: "ibmhex64", Detail: "no NaN/Inf representation"}
	}
	if f == 0 {
		return make([]byte, 8), nil
	}
	sign := uint64(0)
	if math.Signbit(f) {
		sign = 1
		f = -f
	}
	frac, exp2 := math.Frexp(f)
	// Convert binary exponent to base-16: find e4 with f = g * 16^e4,
	// g in [1/16, 1).
	e4 := (exp2 + 3) >> 2 // ceil division toward +inf for normalization
	shift := e4*4 - exp2  // 0..3 leading zero bits in the fraction
	g := frac / float64(uint64(1)<<shift)
	e := e4 + 64
	if e > 127 {
		return nil, &RangeError{Value: f, Format: "ibmhex64", Detail: "exponent overflow"}
	}
	if e < 0 {
		return make([]byte, 8), nil // underflow to zero
	}
	man := uint64(math.Round(g * (1 << 56)))
	if man >= 1<<56 {
		man >>= 4
		e++
		if e > 127 {
			return nil, &RangeError{Value: f, Format: "ibmhex64", Detail: "exponent overflow after rounding"}
		}
	}
	word := sign<<63 | uint64(e)<<56 | man
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(word >> (56 - 8*i))
	}
	return b, nil
}

func (refIBMHex64) Decode(b []byte) (float64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("machine: ibmhex64 needs 8 bytes, got %d", len(b))
	}
	var word uint64
	for i := 0; i < 8; i++ {
		word = word<<8 | uint64(b[i])
	}
	if word&^(1<<63) == 0 {
		return 0, nil
	}
	sign := word >> 63
	e := int((word>>56)&0x7f) - 64
	man := word & (1<<56 - 1)
	f := float64(man) / (1 << 56) * math.Pow(16, float64(e))
	if sign == 1 {
		f = -f
	}
	return f, nil
}

// vaxD64 is the DEC VAX D_floating format (Convex's native mode was
// VAX-compatible): sign, 8-bit excess-128 binary exponent, 55-bit
// stored fraction with a hidden leading bit, value = 0.1f * 2^(e-128).
// Its range tops out near 1.7e38 — IEEE-double values beyond that fail
// to convert. The historical VAX PDP-11 middle-endian byte shuffle is
// not reproduced; byte order is carried by the Arch, and the format
// semantics (range, precision, no infinities) are what matter to UTS.
type refVAXD64 struct{}

func (refVAXD64) Encode(f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, &RangeError{Value: f, Format: "vaxd64", Detail: "no NaN/Inf representation"}
	}
	if f == 0 {
		return make([]byte, 8), nil
	}
	sign := uint64(0)
	if math.Signbit(f) {
		sign = 1
		f = -f
	}
	frac, exp := math.Frexp(f) // frac in [0.5,1) = 0.1xxx binary
	e := exp + 128
	if e > 255 {
		return nil, &RangeError{Value: f, Format: "vaxd64", Detail: "exponent overflow"}
	}
	if e < 1 {
		return make([]byte, 8), nil
	}
	// frac in [0.5,1): hidden bit is the 0.5; store the next 55 bits.
	man := uint64(math.Round((frac*2 - 1) * (1 << 55)))
	if man >= 1<<55 {
		man = 0
		e++
		if e > 255 {
			return nil, &RangeError{Value: f, Format: "vaxd64", Detail: "exponent overflow after rounding"}
		}
	}
	word := sign<<63 | uint64(e)<<55 | man
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(word >> (56 - 8*i))
	}
	return b, nil
}

func (refVAXD64) Decode(b []byte) (float64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("machine: vaxd64 needs 8 bytes, got %d", len(b))
	}
	var word uint64
	for i := 0; i < 8; i++ {
		word = word<<8 | uint64(b[i])
	}
	e := int((word >> 55) & 0xff)
	if e == 0 {
		return 0, nil
	}
	sign := word >> 63
	man := word & (1<<55 - 1)
	frac := 0.5 + float64(man)/(1<<56)
	f := math.Ldexp(frac, e-128)
	if sign == 1 {
		f = -f
	}
	return f, nil
}
