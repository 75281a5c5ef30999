// Package machine simulates the heterogeneous machine architectures of
// the NPSS testbed: the native data formats of each machine and the
// conversion routines between those formats and the UTS intermediate
// representation.
//
// The paper's testbed mixed Sun SPARC, SGI MIPS, IBM RS/6000 (all IEEE
// 754 big-endian), a Convex C220 (VAX-heritage native float), and a
// Cray Y-MP (Cray-1 single-word floating point, 64-bit integers). The
// heterogeneity problems the paper reports — Cray values whose
// magnitude exceeds the IEEE range, 64-bit native integers that do not
// fit the 32-bit UTS integer, Fortran compilers that upper-case
// procedure names — are reproduced here exactly. As in the paper, an
// out-of-range conversion is treated as an error rather than being
// mapped to the IEEE infinity value (section 4.1).
package machine

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"npss/internal/uts"
)

// RangeError reports a value that cannot be represented in the target
// format. The paper's policy, chosen after consulting the NPSS code
// developers, is that such conversions fail rather than saturating.
type RangeError struct {
	Value  float64 // the value, when it is expressible as a float64
	Format string  // target format name
	Detail string
}

func (e *RangeError) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("machine: value out of range for %s: %s", e.Format, e.Detail)
	}
	return fmt.Sprintf("machine: value %g out of range for %s", e.Value, e.Format)
}

// FloatCodec converts between IEEE-754 double (the lingua franca of
// the simulation, and of UTS) and one native floating point format.
type FloatCodec interface {
	// Name identifies the format, e.g. "ieee64be" or "cray64".
	Name() string
	// Size is the number of bytes of the native representation.
	Size() int
	// Encode converts an IEEE double to native bytes. It returns a
	// *RangeError when the magnitude exceeds the native range, and may
	// silently lose precision when the native mantissa is narrower.
	// Values below the native underflow threshold flush to zero, as
	// the historical hardware did.
	Encode(f float64) ([]byte, error)
	// Decode converts native bytes back to an IEEE double. It returns
	// a *RangeError when the native value exceeds the IEEE-754 double
	// range (possible for Cray-format values).
	Decode(b []byte) (float64, error)
	// ToWord and FromWord are Encode and Decode without the bytes: the
	// native representation as one machine word (a 4-byte format
	// occupies the low half), with the same range errors and no
	// allocation. Byte order belongs to the byte form only.
	ToWord(f float64) (uint64, error)
	FromWord(w uint64) (float64, error)
	// RoundTrip is FromWord(ToWord(f)): f as the format holds it.
	RoundTrip(f float64) (float64, error)
	// RoundTripValues and RoundTripBytes are RoundTrip over a run of
	// doubles, in place: the F of every value in vs, or every
	// big-endian IEEE double in b. Each stops at the first double the
	// format cannot hold and returns RoundTrip's error for it, leaving
	// the run partly converted.
	RoundTripValues(vs []uts.Value) error
	RoundTripBytes(b []byte) error
}

// format is the one FloatCodec implementation: a pair of word kernels
// holding the format's arithmetic, and the byte layout around them.
type format struct {
	name         string
	size         int
	littleEndian bool
	shortcut     shortcut
	toWord       func(f float64) (uint64, error)
	fromWord     func(w uint64) (float64, error)
}

// A shortcut is a format's round trip done on a double's IEEE bits, for
// the doubles where that is a few integer operations. Every other
// double takes the word path, which stays the specification:
// TestShortcutMatchesWordPath proves the two equal, bit for bit and
// error for error.
type shortcut uint8

const (
	noShortcut shortcut = iota // every double takes the word path
	identity                   // every double survives (IEEE double)
	crayRound                  // normal doubles: the mantissa rounded to 48 bits
	vaxdRange                  // doubles within VAX D's exponent range survive
)

// quick is the shortcut's round trip of the double with bits b; ok false
// sends the double to the word path.
func (c *format) quick(b uint64) (r uint64, ok bool) {
	const sign = 1 << 63
	e := b >> 52 & 0x7ff // biased exponent
	switch c.shortcut {
	case identity:
		return b, true
	case crayRound:
		// Round the magnitude's 53-bit mantissa to 48, halves away
		// from zero, as crayToWord does. A carry out of the mantissa
		// moves into the exponent, which is the Cray word's
		// renormalization; one that reaches 0x7ff is past the IEEE
		// range, and the word path names the RangeError. Zeros and
		// subnormals take the word path too.
		m := (b&^sign + 1<<4) &^ (1<<5 - 1)
		return m | b&sign, e != 0 && m>>52 < 0x7ff
	case vaxdRange:
		// vaxDToWord's exponent is exp+128 with exp = e-1022, and holds
		// the whole mantissa while that is in [1, 255].
		return b, e >= 895 && e <= 1149
	}
	return 0, false
}

// viaWord is the word path's round trip of the double with bits b: the
// one quick leaves out.
func (c *format) viaWord(b uint64) (uint64, error) {
	w, err := c.toWord(math.Float64frombits(b))
	if err != nil {
		return 0, err
	}
	f, err := c.fromWord(w)
	return math.Float64bits(f), err
}

func (c *format) Name() string { return c.name }
func (c *format) Size() int    { return c.size }

func (c *format) ToWord(f float64) (uint64, error)   { return c.toWord(f) }
func (c *format) FromWord(w uint64) (float64, error) { return c.fromWord(w) }

// RoundTrip and its runs take the shortcut where it applies, inlined,
// and the word path for the rest.
func (c *format) RoundTrip(f float64) (float64, error) {
	b, ok := c.quick(math.Float64bits(f))
	if !ok {
		var err error
		if b, err = c.viaWord(math.Float64bits(f)); err != nil {
			return 0, err
		}
	}
	return math.Float64frombits(b), nil
}

func (c *format) RoundTripValues(vs []uts.Value) error {
	if c.shortcut == identity {
		return nil
	}
	for i := range vs {
		b, ok := c.quick(math.Float64bits(vs[i].F))
		if !ok {
			var err error
			if b, err = c.viaWord(math.Float64bits(vs[i].F)); err != nil {
				return err
			}
		}
		vs[i].F = math.Float64frombits(b)
	}
	return nil
}

func (c *format) RoundTripBytes(b []byte) error {
	if c.shortcut == identity {
		return nil
	}
	for ; len(b) >= 8; b = b[8:] {
		w := binary.BigEndian.Uint64(b)
		r, ok := c.quick(w)
		if !ok {
			var err error
			if r, err = c.viaWord(w); err != nil {
				return err
			}
		}
		binary.BigEndian.PutUint64(b, r)
	}
	return nil
}

// shift is how far right of byte i the native word's low byte sits.
func (c *format) shift(i int) int {
	if c.littleEndian {
		return 8 * i
	}
	return 8 * (c.size - 1 - i)
}

func (c *format) Encode(f float64) ([]byte, error) {
	w, err := c.toWord(f)
	if err != nil {
		return nil, err
	}
	b := make([]byte, c.size)
	for i := range b {
		b[i] = byte(w >> c.shift(i))
	}
	return b, nil
}

func (c *format) Decode(b []byte) (float64, error) {
	if len(b) != c.size {
		return 0, fmt.Errorf("machine: %s needs %d bytes, got %d", c.name, c.size, len(b))
	}
	var w uint64
	for i := range b {
		w |= uint64(b[i]) << c.shift(i)
	}
	return c.fromWord(w)
}

// split takes a finite nonzero double apart as sign, mant and exp with
// |f| = mant × 2^(exp-53) and mant in [2^52, 2^53): the integer form of
// math.Frexp, subnormals normalized.
func split(f float64) (sign, mant uint64, exp int) {
	b := math.Float64bits(f)
	sign, mant, exp = b>>63, b&(1<<52-1), int(b>>52&0x7ff)
	if exp == 0 {
		shift := bits.LeadingZeros64(mant) - 11
		return sign, mant << shift, -1021 - shift
	}
	return sign, mant | 1<<52, exp - 1022
}

// pow2 is 2^k for k in [-1022, 1023], where it is a normal double.
func pow2(k int) float64 { return math.Float64frombits(uint64(k+1023) << 52) }

// scale returns x × 2^k correctly rounded, as math.Ldexp does, by one
// multiplication when 2^k is a normal double.
func scale(x float64, k int) float64 {
	if k < -1022 || k > 1023 {
		return math.Ldexp(x, k)
	}
	return x * pow2(k)
}

// IEEE-754 single precision. Both byte orders share the kernel, so a
// little-endian range error names the format "ieee32be" too.
func ieee32ToWord(f float64) (uint64, error) {
	s := float32(f)
	if math.IsInf(float64(s), 0) && !math.IsInf(f, 0) {
		return 0, &RangeError{Value: f, Format: "ieee32be"}
	}
	return uint64(math.Float32bits(s)), nil
}

func ieee32FromWord(w uint64) (float64, error) {
	return float64(math.Float32frombits(uint32(w))), nil
}

// IEEE-754 double precision: the word is the double.
func ieee64ToWord(f float64) (uint64, error)   { return math.Float64bits(f), nil }
func ieee64FromWord(w uint64) (float64, error) { return math.Float64frombits(w), nil }

// Cray-1 single-word floating point, used by the Cray Y-MP: a 64-bit
// word holding a sign bit, a 15-bit biased binary exponent (bias 040000
// octal = 16384), and a 48-bit mantissa with no hidden bit, normalized
// into [0.5, 1). The representable magnitude range (~1e-2466 ..
// ~1e2466) vastly exceeds IEEE-754 double, which is why Cray-to-IEEE
// conversion can fail — and why no finite double over- or underflows
// the Cray exponent; the mantissa is 4 bits narrower than IEEE double's
// 52+1, so IEEE-to-Cray conversion loses precision. Note the Y-MP had
// no 32-bit float: Fortran REAL on a Cray is this 64-bit word, so a
// Cray architecture uses cray64 for both single and double precision.
const (
	crayBias    = 0o40000 // 16384
	crayManBits = 48
)

func crayToWord(f float64) (uint64, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		// Cray hardware had no NaN or infinity; arriving at one here
		// means the computation already failed.
		return 0, &RangeError{Value: f, Format: "cray64", Detail: "no NaN/Inf representation"}
	}
	if f == 0 {
		return 0, nil
	}
	sign, mant, exp := split(f)
	// Round the 53-bit mantissa to 48 bits, halves away from zero.
	man := (mant + 1<<4) >> 5
	if man == 1<<crayManBits {
		// Rounding carried out of the mantissa; renormalize.
		man >>= 1
		exp++
	}
	// Normalized values have man in [2^47, 2^48): the leading bit is
	// stored, not hidden.
	return sign<<63 | uint64(exp+crayBias)<<crayManBits | man, nil
}

func crayFromWord(w uint64) (float64, error) {
	man := w & (1<<crayManBits - 1)
	if man == 0 {
		return 0, nil
	}
	exp := int(w>>crayManBits&0x7fff) - crayBias
	f := scale(float64(man), exp-crayManBits)
	if math.IsInf(f, 0) {
		// A genuine Cray value too large for IEEE double: the exact
		// situation section 4.1 of the paper discusses. Error, do not
		// saturate.
		return 0, &RangeError{Format: "ieee64", Detail: fmt.Sprintf("cray64 exponent %d exceeds IEEE double range", exp)}
	}
	if w>>63 == 1 {
		f = -f
	}
	return f, nil
}

// IBM System/360-heritage long hexadecimal float: sign bit, 7-bit
// excess-64 base-16 exponent, 56-bit fraction in [1/16, 1). Its maximum
// magnitude (~7.2e75) is far below IEEE double's, so an IEEE value
// produced on a workstation can fail to convert when sent toward such a
// machine — the opposite failure direction from Cray. The fraction is
// at least as wide as a double's mantissa, so nothing is rounded.
func ibmHexToWord(f float64) (uint64, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, &RangeError{Value: f, Format: "ibmhex64", Detail: "no NaN/Inf representation"}
	}
	if f == 0 {
		return 0, nil
	}
	sign, mant, exp := split(f)
	// Binary exponent to base 16: |f| = g × 16^e4 with g in [1/16, 1),
	// which leaves 0..3 leading zero bits in the fraction.
	e4 := (exp + 3) >> 2
	e := e4 + 64
	if e > 127 {
		return 0, &RangeError{Value: math.Abs(f), Format: "ibmhex64", Detail: "exponent overflow"}
	}
	if e < 0 {
		return 0, nil // underflow to zero
	}
	return sign<<63 | uint64(e)<<56 | mant<<(3-(e4*4-exp)), nil
}

func ibmHexFromWord(w uint64) (float64, error) {
	e := int(w>>56&0x7f) - 64
	f := float64(w&(1<<56-1)) * pow2(4*e-56)
	if w>>63 == 1 && w<<1 != 0 {
		f = -f
	}
	return f, nil
}

// DEC VAX D_floating (Convex's native mode was VAX-compatible): sign,
// 8-bit excess-128 binary exponent, 55-bit stored fraction with a
// hidden leading bit, value = 0.1f * 2^(e-128). Its range tops out near
// 1.7e38 — IEEE-double values beyond that fail to convert — and its
// fraction holds every double exactly. The historical VAX PDP-11
// middle-endian byte shuffle is not reproduced; byte order is carried
// by the Arch, and the format semantics (range, precision, no
// infinities) are what matter to UTS.
func vaxDToWord(f float64) (uint64, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, &RangeError{Value: f, Format: "vaxd64", Detail: "no NaN/Inf representation"}
	}
	if f == 0 {
		return 0, nil
	}
	sign, mant, exp := split(f)
	e := exp + 128
	if e > 255 {
		return 0, &RangeError{Value: math.Abs(f), Format: "vaxd64", Detail: "exponent overflow"}
	}
	if e < 1 {
		return 0, nil
	}
	// The leading mantissa bit is the hidden 0.5; store the 52 below it
	// at the top of the 55.
	return sign<<63 | uint64(e)<<55 | mant&^(1<<52)<<3, nil
}

func vaxDFromWord(w uint64) (float64, error) {
	e := int(w >> 55 & 0xff)
	if e == 0 {
		return 0, nil
	}
	// A word that did not come from a double can hold more fraction
	// bits than a double keeps; the sum rounds them away.
	f := (0.5 + float64(w&(1<<55-1))/(1<<56)) * pow2(e-128)
	if w>>63 == 1 {
		f = -f
	}
	return f, nil
}

// Exported codec singletons. The little-endian layouts (e.g. a PC
// workstation) differ from the big-endian ones in byte order only,
// which is exactly the classic cross-machine bug UTS exists to prevent.
var (
	IEEE32BE FloatCodec = &format{name: "ieee32be", size: 4, toWord: ieee32ToWord, fromWord: ieee32FromWord}
	IEEE64BE FloatCodec = &format{name: "ieee64be", size: 8, shortcut: identity, toWord: ieee64ToWord, fromWord: ieee64FromWord}
	IEEE32LE FloatCodec = &format{name: "ieee32le", size: 4, littleEndian: true, toWord: ieee32ToWord, fromWord: ieee32FromWord}
	IEEE64LE FloatCodec = &format{name: "ieee64le", size: 8, littleEndian: true, shortcut: identity, toWord: ieee64ToWord, fromWord: ieee64FromWord}
	Cray64   FloatCodec = &format{name: "cray64", size: 8, shortcut: crayRound, toWord: crayToWord, fromWord: crayFromWord}
	IBMHex64 FloatCodec = &format{name: "ibmhex64", size: 8, toWord: ibmHexToWord, fromWord: ibmHexFromWord}
	VAXD64   FloatCodec = &format{name: "vaxd64", size: 8, shortcut: vaxdRange, toWord: vaxDToWord, fromWord: vaxDFromWord}
)
