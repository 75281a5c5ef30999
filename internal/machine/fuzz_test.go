package machine

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"npss/internal/uts"
)

// fuzzLists are the parameter lists FuzzDecodeParamsNative decodes: a
// bulk array, every fixed-size kind with doubles at each depth, and a
// list with a string, which has no fixed size.
var fuzzLists = [][]uts.Param{
	uts.MustParseProc(`import bulk prog("xs" val array[4096] of double)`).InParams(),
	uts.MustParseProc(`import mixed prog("a" val double, "r" val record("n" long, "w" float, "ys" array[3] of double),
		"k" val integer, "ok" val boolean, "fs" val array[5] of float, "ls" val array[2] of long,
		"m" val array[2] of array[2] of double)`).InParams(),
	uts.MustParseProc(`import named prog("s" val string, "xs" val array[4] of double, "b" val byte, "z" val double)`).InParams(),
}

// dirtyLists, parallel to fuzzLists, are what the storage a fuzzed
// message is decoded into last held: arrays of other element kinds at
// the lengths the list declares, some of them aggregates, so every
// reused element holds fields its new kind does not set, and values of
// other lengths and kinds, which the decoder must not reuse.
var dirtyLists = [][]uts.Param{
	uts.MustParseProc(`import d0 prog("xs" val array[4096] of long, "y" val array[3] of boolean)`).InParams(),
	uts.MustParseProc(`import d1 prog("a" val array[3] of integer, "r" val array[3] of double, "k" val array[5] of byte,
		"ok" val double, "fs" val array[5] of array[1] of double, "ls" val array[2] of double, "m" val array[2] of integer)`).InParams(),
	uts.MustParseProc(`import d2 prog("s" val array[4] of long, "xs" val array[4] of record("n" string, "x" array[2] of integer),
		"b" val array[8] of boolean, "z" val array[1] of double)`).InParams(),
}

// dirty returns values of the given list with every field at every
// depth set, I, F and S alike: storage an earlier call left holds
// nothing a decode may count on.
func dirty(params []uts.Param) []uts.Value {
	var scribble func(v *uts.Value)
	scribble = func(v *uts.Value) {
		for i := range v.Elems {
			scribble(&v.Elems[i])
		}
		v.I, v.F, v.S = -1, -1, "dirty"
	}
	vals := make([]uts.Value, len(params))
	for i, p := range params {
		vals[i] = uts.Zero(p.Type)
		scribble(&vals[i])
	}
	return vals
}

// bitsValue mirrors a uts.Value with its double as bits, so that
// reflect.DeepEqual compares NaNs by payload.
type bitsValue struct {
	Type  *uts.Type
	I     int64
	F     uint64
	S     string
	Elems []bitsValue
}

func asBits(vs []uts.Value) []bitsValue {
	if vs == nil {
		return nil
	}
	out := make([]bitsValue, len(vs))
	for i, v := range vs {
		out[i] = bitsValue{v.Type, v.I, math.Float64bits(v.F), v.S, asBits(v.Elems)}
	}
	return out
}

// bulkMessage is the message FuzzDecodeParamsNative decodes as the
// bulk list: an array[4096] of double holding 1 everywhere, data written
// over it from element at on (running past the end is trailing bytes),
// and then cut bytes cut off the end. It keeps the corpus small where
// 32 KiB inputs would slow the fuzzer to a crawl.
func bulkMessage(at uint16, cut uint8, data []byte) []byte {
	b := make([]byte, 8*4096)
	for i := 0; i < 4096; i++ {
		binary.BigEndian.PutUint64(b[8*i:], math.Float64bits(1))
	}
	off := 8 * (int(at) % 4096)
	b = append(append(b[:off:off], data...), b[min(off+len(data), len(b)):]...)
	return b[:len(b)-min(int(cut), len(b))]
}

func double(f float64) []byte { return binary.BigEndian.AppendUint64(nil, math.Float64bits(f)) }

// FuzzDecodeParamsNative: the fused decode gives what decoding and then
// converting gives — the values bit for bit, the index of the parameter
// a machine cannot hold, and the error text — on every registered
// architecture. A malformed message reports its decode error even when
// an earlier value is out of range. Decoding into storage an earlier
// decode of another list left gives what decoding afresh gives, down to
// every field of every element.
func FuzzDecodeParamsNative(f *testing.F) {
	names := Names()
	arch := func(name string) uint8 {
		for i, n := range names {
			if n == name {
				return uint8(i)
			}
		}
		panic(name)
	}
	for _, at := range []uint16{0, 255, 256, 4095} {
		f.Add(arch("convex-c220"), uint8(0), at, uint8(0), double(1e300))
		f.Add(arch("cray-ymp"), uint8(0), at, uint8(0), double(math.NaN()))
		f.Add(arch("ibm370"), uint8(0), at, uint8(0), double(1e100))
	}
	f.Add(arch("convex-c220"), uint8(0), uint16(7), uint8(3), double(1e300))                        // truncated tail
	f.Add(arch("convex-c220"), uint8(0), uint16(4095), uint8(0), append(double(1e300), 0, 0, 0, 0)) // trailing bytes
	f.Add(arch("cray-ymp"), uint8(0), uint16(9), uint8(0), double(0x1p-1030))                       // a subnormal
	mixed := func(last byte) []byte {
		b := double(1e300)
		b = binary.BigEndian.AppendUint64(b, 1<<40)
		b = binary.BigEndian.AppendUint32(b, math.Float32bits(2.5))
		for _, y := range []float64{1, -2, 1e-300} {
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(y))
		}
		b = binary.BigEndian.AppendUint32(b, 7)
		b = append(b, last) // the boolean: 2 is invalid
		b = append(b, make([]byte, 5*4+2*8+4*8)...)
		return b
	}
	f.Add(arch("convex-c220"), uint8(1), uint16(0), uint8(0), mixed(1))
	f.Add(arch("convex-c220"), uint8(1), uint16(0), uint8(0), mixed(2)) // out of range, then malformed
	f.Add(arch("sparc"), uint8(1), uint16(0), uint8(0), mixed(1))       // a long a 4-byte word cannot hold
	named := append(binary.BigEndian.AppendUint32(nil, 2), "hi"...)
	for i := 0; i < 4; i++ {
		named = binary.BigEndian.AppendUint64(named, math.Float64bits(float64(i)*1e100))
	}
	named = append(named, 9)
	f.Add(arch("ibm370"), uint8(2), uint16(0), uint8(0), append(named, double(math.Copysign(0, -1))...))
	f.Add(arch("i386pc"), uint8(2), uint16(0), uint8(0), binary.BigEndian.AppendUint64(named, 0x7ff8000000000001))

	f.Fuzz(func(t *testing.T, which, list uint8, at uint16, cut uint8, data []byte) {
		a := registry[names[int(which)%len(names)]]
		list %= uint8(len(fuzzLists))
		params := fuzzLists[list]
		if list == 0 {
			data = bulkMessage(at, cut, data)
		}
		want, wantErr := uts.DecodeParams(data, params)
		wantBad := -1
		for i := 0; wantErr == nil && i < len(want); i++ {
			if want[i], wantErr = a.NativeRoundTrip(want[i]); wantErr != nil {
				wantBad = i
			}
		}
		got, bad, err := uts.DecodeParamsNative(data, params, a, nil)
		if bad != wantBad || (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%s: DecodeParamsNative(%x) = bad %d, %v; decode then convert: bad %d, %v", a.Name, data, bad, err, wantBad, wantErr)
		}
		reused, rbad, rerr := uts.DecodeParamsNative(data, params, a, dirty(dirtyLists[list]))
		if rbad != bad || (rerr == nil) != (err == nil) || (rerr != nil && rerr.Error() != err.Error()) {
			t.Fatalf("%s: DecodeParamsNative(%x) into storage = bad %d, %v; afresh: bad %d, %v", a.Name, data, rbad, rerr, bad, err)
		}
		for i := range got {
			if !reflect.DeepEqual(asBits(reused[i:i+1]), asBits(got[i:i+1])) {
				t.Fatalf("%s: list %d, parameter %d: DecodeParamsNative into storage gives %v; afresh %v", a.Name, list, i, reused[i], got[i])
			}
		}
		if err != nil {
			return
		}
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s: parameter %d: DecodeParamsNative gives %v; decode then convert %v", a.Name, i, got[i], want[i])
			}
		}
	})
}
