package machine

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"npss/internal/uts"
)

// kernelInputs is the differential corpus: seeded doubles over the whole
// exponent range, seeded singles, and every edge a format treats
// specially.
func kernelInputs() []float64 {
	in := []float64{
		0, math.Copysign(0, -1), 1, -1, math.Pi, -math.E,
		math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.Float64frombits(0x0010000000000000), // smallest normal
		math.Float64frombits(0x0000000100000000), // a mid subnormal
		math.MaxFloat32, math.SmallestNonzeroFloat32, 1e39, -1e39, 3.5e38,
		// Cray: mantissas that round up out of 48 bits, up to the one
		// that rounds past the IEEE range.
		math.Float64frombits(0x3fefffffffffffff), math.Float64frombits(0x3feffffffffffff0),
		math.Float64frombits(0x3fefffffffffffef), math.Float64frombits(0x7feffffffffffff0),
		float64(1<<47) + 1, float64(1<<48) + 1, float64(1<<53) - 1,
		// IBM hex: the last representable values and the first beyond,
		// at both ends, and every alignment of the hex digit.
		0x1p251, 0x1p252, math.Nextafter(0x1p252, 0), -0x1p252, 1e75, 1e76, 7.2e75, 7.3e75,
		0x1p-260, 0x1p-261, math.Nextafter(0x1p-260, 0), 0x1p-257, 0x1p-258, 0x1p-259,
		0x1.8p0, 0x1.8p1, 0x1.8p2, 0x1.8p3,
		// VAX D: the same for its binary exponent.
		0x1p126, 0x1p127, math.Nextafter(0x1p127, 0), -0x1p127, 1.6e38, 1.8e38,
		0x1p-128, 0x1p-129, math.Nextafter(0x1p-128, 0), 1e-40, -0x1p-128,
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 20000; i++ {
		in = append(in, math.Float64frombits(rng.Uint64()))
		in = append(in, float64(math.Float32frombits(rng.Uint32())))
		// Ordinary magnitudes, which random bit patterns almost never are.
		in = append(in, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(160)-80)))
	}
	return in
}

// sameError reports whether two conversion errors are the same value:
// both nil, or RangeErrors equal field by field (Value bit for bit, so
// NaN matches NaN), or the same text.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	ra, aok := a.(*RangeError)
	rb, bok := b.(*RangeError)
	if aok != bok {
		return false
	}
	if !aok {
		return a.Error() == b.Error()
	}
	return math.Float64bits(ra.Value) == math.Float64bits(rb.Value) && ra.Format == rb.Format && ra.Detail == rb.Detail
}

// wordBytes lays a native word out as the codec's byte form.
func wordBytes(c FloatCodec, w uint64) []byte {
	b := make([]byte, c.Size())
	for i := range b {
		b[i] = byte(w >> (8 * (c.Size() - 1 - i)))
	}
	if c == IEEE32LE || c == IEEE64LE {
		reverse(b)
	}
	return b
}

func TestKernelMatchesReference(t *testing.T) {
	inputs := kernelInputs()
	rng := rand.New(rand.NewSource(13))
	for _, c := range allCodecs {
		ref := refCodecs[c.Name()]
		for _, f := range inputs {
			want, wantErr := ref.Encode(f)
			w, err := c.ToWord(f)
			if !sameError(err, wantErr) {
				t.Fatalf("%s.ToWord(%x): error %v, reference %v", c.Name(), math.Float64bits(f), err, wantErr)
			}
			got, encErr := c.Encode(f)
			if !sameError(encErr, wantErr) {
				t.Fatalf("%s.Encode(%x): error %v, reference %v", c.Name(), math.Float64bits(f), encErr, wantErr)
			}
			if err != nil {
				continue
			}
			if string(got) != string(want) || string(wordBytes(c, w)) != string(want) {
				t.Fatalf("%s of %x: word %x, bytes %x, reference bytes %x", c.Name(), math.Float64bits(f), w, got, want)
			}
		}
		// Decoding is compared on arbitrary words, not just the ones an
		// encode produces: unnormalized Cray mantissas, exponents past
		// the IEEE range, fractions wider than a double.
		words := []uint64{0, 1 << 63, 1<<63 | 1, 1 << 47, 0x7fff << 48, 0x7fff<<48 | 1<<47, math.MaxUint64}
		for _, f := range inputs[:64] {
			if w, err := c.ToWord(f); err == nil {
				words = append(words, w)
			}
		}
		for i := 0; i < 60000; i++ {
			w := rng.Uint64()
			if i%3 == 0 {
				// Cray exponents near the bias, where the IEEE range is.
				w = w&^(0x7fff<<48) | uint64(crayBias-1100+rng.Intn(2200))<<48
			}
			words = append(words, w)
		}
		for _, w := range words {
			if c.Size() == 4 {
				w &= math.MaxUint32
			}
			b := wordBytes(c, w)
			want, wantErr := ref.Decode(b)
			got, err := c.FromWord(w)
			if !sameError(err, wantErr) || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s.FromWord(%x) = %x, %v; reference %x, %v", c.Name(), w, math.Float64bits(got), err, math.Float64bits(want), wantErr)
			}
			got, err = c.Decode(b)
			if !sameError(err, wantErr) || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s.Decode(%x) = %x, %v; reference %x, %v", c.Name(), b, math.Float64bits(got), err, math.Float64bits(want), wantErr)
			}
		}
	}
}

// wordRoundTrip is the specification of a round trip: the word path,
// FromWord(ToWord(f)).
func wordRoundTrip(c FloatCodec, f float64) (float64, error) {
	w, err := c.ToWord(f)
	if err != nil {
		return 0, err
	}
	return c.FromWord(w)
}

// TestShortcutMatchesWordPath: for the formats whose round trip has a
// shortcut on the IEEE bits, RoundTrip and both runs equal the word
// path bit for bit and error for error — on every exponent, with each
// sign and the mantissas where rounding to 48 bits turns, and on a
// million seeded bit patterns.
func TestShortcutMatchesWordPath(t *testing.T) {
	var patterns []uint64
	for e := uint64(0); e < 2048; e++ {
		for _, m := range []uint64{0, 1, 15, 16, 17, 31, 32, 1<<52 - 17, 1<<52 - 16, 1<<52 - 15, 1<<52 - 1} {
			patterns = append(patterns, e<<52|m, 1<<63|e<<52|m)
		}
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 1<<20; i++ {
		patterns = append(patterns, rng.Uint64())
	}
	const run = 256
	vs := make([]uts.Value, run)
	wire := make([]byte, 8*run)
	for _, c := range []FloatCodec{Cray64, VAXD64} {
		shortcuts := 0
		for at := 0; at < len(patterns); at += run {
			chunk := patterns[at:min(at+run, len(patterns))]
			firstErr, failed := error(nil), len(chunk)
			want := make([]uint64, len(chunk))
			for i, b := range chunk {
				f := math.Float64frombits(b)
				w, wantErr := wordRoundTrip(c, f)
				want[i] = math.Float64bits(w)
				if _, ok := c.(*format).quick(b); ok {
					shortcuts++
				}
				got, err := c.RoundTrip(f)
				if !sameError(err, wantErr) || (err == nil && math.Float64bits(got) != want[i]) {
					t.Fatalf("%s.RoundTrip(%#016x) = %#016x, %v; word path %#016x, %v", c.Name(), b, math.Float64bits(got), err, want[i], wantErr)
				}
				if wantErr != nil && failed == len(chunk) {
					firstErr, failed = wantErr, i
				}
				vs[i] = uts.DoubleVal(f)
				binary.BigEndian.PutUint64(wire[8*i:], b)
			}
			// A run converts up to its first failure and reports it.
			errV := c.RoundTripValues(vs[:len(chunk)])
			errB := c.RoundTripBytes(wire[:8*len(chunk)])
			if !sameError(errV, firstErr) || !sameError(errB, firstErr) {
				t.Fatalf("%s: runs at %d: errors %v and %v; word path %v at %d", c.Name(), at, errV, errB, firstErr, failed)
			}
			for i := 0; i < failed; i++ {
				if v, b := math.Float64bits(vs[i].F), binary.BigEndian.Uint64(wire[8*i:]); v != want[i] || b != want[i] {
					t.Fatalf("%s: runs at %d, element %d (%#016x): values %#016x, bytes %#016x; word path %#016x", c.Name(), at, i, chunk[i], v, b, want[i])
				}
			}
		}
		// Most random patterns are Cray-normal; one exponent in eight
		// is VAX D's range.
		if shortcuts < len(patterns)/10 {
			t.Errorf("%s: the shortcut decided %d of %d patterns; the test proves little", c.Name(), shortcuts, len(patterns))
		}
	}
}

// refRoundTrip is NativeRoundTrip as it was before the kernels: one
// recursion per element through the reference byte codecs.
func refRoundTrip(a *Arch, v uts.Value) (uts.Value, error) {
	native := func(c FloatCodec, f float64) (float64, error) {
		b, err := refCodecs[c.Name()].Encode(f)
		if err != nil {
			return 0, err
		}
		return refCodecs[c.Name()].Decode(b)
	}
	switch v.Type.Kind() {
	case uts.Float:
		f, err := native(a.Single, v.F)
		if err != nil {
			return uts.Value{}, err
		}
		return uts.FloatVal(f), nil
	case uts.Double:
		f, err := native(a.Double, v.F)
		if err != nil {
			return uts.Value{}, err
		}
		return uts.DoubleVal(f), nil
	case uts.Integer:
		if err := a.CheckInteger(v.I); err != nil {
			return uts.Value{}, err
		}
		return v, nil
	case uts.Long:
		if a.WordBytes < 8 && (v.I < math.MinInt32 || v.I > math.MaxInt32) {
			return uts.Value{}, &RangeError{Value: float64(v.I), Format: a.Name + " long"}
		}
		return v, nil
	case uts.Array, uts.Record:
		elems := make([]uts.Value, len(v.Elems))
		for i, e := range v.Elems {
			ne, err := refRoundTrip(a, e)
			if err != nil {
				return uts.Value{}, err
			}
			elems[i] = ne
		}
		return uts.Value{Type: v.Type, Elems: elems}, nil
	}
	return v, nil
}

// sameBits is reflect.DeepEqual with floats compared bit for bit.
func sameBits(a, b uts.Value) bool {
	if a.Type != b.Type && !a.Type.Equal(b.Type) {
		return false
	}
	if a.I != b.I || math.Float64bits(a.F) != math.Float64bits(b.F) || a.S != b.S || len(a.Elems) != len(b.Elems) {
		return false
	}
	for i := range a.Elems {
		if !sameBits(a.Elems[i], b.Elems[i]) {
			return false
		}
	}
	return true
}

var pointType = uts.MustRecordOf(
	uts.Field{Name: "id", Type: uts.TInteger},
	uts.Field{Name: "big", Type: uts.TLong},
	uts.Field{Name: "xy", Type: uts.ArrayOf(2, uts.TDouble)},
	uts.Field{Name: "w", Type: uts.TFloat},
	uts.Field{Name: "tag", Type: uts.TString},
	uts.Field{Name: "ok", Type: uts.TBoolean},
	uts.Field{Name: "b", Type: uts.TByte},
)

// randomValue builds a nested value whose numbers come from pick.
func randomValue(rng *rand.Rand, pick func() float64) uts.Value {
	point := func() uts.Value {
		id := int64(int32(rng.Uint32()))
		big := int64(rng.Uint64())
		if rng.Intn(4) != 0 {
			big = int64(int32(big))
		}
		if rng.Intn(40) == 0 {
			id = big // an integer the 32-bit interchange form cannot hold
		}
		return uts.Value{Type: pointType, Elems: []uts.Value{
			{Type: uts.TInteger, I: id}, uts.LongVal(big),
			uts.DoubleArray(pick(), pick()), {Type: uts.TFloat, F: pick()},
			uts.Str("p"), uts.Bool(rng.Intn(2) == 0), uts.ByteVal(byte(rng.Intn(256))),
		}}
	}
	switch rng.Intn(4) {
	case 0:
		fs := make([]float64, 1+rng.Intn(40))
		for i := range fs {
			fs[i] = pick()
		}
		return uts.DoubleArray(fs...)
	case 1:
		rows := make([]uts.Value, 1+rng.Intn(4))
		for i := range rows {
			rows[i] = uts.Value{Type: uts.ArrayOf(3, uts.TFloat), Elems: []uts.Value{
				{Type: uts.TFloat, F: pick()}, {Type: uts.TFloat, F: pick()}, {Type: uts.TFloat, F: pick()}}}
		}
		return uts.Value{Type: uts.ArrayOf(len(rows), rows[0].Type), Elems: rows}
	case 2:
		return point()
	}
	pts := make([]uts.Value, 1+rng.Intn(5))
	for i := range pts {
		pts[i] = point()
	}
	return uts.Value{Type: uts.ArrayOf(len(pts), pointType), Elems: pts}
}

// TestNativeRoundTripMatchesReference runs aggregates through every
// registered architecture. With several out-of-range elements in one
// value the first, in element order, must be the one reported.
func TestNativeRoundTripMatchesReference(t *testing.T) {
	inputs := kernelInputs()
	for _, name := range Names() {
		a := registry[name]
		rng := rand.New(rand.NewSource(14))
		failures := 0
		for i := 0; i < 3000; i++ {
			pick := func() float64 { return inputs[64+rng.Intn(len(inputs)-64)] }
			if i%2 == 0 {
				// Mostly convertible, so whole aggregates succeed too.
				pick = func() float64 {
					if rng.Intn(30) == 0 {
						return inputs[rng.Intn(64)]
					}
					return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
				}
			}
			v := randomValue(rng, pick)
			before := v.Clone()
			want, wantErr := refRoundTrip(a, v)
			got, err := a.NativeRoundTrip(v)
			if !sameError(err, wantErr) {
				t.Fatalf("%s: NativeRoundTrip(%v): error %v, reference %v", name, v, err, wantErr)
			}
			if !sameBits(v, before) {
				t.Fatalf("%s: NativeRoundTrip changed its argument %v", name, before)
			}
			if err != nil {
				failures++
				continue
			}
			if !sameBits(got, want) {
				t.Fatalf("%s: NativeRoundTrip(%v) = %v, reference %v", name, v, got, want)
			}
			// The same value as it arrives off the wire, converted as
			// it is decoded.
			p := []uts.Param{{Name: "v", Type: v.Type}}
			buf, err := uts.EncodeParams(nil, p, []uts.Value{v})
			if err != nil {
				continue // a float beyond single precision, held by a Cray
			}
			arrived, err := uts.DecodeParams(buf, p)
			if err != nil {
				t.Fatal(err)
			}
			want, wantErr = refRoundTrip(a, arrived[0])
			fused, bad, err := uts.DecodeParamsNative(buf, p, a, nil)
			if !sameError(err, wantErr) || (err != nil) != (bad == 0) || (err == nil && !sameBits(fused[0], want)) {
				t.Fatalf("%s: DecodeParamsNative(%v) = %v, %d, %v; reference %v, %v", name, arrived[0], fused, bad, err, want, wantErr)
			}
		}
		if failures == 0 || failures == 3000 {
			t.Errorf("%s: %d of 3000 values failed to convert; the corpus should mix both", name, failures)
		}
	}
}

// TestNativeRoundTripSharesNoStorage: writing to every slot of the
// result, at every depth, must leave the input as it was.
func TestNativeRoundTripSharesNoStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pick := func() float64 { return rng.Float64() }
	var scribble func(v *uts.Value)
	scribble = func(v *uts.Value) {
		for i := range v.Elems {
			scribble(&v.Elems[i])
		}
		v.I, v.F, v.S = -1, -1, "scribbled"
	}
	for _, a := range []*Arch{SPARC, CrayYMP} {
		for i := 0; i < 200; i++ {
			v := randomValue(rng, pick)
			before := v.Clone()
			got, err := a.NativeRoundTrip(v)
			if err != nil {
				continue // a long or integer this machine cannot hold
			}
			scribble(&got)
			if !reflect.DeepEqual(v, before) {
				t.Fatalf("%s: result of NativeRoundTrip(%v) shares storage with it", a.Name, before)
			}
		}
	}
}

// TestConversionDoesNotAllocate pins the point of the kernels: a scalar
// round trip and an in-place run of doubles allocate nothing, a copying
// aggregate conversion allocates its Elems and nothing else, and a
// decode fused with the conversion allocates what decoding does: the
// parameter list and one Elems per array, or nothing when it decodes
// into the storage of an earlier decode.
func TestConversionDoesNotAllocate(t *testing.T) {
	fs := make([]float64, 4096)
	for i := range fs {
		fs[i] = float64(i) + 0.25
	}
	params := []uts.Param{{Name: "xs", Type: uts.ArrayOf(len(fs), uts.TDouble)}}
	for _, a := range []*Arch{SPARC, CrayYMP, Convex, IBM370} {
		arr, one := uts.DoubleArray(fs...), uts.DoubleVal(math.Pi)
		buf, err := uts.EncodeParams(nil, params, []uts.Value{arr})
		if err != nil {
			t.Fatal(err)
		}
		kept, _, err := uts.DecodeParamsNative(buf, params, a, nil)
		if err != nil {
			t.Fatal(err)
		}
		for what, c := range map[string]struct {
			max float64
			fn  func() error
		}{
			"scalar round trip": {0, func() error { _, err := a.NativeRoundTrip(one); return err }},
			"array round trip":  {1, func() error { _, err := a.NativeRoundTrip(arr); return err }},
			"doubles in place":  {0, func() error { return a.NativeDoubles(arr.Elems) }},
			"bytes in place":    {0, func() error { return a.NativeDoubleBytes(buf) }},
			"fused decode":      {2, func() error { _, _, err := uts.DecodeParamsNative(buf, params, a, nil); return err }},
			"into storage":      {0, func() error { _, _, err := uts.DecodeParamsNative(buf, params, a, kept); return err }},
		} {
			var err error
			if n := testing.AllocsPerRun(10, func() { err = c.fn() }); n > c.max || err != nil {
				t.Errorf("%s: %s: %v allocations (at most %v allowed), error %v", a.Name, what, n, c.max, err)
			}
		}
	}
}

func ExampleFloatCodec_word() {
	w, _ := Cray64.ToWord(-1.5)
	f, _ := Cray64.FromWord(w)
	fmt.Printf("%016x %g\n", w, f)
	// Output: c001c00000000000 -1.5
}
