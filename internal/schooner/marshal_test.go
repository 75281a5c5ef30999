package schooner

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"npss/internal/machine"
	"npss/internal/uts"
)

// twoPass is the outbound conversion as it was before marshalNative
// fused it: a converted copy of every value first, then the encoding of
// the ones that are sent. It returns what marshalNative returns.
func twoPass(arch *machine.Arch, params []uts.Param, vals []uts.Value, keep []bool) ([]byte, int, error) {
	var sendParams []uts.Param
	var send []uts.Value
	for i, v := range vals {
		nv, err := arch.NativeRoundTrip(v)
		if err != nil {
			return nil, i, err
		}
		if keep == nil || keep[i] {
			sendParams, send = append(sendParams, params[i]), append(send, nv)
		}
	}
	data, err := uts.EncodeParams(nil, sendParams, send)
	return data, -1, err
}

var marshalTypes = []*uts.Type{
	uts.TDouble, uts.TFloat, uts.TInteger, uts.TLong, uts.TString, uts.TByte, uts.TBoolean,
	uts.ArrayOf(6, uts.TDouble), uts.ArrayOf(3, uts.TFloat), uts.ArrayOf(2, uts.TInteger),
	uts.ArrayOf(2, uts.ArrayOf(2, uts.TDouble)),
	uts.MustRecordOf(uts.Field{Name: "n", Type: uts.TLong}, uts.Field{Name: "xs", Type: uts.ArrayOf(2, uts.TDouble)}, uts.Field{Name: "s", Type: uts.TString}),
}

// marshalValue draws a value of type t. About one number in edgy is one
// that some machine cannot hold, and about one aggregate in edgy is
// malformed: an element of the wrong type, or an element missing.
func marshalValue(r *rand.Rand, t *uts.Type, edgy int) uts.Value {
	hard := []float64{1e300, -1e300, 1e100, 1e39, math.NaN(), math.Inf(1), math.MaxFloat64, 1e-300, 5e-324}
	float := func() float64 {
		if r.Intn(edgy) == 0 {
			return hard[r.Intn(len(hard))]
		}
		return (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(40)-20))
	}
	switch t.Kind() {
	case uts.Double:
		return uts.DoubleVal(float())
	case uts.Float:
		return uts.Value{Type: uts.TFloat, F: float()}
	case uts.Integer, uts.Long:
		i := int64(int32(r.Uint32()))
		if r.Intn(edgy) == 0 {
			i = int64(r.Uint64())
		}
		return uts.Value{Type: t, I: i}
	case uts.String:
		return uts.Str(fmt.Sprint("s", r.Intn(1000)))
	case uts.Byte:
		return uts.Value{Type: t, I: int64(r.Intn(256 + 256/edgy))}
	case uts.Boolean:
		return uts.Bool(r.Intn(2) == 0)
	}
	v := uts.Value{Type: t}
	if t.Kind() == uts.Array {
		for i := 0; i < t.Len(); i++ {
			v.Elems = append(v.Elems, marshalValue(r, t.Elem(), edgy))
		}
	} else {
		for _, f := range t.Fields() {
			v.Elems = append(v.Elems, marshalValue(r, f.Type, edgy))
		}
	}
	switch r.Intn(3 * edgy) {
	case 0:
		v.Elems[r.Intn(len(v.Elems))] = marshalValue(r, marshalTypes[r.Intn(len(marshalTypes))], edgy)
	case 1:
		v.Elems = v.Elems[:len(v.Elems)-1]
	}
	return v
}

// TestMarshalNativeMatchesTwoPass: on every registered architecture the
// fused conversion produces the bytes, or the error and the index of
// the offending value, that converting and then encoding produced — for
// well-formed lists, for lists with several things wrong at once, and
// for subset imports that leave results out.
func TestMarshalNativeMatchesTwoPass(t *testing.T) {
	for _, name := range machine.Names() {
		arch, _ := machine.ByName(name)
		r := rand.New(rand.NewSource(31))
		outcomes := map[string]int{}
		for i := 0; i < 4000; i++ {
			edgy := []int{1000, 25, 6}[i%3]
			n := 1 + r.Intn(5)
			params := make([]uts.Param, n)
			vals := make([]uts.Value, n)
			var keep []bool
			if r.Intn(3) == 0 {
				keep = make([]bool, n)
			}
			size := 0
			for j := range params {
				typ := marshalTypes[r.Intn(len(marshalTypes))]
				params[j] = uts.Param{Name: fmt.Sprint("p", j), Mode: uts.Var, Type: typ}
				vals[j] = marshalValue(r, typ, edgy)
				if r.Intn(4*edgy) == 0 {
					vals[j] = marshalValue(r, marshalTypes[r.Intn(len(marshalTypes))], edgy)
				}
				if keep != nil {
					keep[j] = r.Intn(2) == 0
				}
				if keep == nil || keep[j] {
					sz, _ := typ.FixedSize()
					size += sz
				}
			}
			before := uts.Value{Elems: vals}.Clone()
			want, wantBad, wantErr := twoPass(arch, params, vals, keep)
			got, bad, err := marshalNative(arch, params, vals, keep, size)
			if !sameValues(vals, before.Elems) {
				t.Fatalf("%s: marshalNative modified its values: %v, were %v", name, vals, before.Elems)
			}
			if bad != wantBad || (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) || string(got) != string(want) {
				t.Fatalf("%s: marshalNative(%v, keep %v) = %x, %d, %v; convert-then-encode gives %x, %d, %v",
					name, vals, keep, got, bad, err, want, wantBad, wantErr)
			}
			var re *machine.RangeError
			switch {
			case err == nil:
				outcomes["ok"]++
			case bad >= 0 && errors.As(err, &re):
				outcomes["range"]++
			case bad >= 0:
				outcomes["native"]++
			default:
				outcomes["malformed"]++
			}
		}
		if outcomes["ok"] < 500 || outcomes["range"] < 200 || outcomes["malformed"] < 200 {
			t.Errorf("%s: corpus too one-sided to prove anything: %v", name, outcomes)
		}
	}
}

// sameValues compares value lists with floats bit for bit, so that NaN
// is equal to itself.
func sameValues(a, b []uts.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Type != b[i].Type || a[i].I != b[i].I || a[i].S != b[i].S ||
			math.Float64bits(a[i].F) != math.Float64bits(b[i].F) || !sameValues(a[i].Elems, b[i].Elems) {
			return false
		}
	}
	return true
}

const mirrorSpec = `prog("xs" var array[64] of double, "p" var record("w" float, "ys" array[2] of double), "k" val double)`

// shared is a value a procedure hands out on every call, as a procedure
// keeping a table would: the runtime must never write to it.
var shared = uts.DoubleArray(math.Pi, math.E, 1.0/3, 1e-300)

// mirrorProgram exports mirror, which returns its arguments as they
// arrived, and table, which returns the shared value, its first argument
// and the sum of its second, on which it then scribbles.
func mirrorProgram(path string) *Program {
	return &Program{
		Path: path, Language: LangC,
		Build: func() (*Instance, error) {
			return NewInstance(
				&BoundProc{
					Spec: uts.MustParseProc("export mirror " + mirrorSpec),
					Fn:   func(in []uts.Value) ([]uts.Value, error) { return in[:2], nil },
				},
				&BoundProc{
					Spec: uts.MustParseProc(`export table prog("big" val double, "extra" val array[3] of double, "t" res array[4] of double, "echo" res double, "sum" res double)`),
					Fn: func(in []uts.Value) ([]uts.Value, error) {
						// Scribbling on an argument is the procedure's
						// right; the next call must not see it.
						sum := in[1].Elems[0].F + in[1].Elems[1].F + in[1].Elems[2].F
						in[1].Elems[0].F = 99
						return []uts.Value{shared, in[0], uts.DoubleVal(sum)}, nil
					},
				})
		},
	}
}

// mirrorLine starts the mirror program on host and returns a line from
// caller to it.
func mirrorLine(t *testing.T, caller, host *machine.Arch) *Line {
	t.Helper()
	d := newDeployment(t, "caller", map[string]*machine.Arch{"caller": caller, "host": host})
	d.reg.MustRegister(mirrorProgram("/test/mirror"))
	ln, err := d.client("caller").ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.IQuit() })
	if err := ln.StartRemote("/test/mirror", "host"); err != nil {
		t.Fatal(err)
	}
	if err := ln.Import(uts.MustParseProc("import mirror " + mirrorSpec)); err != nil {
		t.Fatal(err)
	}
	return ln
}

func mirrorArgs(r *rand.Rand) []uts.Value {
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = (r.Float64() - 0.5) * 1e6
	}
	pt := uts.MustParseProc("import mirror " + mirrorSpec).Params[1].Type
	return []uts.Value{
		uts.DoubleArray(xs...),
		{Type: pt, Elems: []uts.Value{uts.FloatVal(r.Float64()), uts.DoubleArray(r.Float64(), r.Float64())}},
		uts.DoubleVal(r.Float64()),
	}
}

// TestCallLeavesArgumentsAlone: the caller sits on a Cray-format
// machine too, so its own outbound conversion rounds every double to 48
// bits — a conversion done in place would show in the arguments. They
// must come back from Call exactly as they went in, backing arrays
// included, and the results must be new storage.
func TestCallLeavesArgumentsAlone(t *testing.T) {
	ln := mirrorLine(t, machine.CrayYMP, machine.CrayYMP)
	r := rand.New(rand.NewSource(32))
	for i := 0; i < 20; i++ {
		args := mirrorArgs(r)
		before := uts.Value{Elems: args}.Clone().Elems
		backing := &args[0].Elems[0]
		out, err := ln.Call("mirror", args...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(args, before) || backing != &args[0].Elems[0] {
			t.Fatalf("Call changed its arguments:\n now %v\n was %v", args, before)
		}
		rounded := 0
		for j, e := range out[0].Elems {
			if want, _ := machine.CrayYMP.Double.RoundTrip(args[0].Elems[j].F); e.F != want {
				t.Fatalf("result %d = %v, want %v as a Cray holds it, %v", j, e.F, args[0].Elems[j].F, want)
			}
			if e.F != args[0].Elems[j].F {
				rounded++
			}
			out[0].Elems[j].F = -1
		}
		if rounded == 0 {
			t.Error("no element lost precision on the Cray; the test proves nothing")
		}
		out[1].Elems[1].Elems[0].F = -1
		if !reflect.DeepEqual(args, before) {
			t.Fatal("the results of Call share storage with its arguments")
		}
	}
}

// TestProcedureValuesLeftAlone: results are converted on their way into
// the reply, not where the procedure keeps them, and the zero values a
// subset import's omitted parameters take are new on every call.
func TestProcedureValuesLeftAlone(t *testing.T) {
	ln := mirrorLine(t, machine.SPARC, machine.CrayYMP)
	// "extra" is omitted: the export sees zeros.
	if err := ln.Import(uts.MustParseProc(`import table prog("big" val double, "t" res array[4] of double, "sum" res double)`)); err != nil {
		t.Fatal(err)
	}
	want := shared.Clone()
	for i := 0; i < 3; i++ {
		out, err := ln.Call("table", uts.DoubleVal(1))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shared, want) {
			t.Fatalf("call %d: the procedure's own value changed: %v", i, shared)
		}
		// Written so that NaN fails: a comparison with NaN is false.
		if pi := out[0].Elems[0].F; pi == math.Pi || !(math.Abs(pi-math.Pi) <= 1e-13) {
			t.Errorf("call %d: pi came back as %v, not as a Cray holds it", i, out[0].Elems[0].F)
		}
		if out[1].F != 0 {
			t.Errorf("call %d: omitted parameter summed to %v: the previous call's scribble survived", i, out[1].F)
		}
	}
}

// constsLine starts, on host, a procedure returning 1, 1e300 and NaN,
// and returns a line from caller to it.
func constsLine(t *testing.T, caller, host *machine.Arch) *Line {
	t.Helper()
	d := newDeployment(t, "caller", map[string]*machine.Arch{"caller": caller, "host": host})
	d.reg.MustRegister(&Program{
		Path: "/test/consts", Language: LangC,
		Build: func() (*Instance, error) {
			return NewInstance(&BoundProc{
				Spec: uts.MustParseProc(`export consts prog("a" res double, "b" res double, "c" res double)`),
				Fn: func([]uts.Value) ([]uts.Value, error) {
					return []uts.Value{uts.DoubleVal(1), uts.DoubleVal(1e300), uts.DoubleVal(math.NaN())}, nil
				},
			})
		},
	})
	ln, err := d.client("caller").ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.IQuit() })
	if err := ln.StartRemote("/test/consts", "host"); err != nil {
		t.Fatal(err)
	}
	return ln
}

// TestConversionErrorsOnTheWire pins the text and type of the range
// error at each of the four conversion sites, and that a result the
// import leaves out is still converted, in the export's order, and
// still fails the call.
func TestConversionErrorsOnTheWire(t *testing.T) {
	const overflow = "machine: value out of range for vaxd64: exponent overflow"
	var re *machine.RangeError

	// The caller's arguments: the caller's machine is the VAX.
	ln := mirrorLine(t, machine.Convex, machine.SPARC)
	args := mirrorArgs(rand.New(rand.NewSource(33)))
	args[2] = uts.DoubleVal(1e300)
	_, err := ln.Call("mirror", args...)
	if err == nil || err.Error() != `schooner: parameter "k": `+overflow || !errors.As(err, &re) {
		t.Errorf("argument out of the caller's range: %v", err)
	}
	// An argument of the wrong type is an error too, but conversion
	// comes first: a later argument out of range is the one reported.
	args[0] = uts.DoubleArray(1, 2)
	_, err = ln.Call("mirror", args...)
	if err == nil || err.Error() != `schooner: parameter "k": `+overflow {
		t.Errorf("wrong type, then out of range: %v", err)
	}
	args[2] = uts.DoubleVal(1)
	_, err = ln.Call("mirror", args...)
	if want := `uts: parameter "xs": value type array[2] of double does not match declared type array[64] of double`; err == nil || err.Error() != want {
		t.Errorf("wrong type: %v", err)
	}

	// The procedure's parameters: its machine is the VAX.
	ln = mirrorLine(t, machine.SPARC, machine.Convex)
	args = mirrorArgs(rand.New(rand.NewSource(34)))
	args[0].Elems[63] = uts.DoubleVal(1e300)
	_, err = ln.Call("mirror", args...)
	if want := "schooner: converting parameter to convex-c220 native format: " + overflow; err == nil || err.Error() != want {
		t.Errorf("parameter out of the host's range: %v", err)
	}

	// The procedure's results, whether the import asks for "b" or not.
	for _, imp := range []string{`prog("a" res double)`, `prog("a" res double, "c" res double)`, `prog("a" res double, "b" res double, "c" res double)`} {
		ln = constsLine(t, machine.SPARC, machine.Convex)
		if err := ln.Import(uts.MustParseProc("import consts " + imp)); err != nil {
			t.Fatal(err)
		}
		_, err := ln.Call("consts")
		if want := `schooner: converting result "b" from convex-c220 native format: ` + overflow; err == nil || err.Error() != want {
			t.Errorf("import %s: result out of the host's range: %v", imp, err)
		}
	}

	// The caller's results: an IEEE host returns what the VAX that
	// asked cannot hold.
	ln = constsLine(t, machine.Convex, machine.SGI)
	if err := ln.Import(uts.MustParseProc(`import consts prog("a" res double, "b" res double)`)); err != nil {
		t.Fatal(err)
	}
	_, err = ln.Call("consts")
	if err == nil || err.Error() != `schooner: result "b": `+overflow || !errors.As(err, &re) {
		t.Errorf("result out of the caller's range: %v", err)
	}
}

// mallocsPerRun is testing.AllocsPerRun with bytes: heap objects and
// bytes allocated per call of fn, by every goroutine.
func mallocsPerRun(runs int, fn func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(runs), float64(b.TotalAlloc-a.TotalAlloc) / float64(runs)
}

// objectSlack is how far an averaged per-call object count may sit
// above its ceiling: the average includes what other goroutines
// allocate meanwhile, a few hundredths of an object per call. A race
// build raises it (race_test.go).
var objectSlack = 0.5

// TestCallAllocationCeilings keeps the boxing from creeping back. An
// echo of array[4096] of double through a Cray needs one 256 KiB value
// slice, the one the caller gets, and four 32 KiB byte slices, the
// payload marshaled and copied across the simulated network each way:
// the procedure receives its argument in storage its process keeps
// from call to call. The converted copies that used to stand between
// them were four more value slices, a megabyte. The paper's seven-value
// shaft call is held to its object count.
func TestCallAllocationCeilings(t *testing.T) {
	const n = 4096
	spec := fmt.Sprintf(`prog("x" val array[%d] of double, "y" res array[%d] of double)`, n, n)
	d := newDeployment(t, "ws", map[string]*machine.Arch{"ws": machine.SPARC, "cray": machine.CrayYMP, "sgi": machine.SGI})
	d.reg.MustRegister(&Program{
		Path: "/test/echo", Language: LangC,
		Build: func() (*Instance, error) {
			return NewInstance(&BoundProc{
				Spec: uts.MustParseProc("export echo " + spec),
				Fn:   func(in []uts.Value) ([]uts.Value, error) { return in, nil },
			})
		},
	})
	d.reg.MustRegister(shaftProgram("/npss/npss-shaft"))
	ln, err := d.client("ws").ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/test/echo", "cray"); err != nil {
		t.Fatal(err)
	}
	if err := ln.StartRemote("/npss/npss-shaft", "sgi"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc("import echo " + spec))
	ln.Import(uts.MustParseProc(`import shaft prog(
		"ecom" val array[4] of double, "incom" val integer,
		"etur" val array[4] of double, "intur" val integer,
		"ecorr" val double, "xspool" val double, "xmyi" val double,
		"dxspl" res double)`))

	arg := uts.Zero(uts.ArrayOf(n, uts.TDouble))
	for i := range arg.Elems {
		arg.Elems[i].F = float64(i) + 0.1
	}
	const valueSlice, byteSlice = n * 64, n * 8
	objects, bytes := mallocsPerRun(20, func() {
		if _, err := ln.Call("echo", arg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("bulk echo: %.2f objects, %.0f bytes per call", objects, bytes)
	// The slack is for the race detector's build, where sync.Pool drops
	// pooled frames at random; a second value slice is past it.
	if limit := valueSlice + 4*byteSlice + valueSlice*3/4; bytes > float64(limit) {
		t.Errorf("bulk echo allocates %.0f bytes per call, over the %d of one value slice and four payloads plus slack", bytes, limit)
	}
	if objects > 10+objectSlack {
		t.Errorf("bulk echo allocates %.2f objects per call, want at most 10", objects)
	}

	ecom, etur := uts.DoubleArray(10, 10, 10, 10), uts.DoubleArray(11, 11, 11, 11)
	objects, bytes = mallocsPerRun(200, func() {
		if _, err := ln.Call("shaft", ecom, uts.MustInt(4), etur, uts.MustInt(4),
			uts.DoubleVal(1.04), uts.DoubleVal(0.9), uts.DoubleVal(2)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("shaft call: %.2f objects, %.0f bytes per call", objects, bytes)
	if objects > 12+objectSlack {
		t.Errorf("shaft call allocates %.2f objects per call, want at most 12", objects)
	}
}
