package uts

import (
	"strings"
	"testing"
)

// paperShaftSpec is the exact export specification given in section
// 3.3 of the paper for the shaft module.
const paperShaftSpec = `
export setshaft prog(
    "ecom"   val array[4] of float,
    "incom"  val integer,
    "etur"   val array[4] of float,
    "intur"  val integer,
    "ecorr"  res float)

export shaft prog(
    "ecom"   val array[4] of float,
    "incom"  val integer,
    "etur"   val array[4] of float,
    "intur"  val integer,
    "ecorr"  val float,
    "xspool" val float,
    "xmyi"   val float,
    "dxspl"  res float)
`

func TestParsePaperShaftSpec(t *testing.T) {
	f, err := Parse(paperShaftSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Procs) != 2 {
		t.Fatalf("got %d declarations, want 2", len(f.Procs))
	}
	set := f.Proc("setshaft")
	if set == nil || !set.Export {
		t.Fatal("setshaft not parsed as export")
	}
	if len(set.Params) != 5 {
		t.Fatalf("setshaft has %d params, want 5", len(set.Params))
	}
	ecom := set.Param("ecom")
	if ecom == nil || ecom.Mode != Val || !ecom.Type.Equal(ArrayOf(4, TFloat)) {
		t.Errorf("ecom = %+v", ecom)
	}
	ecorr := set.Param("ecorr")
	if ecorr == nil || ecorr.Mode != Res || ecorr.Type != TFloat {
		t.Errorf("ecorr = %+v", ecorr)
	}
	shaft := f.Proc("shaft")
	if shaft == nil || len(shaft.Params) != 8 {
		t.Fatalf("shaft = %+v", shaft)
	}
	if got := shaft.Param("dxspl"); got == nil || got.Mode != Res {
		t.Errorf("dxspl = %+v", got)
	}
	ins := shaft.InParams()
	outs := shaft.OutParams()
	if len(ins) != 7 || len(outs) != 1 {
		t.Errorf("in/out split = %d/%d, want 7/1", len(ins), len(outs))
	}
}

func TestParseRoundTrip(t *testing.T) {
	f := MustParse(paperShaftSpec)
	printed := f.String()
	f2, err := Parse(printed)
	if err != nil {
		t.Fatalf("re-parse of %q: %v", printed, err)
	}
	if f2.String() != printed {
		t.Errorf("round trip not stable:\n%s\nvs\n%s", printed, f2.String())
	}
}

func TestParseImport(t *testing.T) {
	f := MustParse(`import shaft prog("xspool" val float, "dxspl" res float)`)
	p := f.Proc("shaft")
	if p == nil || p.Export {
		t.Fatal("import not parsed")
	}
	if len(f.Imports()) != 1 || len(f.Exports()) != 0 {
		t.Error("Imports/Exports split wrong")
	}
}

func TestParseVarMode(t *testing.T) {
	f := MustParse(`export p prog("x" var double)`)
	p := f.Procs[0].Params[0]
	if p.Mode != Var || !p.In() || !p.Out() {
		t.Errorf("var param = %+v", p)
	}
}

func TestParseEmptyParams(t *testing.T) {
	f := MustParse(`export tick prog()`)
	if len(f.Procs[0].Params) != 0 {
		t.Errorf("params = %v", f.Procs[0].Params)
	}
}

func TestParseRecordAndState(t *testing.T) {
	src := `export step prog(
        "station" var record ("p" double, "t" double, "w" double),
        "ok" res boolean)
      state ("xspool" double, "hist" array[3] of double)`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p := f.Procs[0]
	if p.Params[0].Type.Kind() != Record {
		t.Fatalf("station type = %v", p.Params[0].Type)
	}
	if len(p.State) != 2 || p.State[1].Type.Kind() != Array {
		t.Fatalf("state = %v", p.State)
	}
	// State must survive a print/parse cycle.
	f2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", p.String(), err)
	}
	if len(f2.Procs[0].State) != 2 {
		t.Error("state lost in round trip")
	}
}

func TestParseComments(t *testing.T) {
	src := "# header comment\nexport p prog(\"x\" val float) # trailing\n# done\n"
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Procs) != 1 {
		t.Errorf("got %d procs", len(f.Procs))
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	f, err := Parse(`EXPORT P PROG("x" VAL ARRAY[2] OF FLOAT)`)
	if err != nil {
		t.Fatal(err)
	}
	if f.Procs[0].Name != "P" {
		t.Errorf("procedure name case not preserved: %q", f.Procs[0].Name)
	}
}

func TestParseAllSimpleTypes(t *testing.T) {
	src := `export p prog(
        "a" val integer, "b" val long, "c" val byte, "d" val boolean,
        "e" val float, "f" val double, "g" val string)`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []Kind{Integer, Long, Byte, Boolean, Float, Double, String}
	for i, k := range kinds {
		if f.Procs[0].Params[i].Type.Kind() != k {
			t.Errorf("param %d kind = %v, want %v", i, f.Procs[0].Params[i].Type.Kind(), k)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`exprt p prog("x" val float)`,                 // bad keyword
		`export p prog("x" val float`,                 // unterminated
		`export p prog("x" bogus float)`,              // bad mode
		`export p prog("x" val array[0] of byte)`,     // zero length
		`export p prog("x" val array[o] of byte)`,     // non-numeric length
		`export p prog("x" val quux)`,                 // unknown type
		`export p prog("x" val float; "y" val float)`, // bad separator
		`export p prog("x" val float, "x" val float)`, // duplicate param
		`export p prog("x val float)`,                 // unterminated string
		`export p prog("" val float)`,                 // empty name
		`export p prog("x" val record ())`,            // empty record
		`export 42 prog()`,                            // numeric name
		`export p ("x" val float)`,                    // missing prog
		`export p prog["x" val float]`,                // wrong bracket
		`export p prog("x" val array[4] float)`,       // missing of
		`@`,                                           // garbage
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseProcSingle(t *testing.T) {
	if _, err := ParseProc(paperShaftSpec); err == nil {
		t.Error("ParseProc accepted a two-declaration file")
	}
	p, err := ParseProc(`export one prog("x" val float)`)
	if err != nil || p.Name != "one" {
		t.Errorf("ParseProc = %v, %v", p, err)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse on bad input did not panic")
		}
	}()
	MustParse("bogus")
}

func TestSignatureStable(t *testing.T) {
	p := MustParseProc(`export shaft prog("xspool" val float, "dxspl" res float)`)
	want := `prog("xspool" val float, "dxspl" res float)`
	if got := p.Signature(); got != want {
		t.Errorf("Signature = %q, want %q", got, want)
	}
	if !strings.HasPrefix(p.String(), "export shaft prog(") {
		t.Errorf("String = %q", p.String())
	}
}

// TestParseAllocations pins what parsing the shaft import allocates:
// the parser, its lexer, the file, the declaration, the growth of its
// parameter list and the two array types. A token must cost nothing:
// one allocation per token would make it 56.
func TestParseAllocations(t *testing.T) {
	const src = `import shaft prog("ecom" val array[4] of double, "incom" val integer,
		"etur" val array[4] of double, "intur" val integer, "ecorr" val double,
		"xspool" val double, "xmyi" val double, "dxspl" res double)`
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseProc(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Errorf("ParseProc of the shaft import: %v allocations, want at most 10", allocs)
	}
}

// TestRenderingCached: a declaration renders once. String and
// Signature allocate nothing after the first call, and the signature is
// the parameter list within the declaration's text.
func TestRenderingCached(t *testing.T) {
	p := MustParseProc(`export next prog("n" res integer, "xs" val array[3] of record ("a" float, "b" string)) state("count" integer)`)
	text := p.String()
	const want = `export next prog("n" res integer, "xs" val array[3] of record ("a" float, "b" string)) state("count" integer)`
	if text != want {
		t.Fatalf("String = %q, want %q", text, want)
	}
	if sig := p.Signature(); !strings.Contains(text, " "+sig+" state(") {
		t.Errorf("Signature %q is not the parameter list of %q", sig, text)
	}
	if allocs := testing.AllocsPerRun(100, func() { text, _ = p.String(), p.Signature() }); allocs != 0 {
		t.Errorf("cached String and Signature: %v allocations, want 0", allocs)
	}
}
