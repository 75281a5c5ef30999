package schooner

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"npss/internal/uts"
	"npss/internal/wire"
)

// The Manager remembers, on each export record, the import texts that
// passed the type check (procRef.checkImport). These tests pin what it
// remembers and that a remembered text never admits anything else.

const (
	addImport      = `import add prog("a" val double, "b" val double, "sum" res double)`
	addImportWrong = `import add prog("a" val float, "b" val double, "sum" res double)`
)

// memoRig starts the adder on sgi-lerc in a fresh line.
func memoRig(t *testing.T) (*deployment, *Line) {
	t.Helper()
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	ln, err := d.client("avs-sparc").ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.IQuit() })
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	return d, ln
}

// ref returns the export record a lookup of name in ln resolves to.
func (d *deployment) ref(t *testing.T, ln *Line, name string) *procRef {
	t.Helper()
	d.mgr.mu.Lock()
	l := d.mgr.lines[ln.id]
	d.mgr.mu.Unlock()
	ref := d.mgr.findRef(l, name)
	if ref == nil {
		t.Fatalf("no procedure %q in line %d", name, ln.id)
	}
	return ref
}

// remembered lists the import texts a record holds.
func (r *procRef) remembered() []string {
	r.checkedMu.RLock()
	defer r.checkedMu.RUnlock()
	var out []string
	for text := range r.checked {
		out = append(out, text)
	}
	return out
}

// lookup asks the Manager for name with the import text, as a line's
// connection would.
func (d *deployment) lookup(ln *Line, name, text string) *wire.Message {
	return d.mgr.handleLookup(ln.id, &wire.Message{Kind: wire.KLookup, Line: ln.id, Name: name, Data: []byte(text)})
}

// TestLookupMemoRepeatParsesNothing: the canonical text a line sends is
// remembered once, and looking it up again parses nothing: it
// allocates nothing, where a parse of it allocates.
func TestLookupMemoRepeatParsesNothing(t *testing.T) {
	d, ln := memoRig(t)
	text := uts.MustParseProc(addImport).String()
	if text != addImport {
		t.Fatalf("test import is not canonical: %q renders %q", addImport, text)
	}
	ln.Import(uts.MustParseProc(addImport))
	if _, err := ln.Call("add", uts.DoubleVal(1), uts.DoubleVal(2)); err != nil {
		t.Fatal(err)
	}
	ref := d.ref(t, ln, "add")
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp := d.lookup(ln, "add", text); resp.Kind != wire.KOK {
				t.Errorf("repeat lookup: %v", resp.Err)
			}
		}()
	}
	wg.Wait()
	if got := ref.remembered(); len(got) != 1 || got[0] != text {
		t.Fatalf("remembered %q, want just %q", got, text)
	}
	data := []byte(text)
	if parse := testing.AllocsPerRun(100, func() { uts.ParseProc(text) }); parse == 0 {
		t.Fatal("a parse allocates nothing, so allocations cannot tell a parse")
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := ref.checkImport("add", data); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a remembered text costs %v allocations, want 0: it was parsed", allocs)
	}
}

// TestLookupMemoRefusesBadImport: an import that fails the check is
// refused on every lookup with the error text of a fresh check, even
// after a good import of the same procedure was remembered, and is
// never remembered itself. A memo keyed by procedure name would admit
// it the second time.
func TestLookupMemoRefusesBadImport(t *testing.T) {
	d, ln := memoRig(t)
	if resp := d.lookup(ln, "add", addImport); resp.Kind != wire.KOK {
		t.Fatalf("good import: %v", resp.Err)
	}
	ref := d.ref(t, ln, "add")
	want := fmt.Sprintf("schooner: type check failed for %q: %v", "add",
		uts.CheckImport(uts.MustParseProc(addImportWrong), ref.spec))
	for i := range 3 {
		resp := d.lookup(ln, "add", addImportWrong)
		if resp.Kind != wire.KError || resp.Err != want {
			t.Fatalf("lookup %d of a wrong-typed import: kind %v, error %q; want %q", i, resp.Kind, resp.Err, want)
		}
	}
	const garbled = `import add prog("a" val`
	_, perr := uts.ParseProc(garbled)
	wantBad := fmt.Sprintf("schooner: bad import specification for %q: %v", "add", perr)
	for i := range 2 {
		if resp := d.lookup(ln, "add", garbled); resp.Kind != wire.KError || resp.Err != wantBad {
			t.Fatalf("lookup %d of a garbled import: error %q, want %q", i, resp.Err, wantBad)
		}
	}
	if got := ref.remembered(); len(got) != 1 || got[0] != addImport {
		t.Errorf("remembered %q, want just the good import", got)
	}
}

// TestLookupMemoSkipsNonCanonical: a text that passes but is not its
// own canonical rendering, names another procedure or declares state is
// accepted and not remembered, so the memo stays bounded by the
// export's parameter subsets.
func TestLookupMemoSkipsNonCanonical(t *testing.T) {
	d, ln := memoRig(t)
	for _, text := range []string{
		"import add prog(\"a\" val double,\n\t\"b\" val double, \"sum\" res double)",
		`IMPORT add PROG("a" val double, "b" val double, "sum" res double)`,
		`import plus prog("a" val double, "b" val double, "sum" res double)`,
		`import add prog("a" val double) state("s" double)`,
	} {
		for i := range 2 {
			if resp := d.lookup(ln, "add", text); resp.Kind != wire.KOK {
				t.Fatalf("lookup %d of %q: %v", i, text, resp.Err)
			}
		}
	}
	if got := d.ref(t, ln, "add").remembered(); len(got) != 0 {
		t.Errorf("remembered %q, want nothing", got)
	}
	// The subset imports are canonical and each is remembered.
	for _, text := range []string{
		`import add prog("b" val double)`,
		`import add prog("a" val double, "sum" res double)`,
	} {
		if resp := d.lookup(ln, "add", text); resp.Kind != wire.KOK {
			t.Fatalf("lookup of %q: %v", text, resp.Err)
		}
	}
	if got := d.ref(t, ln, "add").remembered(); len(got) != 2 {
		t.Errorf("remembered %q, want the two subset imports", got)
	}
}

// TestLookupMemoStartsEmptyAfterMove: a move builds a fresh export
// record, and its memo starts empty.
func TestLookupMemoStartsEmptyAfterMove(t *testing.T) {
	d, ln := memoRig(t)
	if resp := d.lookup(ln, "add", addImport); resp.Kind != wire.KOK {
		t.Fatalf("lookup: %v", resp.Err)
	}
	old := d.ref(t, ln, "add")
	if got := old.remembered(); len(got) != 1 {
		t.Fatalf("before the move: remembered %q, want one text", got)
	}
	if err := ln.Move("add", "rs6000", false); err != nil {
		t.Fatal(err)
	}
	fresh := d.ref(t, ln, "add")
	if fresh == old {
		t.Fatal("the move kept the old export record")
	}
	if got := fresh.remembered(); len(got) != 0 {
		t.Errorf("after the move: remembered %q, want nothing", got)
	}
	if resp := d.lookup(ln, "add", addImportWrong); resp.Kind != wire.KError {
		t.Errorf("after the move a wrong-typed import was accepted")
	}
}

// TestPlanKeepsCanonicalOnly: a procedure process keeps a call plan
// under the canonical signature text alone (the one a Line sends), as
// the Manager's memo keeps canonical import texts, so callers that vary
// only the spacing of one signature cannot grow it. Every variant is
// still parsed, checked and accepted.
func TestPlanKeepsCanonicalOnly(t *testing.T) {
	bp := &BoundProc{Spec: uts.MustParseProc(`export add prog("a" val double, "b" val double, "sum" res double)`)}
	canonical := uts.MustParseProc(addImport).Signature()
	p := &process{plans: make(map[planKey]*callPlan)}
	const variants = 1000
	for i := range variants {
		// Variant 0 is the canonical text; the others pad a comma.
		sig := strings.Replace(canonical, ", ", ","+strings.Repeat(" ", i+1), 1)
		if i == 0 {
			sig = canonical
		}
		pl, err := p.plan(bp, "add", sig)
		if err != nil {
			t.Fatalf("variant %d %q: %v", i, sig, err)
		}
		if got := pl.imp.Signature(); got != canonical {
			t.Fatalf("variant %d planned %q, want %q", i, got, canonical)
		}
	}
	if len(p.plans) != 1 || p.plans[planKey{"add", canonical}] == nil {
		t.Errorf("%d spacing variants left %d plans, want just the canonical one", variants, len(p.plans))
	}
}
