package uts

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to the specification parser. Inputs
// that parse must survive a print/re-parse round trip: String() is the
// canonical rendering, so re-parsing it must reproduce an equal spec.
// The rendering is cached, so it must also equal a fresh one, made
// here with fmt the long way.
func FuzzParse(f *testing.F) {
	f.Add(`export add prog("a" val double, "b" val double, "sum" res double)`)
	f.Add(`import scale prog("xs" var array[3] of double, "k" val double)`)
	f.Add(`export next prog("n" res integer) state("count" integer)`)
	f.Add(`export r prog("p" val record("x" float, "y" float))`)
	f.Add("# comment only\n")
	f.Add(`export a prog("x" val array[2] of array[3] of integer)`)
	// Regression: unbounded type recursion used to overflow the stack.
	f.Add(`export a prog("x" val ` + strings.Repeat("array[1] of ", 200) + `integer)`)
	// Regression: astronomically large dimensions used to be accepted,
	// letting decoders size allocations off hostile spec text.
	f.Add(`export a prog("x" val array[999999999999] of double)`)
	f.Add(`export a prog("x" val array[1048577] of byte)`)

	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		if err != nil {
			return
		}
		for _, p := range file.Procs {
			text := p.String()
			if fresh := renderSpec(p); text != fresh {
				t.Fatalf("cached rendering differs from a fresh one:\ncached: %s\n fresh: %s", text, fresh)
			}
			if !strings.HasSuffix(strings.TrimSuffix(text, stateText(p)), p.Signature()) {
				t.Fatalf("signature %q is not the parameter list of %s", p.Signature(), text)
			}
			re, err := ParseProc(text)
			if err != nil {
				t.Fatalf("canonical form does not re-parse: %v\nspec: %s", err, text)
			}
			if !specEqual(re, p) {
				t.Fatalf("round trip changed the spec:\n in: %s\nout: %s", text, re.String())
			}
			if re.String() != text {
				t.Fatalf("round trip changed the rendering:\n in: %s\nout: %s", text, re.String())
			}
		}
	})
}

// renderSpec renders a declaration without the cache. Names are
// quoted verbatim, as the lexer reads them.
func renderSpec(s *ProcSpec) string {
	kw := "import"
	if s.Export {
		kw = "export"
	}
	params := make([]string, len(s.Params))
	for i, p := range s.Params {
		params[i] = fmt.Sprintf(`"%s" %s %s`, p.Name, p.Mode, renderType(p.Type))
	}
	return fmt.Sprintf("%s %s prog(%s)%s", kw, s.Name, strings.Join(params, ", "), stateText(s))
}

// stateText renders a declaration's state clause without the cache,
// or "" when it has none.
func stateText(s *ProcSpec) string {
	if len(s.State) == 0 {
		return ""
	}
	return " state(" + renderFields(s.State) + ")"
}

func renderFields(fs []Field) string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = fmt.Sprintf(`"%s" %s`, f.Name, renderType(f.Type))
	}
	return strings.Join(out, ", ")
}

func renderType(t *Type) string {
	switch t.Kind() {
	case Array:
		return fmt.Sprintf("array[%d] of %s", t.Len(), renderType(t.Elem()))
	case Record:
		return "record (" + renderFields(t.Fields()) + ")"
	}
	return t.Kind().String()
}

// specEqual reports whether two declarations are structurally equal.
func specEqual(a, b *ProcSpec) bool {
	if a.Name != b.Name || a.Export != b.Export ||
		len(a.Params) != len(b.Params) || len(a.State) != len(b.State) {
		return false
	}
	for i, p := range a.Params {
		q := b.Params[i]
		if p.Name != q.Name || p.Mode != q.Mode || !p.Type.Equal(q.Type) {
			return false
		}
	}
	for i, f := range a.State {
		if f.Name != b.State[i].Name || !f.Type.Equal(b.State[i].Type) {
			return false
		}
	}
	return true
}
