package uts

import (
	"fmt"
	"strings"
	"sync"
)

// Mode is the parameter passing mode of a procedure parameter.
type Mode int

const (
	// Val parameters are passed from caller to procedure only.
	Val Mode = iota
	// Res parameters are passed from procedure back to caller only.
	Res
	// Var parameters are passed in both directions (value/result).
	Var
)

// String returns the specification-language spelling of the mode.
func (m Mode) String() string {
	switch m {
	case Val:
		return "val"
	case Res:
		return "res"
	case Var:
		return "var"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Param is one parameter of a procedure specification.
type Param struct {
	Name string
	Mode Mode
	Type *Type
}

// Dir tells whether a parameter carries data in the call (caller to
// procedure) and/or the reply (procedure to caller) direction.
func (p Param) In() bool  { return p.Mode == Val || p.Mode == Var }
func (p Param) Out() bool { return p.Mode == Res || p.Mode == Var }

// ProcSpec is the specification of one procedure: the paper's
//
//	export shaft prog("ecom" val array[4] of float, ... , "dxspl" res float)
//
// An identical structure describes imports. State lists the procedure's
// state variables for the migration-with-state extension (section 4.2
// of the paper describes this as a planned UTS extension); it is empty
// for stateless procedures.
type ProcSpec struct {
	Name   string
	Export bool // true for export declarations, false for import
	Params []Param
	State  []Field

	// derived guards the cached forms below. A specification is
	// immutable once handed to the runtime (Clone to modify), and its
	// rendering and parameter views sit on the per-call marshal and
	// per-lookup paths, so they are computed once instead of per use.
	derived sync.Once
	str     string // the whole declaration; see String
	sig     string // the parameter list, a slice of str; see Signature
	ins     []Param
	outs    []Param
}

// derive fills the cached derived forms. It renders the declaration
// once, into one string, and takes the signature as the slice of it
// that the parameter list occupies. It must not call Signature or
// String: they wait on the sync.Once this runs under.
func (s *ProcSpec) derive() {
	s.derived.Do(func() {
		var b strings.Builder
		// Room for a typical declaration, so its text is one allocation.
		b.Grow(32 + 40*len(s.Params) + 24*len(s.State))
		if s.Export {
			b.WriteString("export ")
		} else {
			b.WriteString("import ")
		}
		b.WriteString(s.Name)
		b.WriteByte(' ')
		start := b.Len()
		b.WriteString("prog(")
		nIn, nOut := 0, 0
		for i, p := range s.Params {
			if i > 0 {
				b.WriteString(", ")
			}
			writeName(&b, p.Name)
			b.WriteByte(' ')
			b.WriteString(p.Mode.String())
			b.WriteByte(' ')
			p.Type.write(&b)
			if p.In() {
				nIn++
			}
			if p.Out() {
				nOut++
			}
		}
		b.WriteByte(')')
		end := b.Len()
		if len(s.State) > 0 {
			b.WriteString(" state(")
			for i, f := range s.State {
				if i > 0 {
					b.WriteString(", ")
				}
				writeName(&b, f.Name)
				b.WriteByte(' ')
				f.Type.write(&b)
			}
			b.WriteByte(')')
		}
		s.str = b.String()
		s.sig = s.str[start:end]
		// Exact-size views: a caller appending to one is forced to copy.
		s.ins = make([]Param, 0, nIn)
		s.outs = make([]Param, 0, nOut)
		for _, p := range s.Params {
			if p.In() {
				s.ins = append(s.ins, p)
			}
			if p.Out() {
				s.outs = append(s.outs, p)
			}
		}
	})
}

// writeName renders a parameter or field name in specification
// syntax. Names are quoted verbatim, not escaped: the lexer reads raw
// bytes between quotes with no escape processing, so %q-style escaping
// would print a form that re-parses to a different name. Any name the
// parser can produce is free of '"' and newline, making the verbatim
// form unambiguous.
func writeName(b *strings.Builder, name string) {
	b.WriteByte('"')
	b.WriteString(name)
	b.WriteByte('"')
}

// Signature renders the parameter list canonically, for runtime type
// checking: two specs are call-compatible only if the importing
// signature is a subset of the exporting one (see CheckImport).
func (s *ProcSpec) Signature() string {
	s.derive()
	return s.sig
}

// String renders the complete declaration in specification syntax.
// It is the canonical form: it re-parses to an equal spec.
func (s *ProcSpec) String() string {
	s.derive()
	return s.str
}

// Param returns the parameter with the given name, or nil.
func (s *ProcSpec) Param(name string) *Param {
	for i := range s.Params {
		if s.Params[i].Name == name {
			return &s.Params[i]
		}
	}
	return nil
}

// InParams returns the parameters carried on the call message, in
// declaration order. The returned slice is a shared cached view:
// callers must not modify it.
func (s *ProcSpec) InParams() []Param {
	s.derive()
	return s.ins
}

// OutParams returns the parameters carried on the reply message, in
// declaration order. The returned slice is a shared cached view:
// callers must not modify it.
func (s *ProcSpec) OutParams() []Param {
	s.derive()
	return s.outs
}

// Clone returns a deep copy of the spec with the given export flag.
func (s *ProcSpec) Clone(export bool) *ProcSpec {
	c := &ProcSpec{
		Name:   s.Name,
		Export: export,
		Params: append([]Param(nil), s.Params...),
		State:  append([]Field(nil), s.State...),
	}
	return c
}

// CheckImport verifies that an import specification is compatible with
// an export specification. UTS allows the import to be, in essence, a
// subset of the export: every imported parameter must appear in the
// export with the same name, mode, and type, and imported parameters
// must appear in the same relative order as in the export. Omitted
// parameters take their zero values on the call and are discarded from
// the reply.
func CheckImport(imp, exp *ProcSpec) error {
	if imp == nil || exp == nil {
		return fmt.Errorf("uts: nil specification")
	}
	j := 0
	for _, p := range imp.Params {
		found := false
		for ; j < len(exp.Params); j++ {
			e := exp.Params[j]
			if e.Name == p.Name {
				if e.Mode != p.Mode {
					return fmt.Errorf("uts: parameter %q: import mode %s does not match export mode %s", p.Name, p.Mode, e.Mode)
				}
				if !e.Type.Equal(p.Type) {
					return fmt.Errorf("uts: parameter %q: import type %s does not match export type %s", p.Name, p.Type, e.Type)
				}
				j++
				found = true
				break
			}
		}
		if !found {
			if exp.Param(p.Name) != nil {
				return fmt.Errorf("uts: parameter %q appears out of order in import", p.Name)
			}
			return fmt.Errorf("uts: parameter %q not present in export %s", p.Name, exp.Name)
		}
	}
	return nil
}

// SpecFile is the parsed contents of one specification file: a series
// of import and export declarations.
type SpecFile struct {
	Procs []*ProcSpec
}

// Proc returns the declaration with the given name, or nil. Lookup is
// exact; case-insensitive matching for Fortran procedures is a naming
// policy applied by the Schooner Manager, not by UTS (see the
// schooner package).
func (f *SpecFile) Proc(name string) *ProcSpec {
	for _, p := range f.Procs {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Exports returns the export declarations in file order.
func (f *SpecFile) Exports() []*ProcSpec {
	var out []*ProcSpec
	for _, p := range f.Procs {
		if p.Export {
			out = append(out, p)
		}
	}
	return out
}

// Imports returns the import declarations in file order.
func (f *SpecFile) Imports() []*ProcSpec {
	var out []*ProcSpec
	for _, p := range f.Procs {
		if !p.Export {
			out = append(out, p)
		}
	}
	return out
}

// String renders the file in specification syntax, one declaration per
// line; the output re-parses to an equal file.
func (f *SpecFile) String() string {
	var b strings.Builder
	for _, p := range f.Procs {
		b.WriteString(p.String())
		b.WriteString("\n")
	}
	return b.String()
}
