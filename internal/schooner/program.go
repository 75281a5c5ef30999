package schooner

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"npss/internal/uts"
)

// Language identifies the implementation language of a procedure file,
// which determines the compiler's procedure-naming convention. Fortran
// compilers fold case (lower everywhere except the Cray, which folds
// upper), so Fortran procedure names are matched case-insensitively
// and registered under both case forms as synonyms; C names are exact.
type Language int

const (
	// LangFortran procedures get case-folded names.
	LangFortran Language = iota
	// LangC procedures keep their exact names.
	LangC
)

// String names the language.
func (l Language) String() string {
	switch l {
	case LangFortran:
		return "fortran"
	case LangC:
		return "c"
	}
	return fmt.Sprintf("Language(%d)", int(l))
}

// Handler is the implementation of one exported procedure: it receives
// the in-parameters (val and var, in declaration order) and returns
// the out-parameters (res and var, in declaration order).
//
// A procedure's arguments are its own until it returns: it may read
// them, change them in place and return any of them as a result. Then
// in and every array under it go back to the procedure process, which
// decodes a later call's arguments into the same storage. A procedure
// that keeps an argument past its return keeps a copy (Value.Clone),
// and one that stores a value of its own into in gives that value up.
type Handler func(in []uts.Value) (out []uts.Value, err error)

// BoundProc is one exported procedure inside a running instance: its
// export specification bound to an implementation. GetState and
// SetState are optional and implement the state-transfer extension for
// migrating non-stateless procedures; when present they must produce
// and accept values matching the spec's state clause.
type BoundProc struct {
	Spec     *uts.ProcSpec
	Fn       Handler
	GetState func() ([]uts.Value, error)
	SetState func([]uts.Value) error
}

// Instance is one process-worth of procedures: what the Server creates
// when the Manager asks it to instantiate a procedure file. Each
// instantiation gets fresh state, which is what makes stateless
// migration (shut down here, start anew there) correct.
type Instance struct {
	procs []*BoundProc
}

// NewInstance builds an instance from bound procedures, validating
// that every procedure has an export spec, an implementation, and a
// unique name, and that state accessors come in pairs.
func NewInstance(procs ...*BoundProc) (*Instance, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("schooner: instance needs at least one procedure")
	}
	seen := make(map[string]bool)
	for _, p := range procs {
		if p.Spec == nil || !p.Spec.Export {
			return nil, fmt.Errorf("schooner: procedure needs an export specification")
		}
		if p.Fn == nil {
			return nil, fmt.Errorf("schooner: procedure %q has no implementation", p.Spec.Name)
		}
		if (p.GetState == nil) != (p.SetState == nil) {
			return nil, fmt.Errorf("schooner: procedure %q must define both or neither state accessors", p.Spec.Name)
		}
		if len(p.Spec.State) > 0 && p.GetState == nil {
			return nil, fmt.Errorf("schooner: procedure %q declares state but has no accessors", p.Spec.Name)
		}
		if seen[p.Spec.Name] {
			return nil, fmt.Errorf("schooner: duplicate procedure %q in instance", p.Spec.Name)
		}
		seen[p.Spec.Name] = true
	}
	return &Instance{procs: procs}, nil
}

// Procs returns the instance's procedures.
func (i *Instance) Procs() []*BoundProc { return i.procs }

// Find locates a procedure by name. Matching is exact first; Fortran
// files additionally match case-insensitively, reproducing the
// compiler case-folding synonym rule.
func (i *Instance) Find(name string, lang Language) *BoundProc {
	for _, p := range i.procs {
		if p.Spec.Name == name {
			return p
		}
	}
	if lang == LangFortran {
		for _, p := range i.procs {
			if strings.EqualFold(p.Spec.Name, name) {
				return p
			}
		}
	}
	return nil
}

// SpecFile renders the instance's co-located export specification file.
func (i *Instance) SpecFile() *uts.SpecFile {
	f := &uts.SpecFile{}
	for _, p := range i.procs {
		f.Procs = append(f.Procs, p.Spec)
	}
	return f
}

// Program is a procedure file the Server can instantiate: the paper's
// remote executable (for example npss-shaft) with its co-located
// export specification. Build is called once per instantiation so
// every process gets fresh state.
type Program struct {
	// Path is the executable pathname the user types into the module's
	// path widget.
	Path string
	// Language selects the naming convention.
	Language Language
	// Build constructs a fresh instance.
	Build func() (*Instance, error)
}

// Registry maps executable paths to programs: the simulation's stand-in
// for the remote machines' filesystems. One registry is shared by all
// Servers in a deployment, as NFS did for the paper's testbed.
type Registry struct {
	mu       sync.Mutex
	programs map[string]*Program
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{programs: make(map[string]*Program)}
}

// Register adds a program; the path must be unused.
func (r *Registry) Register(p *Program) error {
	if p == nil || p.Path == "" || p.Build == nil {
		return fmt.Errorf("schooner: program needs a path and a build function")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.programs[p.Path]; dup {
		return fmt.Errorf("schooner: program %q already registered", p.Path)
	}
	r.programs[p.Path] = p
	return nil
}

// MustRegister is Register for static deployment tables.
func (r *Registry) MustRegister(p *Program) {
	if err := r.Register(p); err != nil {
		panic(err)
	}
}

// Lookup finds a program by path.
func (r *Registry) Lookup(path string) (*Program, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.programs[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("schooner: no such executable %q", path)
}

// Paths lists registered paths, sorted.
func (r *Registry) Paths() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.programs))
	for p := range r.programs {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
