package dst

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// simulatedPackages are the packages a simulated cluster runs in,
// relative to this one. Everything they do must be timed by the clock
// and randomised by the seed the cluster was built with.
var simulatedPackages = []string{
	"schooner", "netsim", "dst", "dataflow", "engine", "core", "exper", "scenario", "tseries", "flight",
}

// forbidden names, by import path, the package-level functions and
// variables a simulated path must not reach: the wall clock, the
// unseeded global random source, and the process-wide observability
// swaps. Where allowed is set, names are the only ones of the package
// a simulated path may reference.
var forbidden = map[string]struct {
	names   []string
	allowed bool
}{
	"time": {names: []string{"Now", "Sleep", "After", "AfterFunc", "Since", "Until", "NewTimer", "NewTicker", "Tick"}},
	// Only constructors of a seeded source, and types.
	"math/rand":             {allowed: true, names: []string{"New", "NewSource", "NewZipf", "Rand", "Source", "Source64", "Zipf"}},
	"math/rand/v2":          {allowed: true, names: []string{"New", "NewPCG", "NewChaCha8", "NewZipf", "Rand", "Source", "PCG", "ChaCha8", "Zipf"}},
	"npss/internal/trace":   {names: []string{"Swap", "SetRecorder"}},
	"npss/internal/tseries": {names: []string{"SetActive"}},
	"npss/internal/flight":  {names: []string{"Swap"}},
}

// exemption is one allowlist entry. It names forbidden references —
// package-qualified names, or "go" for a go statement — and where they
// may occur: a package, a file and the enclosing function, written
// Recv.Method, Func, or "var name" for a package-level declaration.
// An entry with no package allows its names anywhere.
type exemption struct {
	pkg, file, fn, names string
	reason               string
}

// exemptions is every place a simulated path still reaches the wall
// clock, an unseeded source or a process global. The list may only
// shrink: a name in an entry that matches nothing fails the test.
var exemptions = []exemption{
	// Some of the paper's experiments still run on wall time, on real
	// goroutines. Moving them onto the virtual clock empties this block.
	{"exper", "ablation.go", "RPCvsMsgPass", "go time.Now time.Since", "the message-passing worker runs on a real goroutine; both sides are wall-timed"},
	{"exper", "ablation.go", "NameCache", "time.Now time.Since", "the name-cache ablation is wall-timed"},
	{"exper", "ablation.go", "UTSvsNative", "time.Now time.Since", "the codec ablation is wall-timed"},
	{"exper", "fig.go", "Fig1", "go", "the zoomed module's parallel algorithm sums on real goroutines"},
	{"exper", "scenarios.go", "Lines", "go time.Now time.Since", "concurrent lines run on real goroutines; the migration scenario reports its wall time"},

	// Wall time by design.
	{"dst", "scope.go", "OpenScope", "time.Now", "Result.RealElapsed is what simulating the run cost"},
	{"dst", "scope.go", "Scope.Close", "time.Since", "Result.RealElapsed is what simulating the run cost"},
	{"dst", "watchdog.go", "Watchdog", "time.AfterFunc", "the watchdog must fire when the virtual clock is stuck"},
	{"flight", "flight.go", "var clock", "time.Now", "flight events carry wall-clock stamps for operators"},
	{"schooner", "transport.go", "TCPTransport.Jitter", "rand.Float64", "a transport over real sockets spreads retries with unseeded jitter"},

	// The observability planes are still process globals. A Scope
	// swaps a run's own into them and restores them; span recording
	// swaps the recorder where a run's spans start and end.
	{"dst", "scope.go", "OpenScope", "trace.Swap", "the metric set is process-global"},
	{"dst", "scope.go", "Scope.Start", "trace.Swap flight.Swap tseries.SetActive", "the observability planes are process-global"},
	{"dst", "scope.go", "Scope.stopSampler", "tseries.SetActive", "the series sampler is process-global"},
	{"dst", "scope.go", "Scope.Close", "trace.Swap flight.Swap", "the observability planes are process-global"},
	{"dst", "dst.go", "NewCluster", "trace.SetRecorder", "the span recorder is process-global"},
	{"dst", "dst.go", "Cluster.teardown", "trace.SetRecorder", "the span recorder is process-global"},
	{"exper", "table.go", "recordSpansOn", "trace.SetRecorder", "the span recorder is process-global"},
}

// violation is one forbidden reference found in the source.
type violation struct {
	pkg, file, fn, name string
	pos                 token.Position
}

// TestNoWallClockOnSimulatedPath parses the non-test files of every
// package a simulated cluster runs in and rejects each go statement
// and each reference to a forbidden name that the exemptions do not
// cover, so nothing can leave the cluster's clock and seed unnoticed.
func TestNoWallClockOnSimulatedPath(t *testing.T) {
	found, err := scanSimulated()
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[[2]int]bool) // exemption index, name index
	for _, v := range found {
		key, ok := exempted(v)
		if !ok {
			t.Errorf("%s: %s in %s (package %s) is not on the simulated clock or seed", v.pos, v.name, v.fn, v.pkg)
			continue
		}
		used[key] = true
	}
	for i, e := range exemptions {
		for j, name := range strings.Fields(e.names) {
			if !used[[2]int{i, j}] {
				t.Errorf("exemption of %s in %s %s %s matches nothing: delete it", name, e.pkg, e.file, e.fn)
			}
		}
	}
}

// exempted finds the exemption covering v: its index and the index of
// the name within it.
func exempted(v violation) ([2]int, bool) {
	for i, e := range exemptions {
		if e.pkg != "" && (e.pkg != v.pkg || e.file != v.file || e.fn != v.fn) {
			continue
		}
		for j, name := range strings.Fields(e.names) {
			if name == v.name {
				return [2]int{i, j}, true
			}
		}
	}
	return [2]int{}, false
}

// scanSimulated parses every package in simulatedPackages.
func scanSimulated() ([]violation, error) {
	var out []violation
	fset := token.NewFileSet()
	for _, pkg := range simulatedPackages {
		dir := filepath.Join("..", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			vs, err := scanFile(fset, f)
			if err != nil {
				return nil, err
			}
			for _, v := range vs {
				v.pkg, v.file = pkg, name
				out = append(out, v)
			}
		}
	}
	return out, nil
}

// scanFile finds the forbidden references in one file, resolving each
// import under whatever name the file gives it.
func scanFile(fset *token.FileSet, f *ast.File) ([]violation, error) {
	local := make(map[string]string) // file-local package name -> import path
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			return nil, err
		}
		if _, watched := forbidden[path]; !watched {
			continue
		}
		name := importName(path)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == "." {
			return nil, fmt.Errorf("%s: dot import of %s hides what it references", fset.Position(imp.Pos()), path)
		}
		local[name] = path
	}
	var out []violation
	for _, decl := range f.Decls {
		fn := declLabel(decl)
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				out = append(out, violation{fn: fn, name: "go", pos: fset.Position(n.Pos())})
			case *ast.SelectorExpr:
				x, ok := n.X.(*ast.Ident)
				// An identifier the parser resolved is a local that
				// shadows the import, not the package.
				if !ok || x.Obj != nil {
					return true
				}
				path, ok := local[x.Name]
				if ok && isForbidden(path, n.Sel.Name) {
					out = append(out, violation{fn: fn, name: importName(path) + "." + n.Sel.Name, pos: fset.Position(n.Pos())})
				}
			}
			return true
		})
	}
	return out, nil
}

// isForbidden reports whether path.name is off limits.
func isForbidden(path, name string) bool {
	rule := forbidden[path]
	for _, n := range rule.names {
		if n == name {
			return !rule.allowed
		}
	}
	return rule.allowed
}

// importName is the name a package is imported under by default: the
// last element of its path, skipping a major-version suffix.
func importName(path string) string {
	parts := strings.Split(path, "/")
	last := parts[len(parts)-1]
	if len(parts) > 1 && len(last) > 1 && last[0] == 'v' && strings.Trim(last[1:], "0123456789") == "" {
		last = parts[len(parts)-2]
	}
	return last
}

// declLabel names a top-level declaration the way exemptions do.
func declLabel(decl ast.Decl) string {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil || len(d.Recv.List) == 0 {
			return d.Name.Name
		}
		typ := d.Recv.List[0].Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		if id, ok := typ.(*ast.Ident); ok {
			return id.Name + "." + d.Name.Name
		}
		return d.Name.Name
	case *ast.GenDecl:
		var names []string
		for _, s := range d.Specs {
			if vs, ok := s.(*ast.ValueSpec); ok {
				for _, n := range vs.Names {
					names = append(names, n.Name)
				}
			}
		}
		return d.Tok.String() + " " + strings.Join(names, ", ")
	}
	return ""
}
