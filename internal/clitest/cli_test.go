// Package clitest smoke-tests the command-line binaries end to end by
// building and executing them, so the flags and output formats stay
// working (the daemons have their own test in internal/daemon).
package clitest

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// build compiles a command into a temp dir once per test run.
func build(t *testing.T, pkg string) string {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found")
		}
		dir = parent
	}
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestTessCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := build(t, "npss/cmd/tess")

	// Default run report.
	out := run(t, bin, "-transient", "0.1")
	for _, want := range []string{"steady state (newton-raphson", "thrust=", "final (t=0.10s, Modified Euler)"} {
		if !strings.Contains(out, want) {
			t.Errorf("tess output missing %q:\n%s", want, out)
		}
	}

	// CSV trajectory.
	out = run(t, bin, "-transient", "0.05", "-csv")
	if !strings.HasPrefix(out, "t,thrust_N,fuel_kgps") {
		t.Errorf("csv header missing:\n%.200s", out)
	}
	if lines := strings.Count(out, "\n"); lines < 50 {
		t.Errorf("csv rows = %d", lines)
	}

	// Cruise condition with Gear.
	out = run(t, bin, "-alt", "10000", "-mach", "0.9", "-fuel", "0.74", "-method", "gear", "-transient", "0.05")
	if !strings.Contains(out, "Gear") {
		t.Errorf("gear run:\n%s", out)
	}

	// Map library generation.
	dir := t.TempDir()
	run(t, bin, "-write-maps", dir)
	for _, f := range []string{"low-compressor.map", "high-turbine.map"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("map file %s not written", f)
		}
	}

	// Bad flags fail loudly.
	cmd := exec.Command(bin, "-method", "leapfrog")
	if err := cmd.Run(); err == nil {
		t.Error("unknown method exited zero")
	}
	// A schedule entry with trailing junk is refused by the schedule
	// parser the executive's widgets use, not truncated to its number.
	junk, err := exec.Command(bin, "-fuel-schedule", "0:1.48x,0.005:1.2junk", "-transient", "0.01").CombinedOutput()
	if err == nil || !strings.Contains(string(junk), `bad schedule value "1.48x"`) {
		t.Errorf("junk schedule entry: err = %v, output:\n%s", err, junk)
	}
}

func TestNpssExpCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := build(t, "npss/cmd/npss-exp")
	out := run(t, bin, "-exp", "fig2")
	if !strings.Contains(out, "low speed shaft") || !strings.Contains(out, "moment inertia") {
		t.Errorf("fig2 output:\n%s", out)
	}
	out = run(t, bin, "-exp", "incremental")
	if strings.Contains(out, "FAIL") || !strings.Contains(out, "PASS") {
		t.Errorf("incremental output:\n%s", out)
	}
	out = run(t, bin, "-exp", "zooming")
	if !strings.Contains(out, "stage-stacked") {
		t.Errorf("zooming output:\n%s", out)
	}
	cmd := exec.Command(bin, "-exp", "bogus")
	if err := cmd.Run(); err == nil {
		t.Error("unknown experiment exited zero")
	}
}

func TestStubgenCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := build(t, "npss/cmd/uts-stubgen")
	spec := filepath.Join(t.TempDir(), "demo.uts")
	if err := os.WriteFile(spec, []byte(`import hello prog("x" val double, "y" res double)`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, bin, "-pkg", "demo", spec)
	for _, want := range []string{"package demo", "func Hello(ln *schooner.Line, x float64) (y float64, err error)"} {
		if !strings.Contains(out, want) {
			t.Errorf("stubgen output missing %q", want)
		}
	}
	// -o writes the file.
	dst := filepath.Join(t.TempDir(), "stubs.go")
	run(t, bin, "-pkg", "demo", "-o", dst, spec)
	if data, err := os.ReadFile(dst); err != nil || !strings.Contains(string(data), "package demo") {
		t.Errorf("stubgen -o: %v", err)
	}
	// Bad spec fails.
	bad := filepath.Join(t.TempDir(), "bad.uts")
	os.WriteFile(bad, []byte("bogus"), 0o644)
	cmd := exec.Command(bin, bad)
	if err := cmd.Run(); err == nil {
		t.Error("bad spec exited zero")
	}
	// No args prints usage and exits 2.
	cmd = exec.Command(bin)
	if err := cmd.Run(); err == nil {
		t.Error("missing args exited zero")
	}
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	for _, ex := range []string{"quickstart", "zooming", "migration", "f100", "flightprofile"} {
		ex := ex
		t.Run(ex, func(t *testing.T) {
			bin := build(t, "npss/examples/"+ex)
			out := run(t, bin)
			if len(out) == 0 {
				t.Error("no output")
			}
			if strings.Contains(strings.ToLower(out), "error") {
				t.Errorf("example reported an error:\n%s", out)
			}
		})
	}
}
