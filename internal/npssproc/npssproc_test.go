package npssproc

import (
	"math"
	"os"
	"testing"

	"npss/internal/engine"
	"npss/internal/machine"
	"npss/internal/netsim"
	"npss/internal/schooner"
	"npss/internal/stubgen"
	"npss/internal/uts"
)

// TestStubsInSyncWithSpec regenerates the stubs from the checked-in
// specification and compares with the committed stubs_gen.go, so the
// generator, the spec, and the generated code cannot drift apart.
func TestStubsInSyncWithSpec(t *testing.T) {
	specText, err := os.ReadFile("npssproc.uts")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := uts.Parse(string(specText))
	if err != nil {
		t.Fatal(err)
	}
	want, err := stubgen.Generate(spec, stubgen.Options{
		Package: "npssproc", Source: "internal/npssproc/npssproc.uts",
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("stubs_gen.go")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Error("stubs_gen.go is stale; regenerate with:\n  go run ./cmd/uts-stubgen -pkg npssproc -o internal/npssproc/stubs_gen.go internal/npssproc/npssproc.uts")
	}
}

// rig starts a two-machine deployment with the four adapted programs
// registered.
func rig(t *testing.T) *schooner.Line {
	t.Helper()
	n := netsim.New()
	n.MustAddHost("avs", machine.SPARC)
	n.MustAddHost("cray", machine.CrayYMP)
	tr := schooner.NewSimTransport(n)
	reg := schooner.NewRegistry()
	if err := RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	mgr, err := schooner.StartManager(tr, "avs")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Stop)
	srv, err := schooner.StartServer(tr, "cray", reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	c := &schooner.Client{Transport: tr, Host: "avs", ManagerHost: "avs"}
	ln, err := c.ContactSchx("npssproc-test")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.IQuit() })
	if err := RegisterImports(ln); err != nil {
		t.Fatal(err)
	}
	return ln
}

func TestShaftRemote(t *testing.T) {
	ln := rig(t)
	if err := ln.StartRemote(ShaftPath, "cray"); err != nil {
		t.Fatal(err)
	}
	ecorr, err := Setshaft(ln, []float64{0, 0, 0, 0}, 1, []float64{0, 0, 0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ecorr != 1.0 {
		t.Errorf("ecorr = %g", ecorr)
	}
	// Power terms: one compressor load 10 MW, one turbine 11 MW, at
	// 1000 rad/s with I = 5: accel = 1e6/(5*1000) = 200 rad/s^2.
	dxspl, err := Shaft(ln, []float64{10e6, 0, 0, 0}, 1, []float64{11e6, 0, 0, 0}, 1, ecorr, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	// !(d <= tol), not d > tol: a NaN answer must fail.
	if !(math.Abs(dxspl-200) <= 1e-9) {
		t.Errorf("dxspl = %g, want 200", dxspl)
	}
	// Matches the engine's local shaft computation (torque form).
	local, err := engine.ShaftAccel(11e6/1000, 10e6/1000, 5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !(math.Abs(dxspl-local) <= 1e-9) {
		t.Errorf("remote %g != local %g", dxspl, local)
	}
	// Error propagation.
	if _, err := Shaft(ln, []float64{0, 0, 0, 0}, 1, []float64{0, 0, 0, 0}, 1, 1, 0, 5); err == nil {
		t.Error("zero spool speed accepted")
	}
	if _, err := Setshaft(ln, []float64{0, 0, 0, 0}, 9, []float64{0, 0, 0, 0}, 1); err == nil {
		t.Error("out-of-range incom accepted")
	}
}

func TestDuctRemote(t *testing.T) {
	ln := rig(t)
	if err := ln.StartRemote(DuctPath, "cray"); err != nil {
		t.Fatal(err)
	}
	xkd, err := Setduct(ln, 40, 3e5, 450, 0, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	localK, err := engine.DuctSizeK(40, 3e5, 450, 0, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	// The Cray's 48-bit mantissa makes the remote result slightly
	// different from the local one; within Cray precision.
	if rel := math.Abs(xkd-localK) / localK; rel > 1e-13 {
		t.Errorf("remote K %g vs local %g (rel %g)", xkd, localK, rel)
	}
	w, err := Duct(ln, xkd, 3e5, 450, 0, 2.9e5)
	if err != nil {
		t.Fatal(err)
	}
	localW, _ := engine.DuctFlow(localK, 3e5, 450, 0, 2.9e5)
	if rel := math.Abs(w-localW) / localW; rel > 1e-12 {
		t.Errorf("remote duct flow %g vs local %g", w, localW)
	}
}

func TestCombRemote(t *testing.T) {
	ln := rig(t)
	if err := ln.StartRemote(CombPath, "cray"); err != nil {
		t.Fatal(err)
	}
	xkc, err := Setcomb(ln, 57, 24e5, 800, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	w, tout, far, err := Comb(ln, xkc, 24e5, 800, 0, 23e5, 1.3, 0.995, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if tout <= 800 || far <= 0 || w <= 0 {
		t.Errorf("comb: w=%g t=%g far=%g", w, tout, far)
	}
	// Stoichiometric limit enforced remotely.
	if _, _, _, err := Comb(ln, xkc, 24e5, 800, 0, 23e5, 50, 0.995, 1.0); err == nil {
		t.Error("rich mixture accepted")
	}
}

func TestNozlRemote(t *testing.T) {
	ln := rig(t)
	if err := ln.StartRemote(NozlPath, "cray"); err != nil {
		t.Fatal(err)
	}
	a8, err := Setnozl(ln, 100, 2.9e5, 900, 0.02, 101325)
	if err != nil {
		t.Fatal(err)
	}
	if a8 <= 0 {
		t.Fatalf("a8 = %g", a8)
	}
	w, fg, err := Nozl(ln, a8, 2.9e5, 900, 0.02, 101325, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// The nozzle passes its design flow through the sized area.
	if math.Abs(w-100)/100 > 1e-12 {
		t.Errorf("sized nozzle passes %g, want 100", w)
	}
	if fg <= 0 {
		t.Error("no thrust")
	}
	// Design margin failure propagates.
	if _, err := Setnozl(ln, 100, 0.9e5, 900, 0.02, 101325); err == nil {
		t.Error("no-margin design accepted")
	}
}

// TestFortranCaseOnCray checks that the generated stubs work against a
// Cray-hosted Fortran program, where the exported names are
// upper-cased by the compiler and resolved via Manager synonyms.
func TestFortranCaseOnCray(t *testing.T) {
	ln := rig(t)
	if err := ln.StartRemote(ShaftPath, "cray"); err != nil {
		t.Fatal(err)
	}
	// The stub calls "setshaft" in lower case; the Cray registered
	// "SETSHAFT". If synonyms break, this fails.
	if _, err := Setshaft(ln, []float64{1, 1, 1, 1}, 4, []float64{1, 1, 1, 1}, 4); err != nil {
		t.Fatalf("lower-case stub against Cray-hosted Fortran: %v", err)
	}
}
