package core

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"npss/internal/engine"
	"npss/internal/machine"
	"npss/internal/netsim"
	"npss/internal/npssproc"
	"npss/internal/schooner"
)

// testbed is a full simulated deployment: the AVS workstation at
// Arizona plus remote machines at both sites, a Manager, and Servers.
type testbed struct {
	net  *netsim.Network
	mgr  *schooner.Manager
	exec *Executive
	reg  *schooner.Registry
}

func newTestbed(t *testing.T) *testbed {
	t.Helper()
	n := netsim.New()
	hosts := map[string]*machine.Arch{
		"avs-sparc-ua": machine.SPARC,
		"sgi-ua":       machine.SGI,
		"sgi-lerc":     machine.SGI,
		"cray-lerc":    machine.CrayYMP,
		"rs6000-lerc":  machine.RS6000,
	}
	for name, arch := range hosts {
		n.MustAddHost(name, arch)
	}
	tr := schooner.NewSimTransport(n)
	reg := schooner.NewRegistry()
	if err := npssproc.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	mgr, err := schooner.StartManager(tr, "avs-sparc-ua")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Stop)
	for name := range hosts {
		srv, err := schooner.StartServer(tr, name, reg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
	}
	client := &schooner.Client{Transport: tr, Host: "avs-sparc-ua", ManagerHost: "avs-sparc-ua"}
	exec := NewExecutive(client, []string{"sgi-ua", "sgi-lerc", "cray-lerc", "rs6000-lerc"})
	if err := exec.BuildF100(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(exec.Destroy)
	return &testbed{net: n, mgr: mgr, exec: exec, reg: reg}
}

// shortRun configures a quick steady+transient run.
func shortRun(t *testing.T, x *Executive) {
	t.Helper()
	if err := x.Network.SetParam(InstSystem, "transient seconds", 0.2); err != nil {
		t.Fatal(err)
	}
	if err := x.Network.SetParam(InstSystem, "time step", 1e-3); err != nil {
		t.Fatal(err)
	}
}

func TestF100NetworkShape(t *testing.T) {
	tb := newTestbed(t)
	n := tb.exec.Network
	if len(n.Nodes()) != 14 {
		t.Errorf("network has %d modules, want 14", len(n.Nodes()))
	}
	// Figure 2: multiple instances of several module types.
	if got := n.InstancesOf("shaft-low"); len(got) != 1 {
		t.Errorf("shaft-low instances: %v", got)
	}
	shafts := append(n.InstancesOf("shaft-low"), n.InstancesOf("shaft-high")...)
	if len(shafts) != 2 {
		t.Errorf("shaft instances: %v", shafts)
	}
	ducts := append(n.InstancesOf("duct-bypass"), n.InstancesOf("duct-augmentor")...)
	if len(ducts) != 2 {
		t.Errorf("duct instances: %v", ducts)
	}
	// The low speed shaft control panel (the one the paper shows).
	node, err := n.Node(InstLowShaft)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range node.Widgets() {
		names = append(names, w.Name)
	}
	for _, want := range []string{"moment inertia", "spool speed", "spool speed-op", "machine", "path"} {
		found := false
		for _, got := range names {
			if got == want {
				found = true
			}
		}
		if !found {
			t.Errorf("low speed shaft panel missing widget %q (have %v)", want, names)
		}
	}
}

func TestLocalRunMatchesDirectEngine(t *testing.T) {
	tb := newTestbed(t)
	shortRun(t, tb.exec)
	res, err := tb.exec.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Direct engine run with the same configuration.
	eng, err := engine.NewF100(tb.exec.Config)
	if err != nil {
		t.Fatal(err)
	}
	x := append([]float64(nil), eng.DesignState...)
	steady, _, err := eng.Balance(x, engine.SteadyOptions{Method: "newton-raphson"})
	if err != nil {
		t.Fatal(err)
	}
	final, err := eng.Transient(x, engine.TransientOptions{Duration: 0.2, Step: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steady.Thrust != steady.Thrust || res.Steady.NL != steady.NL {
		t.Errorf("executive steady %+v != direct %+v", res.Steady, steady)
	}
	if res.Final.Thrust != final.Thrust || res.Final.NH != final.NH {
		t.Errorf("executive final %+v != direct %+v", res.Final, final)
	}
}

// runPair executes the same simulation locally and with the given
// placements, returning both results. This is the paper's
// verification method: "the results were compared with the same
// computation using the original local-compute-only versions".
func runPair(t *testing.T, placements map[string]string) (*RunResult, *RunResult) {
	t.Helper()
	tb := newTestbed(t)
	shortRun(t, tb.exec)
	// A real throttle transient so the comparison exercises dynamics,
	// not just the balanced point.
	if err := tb.exec.Network.SetParam(InstComb, "fuel schedule", "0:1.48, 0.05:1.33"); err != nil {
		t.Fatal(err)
	}
	local, err := tb.exec.Run(RunOptions{})
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	for inst, mach := range placements {
		if err := tb.exec.SetRemote(inst, mach, ""); err != nil {
			t.Fatal(err)
		}
	}
	remote, err := tb.exec.Run(RunOptions{})
	if err != nil {
		t.Fatalf("remote run: %v", err)
	}
	got := tb.exec.RemotePlacements()
	for inst, mach := range placements {
		if got[inst] != mach {
			t.Errorf("placement of %s = %q, want %q", inst, got[inst], mach)
		}
	}
	return local, remote
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), 1e-12)
}

func compareRuns(t *testing.T, local, remote *RunResult, tol float64) {
	t.Helper()
	checks := []struct {
		name   string
		lv, rv float64
	}{
		{"steady thrust", local.Steady.Thrust, remote.Steady.Thrust},
		{"steady NL", local.Steady.NL, remote.Steady.NL},
		{"steady NH", local.Steady.NH, remote.Steady.NH},
		{"steady T4", local.Steady.T4, remote.Steady.T4},
		{"final thrust", local.Final.Thrust, remote.Final.Thrust},
		{"final NL", local.Final.NL, remote.Final.NL},
		{"final NH", local.Final.NH, remote.Final.NH},
		{"final T4", local.Final.T4, remote.Final.T4},
	}
	for _, c := range checks {
		if d := relDiff(c.lv, c.rv); d > tol {
			t.Errorf("%s: local %.12g vs remote %.12g (rel %.3g > %.3g)", c.name, c.lv, c.rv, d, tol)
		}
	}
	// Full state vector agreement.
	for i := range local.State {
		if d := relDiff(local.State[i], remote.State[i]); d > tol {
			t.Errorf("state %d: local %.12g vs remote %.12g", i, local.State[i], remote.State[i])
		}
	}
}

func TestRemoteShaftOnIEEE(t *testing.T) {
	// IEEE machines introduce no representation change, but the
	// paper's shaft signature carries power terms (torque times
	// speed), whose multiply-then-divide differs from the local
	// torque-form computation by an ulp per step; the runs agree to
	// solver precision.
	local, remote := runPair(t, map[string]string{InstLowShaft: "rs6000-lerc"})
	compareRuns(t, local, remote, 1e-8)
}

func TestRemoteDuctOnCray(t *testing.T) {
	// The Cray's 48-bit mantissa costs a few ulps per pass; the runs
	// agree within accumulated Cray precision.
	local, remote := runPair(t, map[string]string{InstBypDuct: "cray-lerc"})
	compareRuns(t, local, remote, 1e-5)
}

func TestRemoteCombustorOnSGI(t *testing.T) {
	local, remote := runPair(t, map[string]string{InstComb: "sgi-lerc"})
	compareRuns(t, local, remote, 0)
}

func TestRemoteNozzleOnSGI(t *testing.T) {
	local, remote := runPair(t, map[string]string{InstNozzle: "sgi-ua"})
	compareRuns(t, local, remote, 0)
}

func TestCombinedSixRemoteModules(t *testing.T) {
	// The paper's Table 2: six remote computations at once —
	// combustor on an SGI at Arizona, two ducts on the LeRC Cray,
	// nozzle on an SGI at LeRC, two shafts on the LeRC RS/6000.
	local, remote := runPair(t, map[string]string{
		InstComb:      "sgi-ua",
		InstBypDuct:   "cray-lerc",
		InstAugDuct:   "cray-lerc",
		InstNozzle:    "sgi-lerc",
		InstLowShaft:  "rs6000-lerc",
		InstHighShaft: "rs6000-lerc",
	})
	compareRuns(t, local, remote, 1e-4)
}

func TestDestroyShutsDownLines(t *testing.T) {
	tb := newTestbed(t)
	shortRun(t, tb.exec)
	tb.exec.SetRemote(InstLowShaft, "rs6000-lerc", "")
	tb.exec.SetRemote(InstComb, "sgi-lerc", "")
	if _, err := tb.exec.Run(RunOptions{SkipTransient: true}); err != nil {
		t.Fatal(err)
	}
	if tb.mgr.LineCount() != 2 {
		t.Errorf("LineCount = %d, want 2", tb.mgr.LineCount())
	}
	tb.exec.Destroy()
	deadline := time.Now().Add(2 * time.Second)
	for tb.mgr.LineCount() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if tb.mgr.LineCount() != 0 {
		t.Errorf("lines remain after Destroy: %v", tb.mgr.Lines())
	}
}

// TestLineLostMidRunFailsTheRun checks that a run routes each module
// once: when a remote module's line quits mid-transient, the run fails
// naming the quit line instead of finishing the steps in-process.
func TestLineLostMidRunFailsTheRun(t *testing.T) {
	tb := newTestbed(t)
	steps, err := loseCombustorMidRun(t, tb)
	if err == nil || !strings.Contains(err.Error(), "already quit") {
		t.Fatalf("run after losing the combustor's line: err = %v, want the quit line named", err)
	}
	if steps != 5 {
		t.Errorf("run observed %d steps, want it to stop after the 5th", steps)
	}
}

// TestRunRestartsALostLine: the machine widget still selects sgi-lerc
// after the combustor's line was shut down mid-run, so the next run
// starts the line again there instead of computing in-process.
func TestRunRestartsALostLine(t *testing.T) {
	tb := newTestbed(t)
	loseCombustorMidRun(t, tb)
	if _, err := tb.exec.Run(RunOptions{SkipTransient: true}); err != nil {
		t.Fatalf("run after the combustor's line was lost: %v", err)
	}
	if got := tb.exec.RemotePlacements()[InstComb]; got != "sgi-lerc" {
		t.Errorf("combustor on %q in the run after its line was lost, want sgi-lerc", got)
	}
}

// loseCombustorMidRun places the combustor on sgi-lerc and destroys it
// (shutting its line down) at the fifth transient step, returning
// how many steps the run observed and its error.
func loseCombustorMidRun(t *testing.T, tb *testbed) (int, error) {
	t.Helper()
	if err := tb.exec.Network.SetParam(InstSystem, "transient seconds", 0.01); err != nil {
		t.Fatal(err)
	}
	if err := tb.exec.SetRemote(InstComb, "sgi-lerc", ""); err != nil {
		t.Fatal(err)
	}
	node, err := tb.exec.Network.Node(InstComb)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	_, err = tb.exec.Run(RunOptions{Observe: func(float64, engine.Outputs) {
		if steps++; steps == 5 {
			node.Module().Destroy()
		}
	}})
	return steps, err
}

func TestRePlacementMovesComputation(t *testing.T) {
	// Selecting a different machine in the radio widget moves the
	// computation: the old line is shut down and a new one started.
	tb := newTestbed(t)
	shortRun(t, tb.exec)
	tb.exec.SetRemote(InstNozzle, "sgi-lerc", "")
	if _, err := tb.exec.Run(RunOptions{SkipTransient: true}); err != nil {
		t.Fatal(err)
	}
	tb.exec.SetRemote(InstNozzle, "rs6000-lerc", "")
	if _, err := tb.exec.Run(RunOptions{SkipTransient: true}); err != nil {
		t.Fatal(err)
	}
	if got := tb.exec.RemotePlacements()[InstNozzle]; got != "rs6000-lerc" {
		t.Errorf("nozzle on %q after re-placement", got)
	}
	if tb.mgr.LineCount() != 1 {
		t.Errorf("LineCount = %d after re-placement, want 1", tb.mgr.LineCount())
	}
}

func TestWidgetsAffectTheRun(t *testing.T) {
	tb := newTestbed(t)
	shortRun(t, tb.exec)
	base, err := tb.exec.Run(RunOptions{SkipTransient: true})
	if err != nil {
		t.Fatal(err)
	}
	// Throttle back via the fuel flow dial.
	if err := tb.exec.Network.SetParam(InstComb, "fuel flow", base.Steady.Fuel*0.9); err != nil {
		t.Fatal(err)
	}
	lower, err := tb.exec.Run(RunOptions{SkipTransient: true})
	if err != nil {
		t.Fatal(err)
	}
	if lower.Steady.Thrust >= base.Steady.Thrust {
		t.Errorf("thrust did not drop: %g -> %g", base.Steady.Thrust, lower.Steady.Thrust)
	}
	// The moment inertia dial is the paper's example widget; it must
	// flow into the engine.
	if err := tb.exec.Network.SetParam(InstLowShaft, "moment inertia", 18.0); err != nil {
		t.Fatal(err)
	}
	heavy, err := tb.exec.Run(RunOptions{SkipTransient: true})
	if err != nil {
		t.Fatal(err)
	}
	if heavy.Engine.InertiaL != 18.0 {
		t.Errorf("inertia widget not applied: %g", heavy.Engine.InertiaL)
	}
}

func TestFuelScheduleWidget(t *testing.T) {
	tb := newTestbed(t)
	shortRun(t, tb.exec)
	// A deceleration schedule through the type-in widget.
	base, err := tb.exec.Run(RunOptions{SkipTransient: true})
	if err != nil {
		t.Fatal(err)
	}
	sched := "0:1.30, 0.05:1.10"
	if err := tb.exec.Network.SetParam(InstComb, "fuel schedule", sched); err != nil {
		t.Fatal(err)
	}
	var sawFuelDrop bool
	res, err := tb.exec.Run(RunOptions{Observe: func(tt float64, out engine.Outputs) {
		if out.Fuel < 1.2 {
			sawFuelDrop = true
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !sawFuelDrop {
		t.Error("fuel schedule did not act during the transient")
	}
	if res.Final.NH >= base.Steady.NH {
		t.Errorf("deceleration did not slow the engine: %g vs %g", res.Final.NH, base.Steady.NH)
	}
}

func TestSolverMethodWidgets(t *testing.T) {
	tb := newTestbed(t)
	shortRun(t, tb.exec)
	// The transient methods menu: all four run and agree loosely.
	// Adams (AB4/AM4 PECE) has the narrowest stability interval of the
	// four and needs the finer step.
	if err := tb.exec.Network.SetParam(InstSystem, "transient seconds", 0.05); err != nil {
		t.Fatal(err)
	}
	if err := tb.exec.Network.SetParam(InstSystem, "time step", 2.5e-4); err != nil {
		t.Fatal(err)
	}
	results := map[string]float64{}
	for _, m := range []string{"Modified Euler", "Fourth-order Runge-Kutta", "Adams", "Gear"} {
		if err := tb.exec.Network.SetParam(InstSystem, "transient method", m); err != nil {
			t.Fatal(err)
		}
		res, err := tb.exec.Run(RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		results[m] = res.Final.Thrust
	}
	ref := results["Fourth-order Runge-Kutta"]
	for m, v := range results {
		if relDiff(v, ref) > 1e-3 {
			t.Errorf("%s thrust %g vs RK4 %g", m, v, ref)
		}
	}
	// Unknown methods are rejected by the widget itself.
	if err := tb.exec.Network.SetParam(InstSystem, "transient method", "leapfrog"); err == nil {
		t.Error("unknown method accepted by widget")
	}
}

func TestSaveLoadF100Network(t *testing.T) {
	tb := newTestbed(t)
	tb.exec.SetRemote(InstLowShaft, "rs6000-lerc", "")
	var buf bytes.Buffer
	if err := tb.exec.SaveNetwork(&buf); err != nil {
		t.Fatal(err)
	}
	// Reload through the executive's catalog.
	exec2 := NewExecutive(tb.exec.Client, tb.exec.Machines)
	if err := exec2.LoadNetwork(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	n := exec2.Network
	defer exec2.Destroy()
	if len(n.Nodes()) != 14 {
		t.Fatalf("reloaded network has %d modules", len(n.Nodes()))
	}
	// The machine selection survived the round trip.
	node, _ := n.Node(InstLowShaft)
	for _, w := range node.Widgets() {
		if w.Name == "machine" {
			if v, _ := w.Text(); v != "rs6000-lerc" {
				t.Errorf("machine widget = %q", v)
			}
		}
	}
	shortRun(t, exec2)
	if _, err := exec2.Run(RunOptions{SkipTransient: true}); err != nil {
		t.Fatalf("reloaded network does not run: %v", err)
	}
}
