package engine

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"npss/internal/gasdyn"
	"npss/internal/solver"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewF100(DefaultF100())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestScheduleInterpolation(t *testing.T) {
	s, err := NewSchedule([]float64{0, 1, 3}, []float64{10, 20, 0})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ tt, want float64 }{
		{-1, 10}, {0, 10}, {0.5, 15}, {1, 20}, {2, 10}, {3, 0}, {99, 0},
	}
	for _, c := range cases {
		if got := s.At(c.tt); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%g) = %g, want %g", c.tt, got, c.want)
		}
	}
	if _, err := NewSchedule([]float64{1, 1}, []float64{0, 0}); err == nil {
		t.Error("non-increasing times accepted")
	}
	if _, err := NewSchedule([]float64{1}, []float64{0, 0}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if Constant(5).At(1234) != 5 {
		t.Error("Constant wrong")
	}
	st, err := Step(1, 2, 0.5, 1.5)
	if err != nil || st.At(0) != 1 || st.At(1) != 1.5 || st.At(2) != 2 {
		t.Errorf("Step schedule wrong: %v", err)
	}
}

func TestParseSchedule(t *testing.T) {
	s, err := ParseSchedule(" 0:1.0, 0.5 : 0.9 ,1:0.8")
	if err != nil {
		t.Fatal(err)
	}
	if s.At(0) != 1.0 || s.At(1) != 0.8 {
		t.Errorf("schedule endpoints wrong")
	}
	if v := s.At(0.25); math.Abs(v-0.95) > 1e-12 {
		t.Errorf("At(0.25) = %g", v)
	}
	if s, err := ParseSchedule(""); err != nil || s != nil {
		t.Error("empty schedule not nil")
	}
	for _, bad := range []string{"1", "a:1", "1:b", "1:2,0:1", "0:1.48x", "0.005:1.2junk"} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", bad)
		}
	}
}

func TestVolumeEquilibrium(t *testing.T) {
	// Equal in/out flow at the volume's own temperature: no change.
	v := &Volume{Name: "test", Vol: 0.5, P: 2e5, T: 500}
	v.BeginPass()
	v.AddIn(Stream{W: 10, Tt: 500, FAR: 0})
	v.UpdateFAR()
	v.AddOut(10)
	dP, dT, err := v.Derivatives()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dP) > 1e-6 || math.Abs(dT) > 1e-9 {
		t.Errorf("equilibrium not steady: dP=%g dT=%g", dP, dT)
	}
}

func TestVolumeFillingRaisesPressure(t *testing.T) {
	v := &Volume{Name: "test", Vol: 0.5, P: 2e5, T: 500}
	v.BeginPass()
	v.AddIn(Stream{W: 10, Tt: 500})
	v.UpdateFAR()
	v.AddOut(8)
	dP, _, err := v.Derivatives()
	if err != nil {
		t.Fatal(err)
	}
	if dP <= 0 {
		t.Errorf("filling volume has dP = %g", dP)
	}
	// Draining drops pressure.
	v.BeginPass()
	v.AddIn(Stream{W: 8, Tt: 500})
	v.UpdateFAR()
	v.AddOut(10)
	dP, _, _ = v.Derivatives()
	if dP >= 0 {
		t.Errorf("draining volume has dP = %g", dP)
	}
}

func TestVolumeHotInflowRaisesTemperature(t *testing.T) {
	v := &Volume{Name: "test", Vol: 0.5, P: 2e5, T: 500}
	v.BeginPass()
	v.AddIn(Stream{W: 10, Tt: 800})
	v.UpdateFAR()
	v.AddOut(10)
	_, dT, err := v.Derivatives()
	if err != nil {
		t.Fatal(err)
	}
	if dT <= 0 {
		t.Errorf("hot inflow gives dT = %g", dT)
	}
}

func TestVolumeBadState(t *testing.T) {
	v := &Volume{Name: "bad", Vol: 0.5, P: -1, T: 500}
	if _, _, err := v.Derivatives(); err == nil {
		t.Error("negative pressure accepted")
	}
}

func TestVolumeFARMixing(t *testing.T) {
	v := &Volume{Name: "mix", Vol: 0.5, P: 2e5, T: 500}
	v.BeginPass()
	v.AddIn(Stream{W: 30, Tt: 500, FAR: 0.02})
	v.AddIn(Stream{W: 10, Tt: 500, FAR: 0})
	v.UpdateFAR()
	// Exact split: air = 30/1.02 + 10, fuel = 30 - 30/1.02.
	air := 30/1.02 + 10.0
	fuel := 30 - 30/1.02
	want := fuel / air
	if math.Abs(v.FAR-want) > 1e-12 {
		t.Errorf("FAR = %g, want %g", v.FAR, want)
	}
}

func TestComponentFunctions(t *testing.T) {
	// Duct: flow scales with sqrt of dP, zero on reverse gradient.
	w1, err := DuctFlow(1, 2e5, 500, 0, 1.9e5)
	if err != nil || w1 <= 0 {
		t.Fatalf("DuctFlow: %g, %v", w1, err)
	}
	w2, _ := DuctFlow(1, 2e5, 500, 0, 1.6e5)
	if math.Abs(w2/w1-2) > 1e-9 {
		t.Errorf("4x dP should double flow: %g vs %g", w2, w1)
	}
	if w, _ := DuctFlow(1, 2e5, 500, 0, 3e5); w != 0 {
		t.Error("reverse duct flow")
	}
	if _, err := DuctFlow(-1, 2e5, 500, 0, 1e5); err == nil {
		t.Error("negative K accepted")
	}
	// Sizing inverts flow.
	k, err := DuctSizeK(25, 2e5, 500, 0, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := DuctFlow(k, 2e5, 500, 0, 1.9e5) //nolint:staticcheck // reuse
	if math.Abs(w-25) > 1e-9 {
		t.Errorf("sized duct passes %g, want 25", w)
	}
	if _, err := DuctSizeK(-1, 2e5, 500, 0, 1e4); err == nil {
		t.Error("bad sizing accepted")
	}

	// Shaft.
	if d, err := ShaftAccel(1000, 400, 6, 1000); err != nil || d != 100 {
		t.Errorf("ShaftAccel = %g, %v", d, err)
	}
	if _, err := ShaftAccel(1, 1, 0, 1000); err == nil {
		t.Error("zero inertia accepted")
	}
	if _, err := ShaftAccel(1, 1, 5, 0); err == nil {
		t.Error("zero speed accepted")
	}

	// Combustor: raises temperature, conserves mass.
	k, _ = DuctSizeK(50, 20e5, 700, 0, 1e5)
	w, tOut, far, err := CombustorCompute(k, 20e5, 700, 0, 19e5, 1.2, 0.995, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tOut <= 700 || far <= 0 {
		t.Errorf("combustor: t=%g far=%g", tOut, far)
	}
	if math.Abs(w-(50+1.2)) > 1e-9 {
		t.Errorf("combustor mass flow %g, want 51.2", w)
	}
	// Rich limit enforced.
	if _, _, _, err := CombustorCompute(k, 20e5, 700, 0, 19e5, 10, 0.995, 1); err == nil {
		t.Error("super-stoichiometric fuel accepted")
	}
	if _, _, _, err := CombustorCompute(k, 20e5, 700, 0, 19e5, -1, 0.995, 1); err == nil {
		t.Error("negative fuel accepted")
	}

	// Nozzle.
	w, fg, err := NozzleCompute(0.2, 3e5, 900, 0.02, 101325, 1)
	if err != nil || w <= 0 || fg <= 0 {
		t.Fatalf("nozzle: w=%g fg=%g %v", w, fg, err)
	}
	// Stator (area schedule) scales flow.
	wHalf, _, _ := NozzleCompute(0.2, 3e5, 900, 0.02, 101325, 0.5)
	if math.Abs(wHalf/w-0.5) > 1e-9 {
		t.Errorf("area factor not linear: %g", wHalf/w)
	}
	if _, _, err := NozzleCompute(-1, 3e5, 900, 0, 101325, 1); err == nil {
		t.Error("negative area accepted")
	}
}

func TestF100DesignIsBalanced(t *testing.T) {
	e := newTestEngine(t)
	x := append([]float64(nil), e.DesignState...)
	dx := make([]float64, NumStates)
	out, err := e.Eval(0, x, dx)
	if err != nil {
		t.Fatal(err)
	}
	// Fractional rates must be tiny at the design point: the sizing
	// pass and the evaluation pass implement the same physics.
	for i := range dx {
		rel := math.Abs(dx[i]) / math.Max(math.Abs(x[i]), 1)
		if rel > 1e-6 {
			t.Errorf("state %d: relative rate %g at design", i, rel)
		}
	}
	// Plausibility of the design cycle.
	if out.Thrust < 40e3 || out.Thrust > 120e3 {
		t.Errorf("design thrust %g N implausible for an F100-class engine", out.Thrust)
	}
	if math.Abs(out.W2-100) > 1e-6 {
		t.Errorf("design airflow %g", out.W2)
	}
	if math.Abs(out.BPR-0.7/0.97) > 0.05 {
		// BPR here is bypass/HPC flow; HPC passes all core flow.
		t.Logf("BPR = %g", out.BPR)
	}
	if math.Abs(out.NL-1) > 1e-9 || math.Abs(out.NH-1) > 1e-9 {
		t.Errorf("design speeds %g, %g", out.NL, out.NH)
	}
	if math.Abs(out.T4-1650) > 1e-6 {
		t.Errorf("design T4 %g", out.T4)
	}
	if math.Abs(out.FanBeta-0.5) > 1e-6 || math.Abs(out.HPCBeta-0.5) > 1e-6 {
		t.Errorf("design betas %g, %g", out.FanBeta, out.HPCBeta)
	}
	sfc := out.Fuel / out.Thrust * 1e6 // g/kN·s... plausibility only
	if sfc < 5 || sfc > 40 {
		t.Errorf("design SFC proxy %g implausible", sfc)
	}
}

func TestF100ConfigValidation(t *testing.T) {
	bad := DefaultF100()
	bad.W2 = -5
	if _, err := NewF100(bad); err == nil {
		t.Error("negative airflow accepted")
	}
	bad = DefaultF100()
	bad.T4 = 300
	if _, err := NewF100(bad); err == nil {
		t.Error("cold T4 accepted")
	}
	// T4 beyond stoichiometric fails in fuel iteration.
	bad = DefaultF100()
	bad.T4 = 3400
	if _, err := NewF100(bad); err == nil {
		t.Error("super-stoichiometric T4 accepted")
	}
}

func TestNewtonBalanceAtReducedPower(t *testing.T) {
	e := newTestEngine(t)
	// Throttle back 10% and rebalance with Newton-Raphson.
	e.Fuel = Constant(0.90 * e.DesignFuel)
	x := append([]float64(nil), e.DesignState...)
	out, iters, err := e.Balance(x, SteadyOptions{Method: "newton-raphson"})
	if err != nil {
		t.Fatalf("balance failed after %d iterations: %v", iters, err)
	}
	if out.NL >= 1 || out.NH >= 1 {
		t.Errorf("reduced fuel should slow spools: NL=%g NH=%g", out.NL, out.NH)
	}
	if out.NL < 0.80 || out.NH < 0.85 {
		t.Errorf("spools fell too far: NL=%g NH=%g", out.NL, out.NH)
	}
	if out.T4 >= 1650 {
		t.Errorf("T4 %g did not drop", out.T4)
	}
	// Verify it is actually steady.
	dx := make([]float64, NumStates)
	if _, err := e.Eval(0, x, dx); err != nil {
		t.Fatal(err)
	}
	for i := range dx {
		rel := math.Abs(dx[i]) / math.Max(math.Abs(x[i]), 1)
		if rel > 1e-6 {
			t.Errorf("state %d not steady after balance: %g", i, rel)
		}
	}
}

func TestRK4MarchMatchesNewton(t *testing.T) {
	if testing.Short() {
		t.Skip("pseudo-transient march is slow")
	}
	e := newTestEngine(t)
	e.Fuel = Constant(0.95 * e.DesignFuel)
	xn := append([]float64(nil), e.DesignState...)
	outN, _, err := e.Balance(xn, SteadyOptions{Method: "newton-raphson"})
	if err != nil {
		t.Fatal(err)
	}
	xr := append([]float64(nil), e.DesignState...)
	outR, _, err := e.Balance(xr, SteadyOptions{Method: "rk4", Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	// The two steady-state methods of the TESS system module agree.
	if math.Abs(outN.NL-outR.NL) > 1e-4 || math.Abs(outN.NH-outR.NH) > 1e-4 {
		t.Errorf("methods disagree: Newton NL=%g NH=%g vs RK4 NL=%g NH=%g",
			outN.NL, outN.NH, outR.NL, outR.NH)
	}
	if math.Abs(outN.Thrust-outR.Thrust)/outN.Thrust > 1e-3 {
		t.Errorf("thrust disagrees: %g vs %g", outN.Thrust, outR.Thrust)
	}
}

func TestBalanceUnknownMethod(t *testing.T) {
	e := newTestEngine(t)
	x := append([]float64(nil), e.DesignState...)
	if _, _, err := e.Balance(x, SteadyOptions{Method: "voodoo"}); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestTransientThrottleStep(t *testing.T) {
	e := newTestEngine(t)
	// Throttle from design to 95% fuel over 0.1 s, watch the engine
	// settle through a 1-second transient (the paper's experiment
	// length) with the Improved Euler method (the paper's choice).
	ramp, err := Step(e.DesignFuel, 0.95*e.DesignFuel, 0.05, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	e.Fuel = ramp
	x := append([]float64(nil), e.DesignState...)
	var minNH float64 = 2
	out, err := e.Transient(x, TransientOptions{
		Method:   solver.ModifiedEuler,
		Duration: 1.0,
		Step:     1e-3,
		Observe: func(tt float64, o Outputs) {
			if o.NH < minNH {
				minNH = o.NH
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.NH >= 1 || out.NL >= 1 {
		t.Errorf("deceleration did not slow spools: NL=%g NH=%g", out.NL, out.NH)
	}
	if minNH > out.NH+0.02 {
		t.Errorf("transient non-monotonic beyond tolerance: min %g vs final %g", minNH, out.NH)
	}
	// Compare the transient end state against a Newton balance at the
	// final fuel flow: after ~6 spool time constants they should be
	// close (the spool states move slowly; volumes settle fast).
	e2 := newTestEngine(t)
	e2.Fuel = Constant(0.95 * e2.DesignFuel)
	xb := append([]float64(nil), e2.DesignState...)
	outB, _, err := e2.Balance(xb, SteadyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.NH-outB.NH) > 0.01 {
		t.Errorf("transient end NH=%g vs steady NH=%g", out.NH, outB.NH)
	}
}

func TestTransientMethodsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("four transient integrations are slow")
	}
	// All four TESS transient methods produce the same trajectory for
	// a mild throttle ramp.
	results := make(map[solver.Method]Outputs)
	for _, m := range solver.Methods() {
		e := newTestEngine(t)
		ramp, _ := Step(e.DesignFuel, 0.97*e.DesignFuel, 0.02, 0.1)
		e.Fuel = ramp
		x := append([]float64(nil), e.DesignState...)
		out, err := e.Transient(x, TransientOptions{Method: m, Duration: 0.3, Step: 5e-4})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		results[m] = out
	}
	ref := results[solver.RK4]
	for m, out := range results {
		if math.Abs(out.NH-ref.NH) > 5e-4 {
			t.Errorf("%v: NH=%g vs RK4 %g", m, out.NH, ref.NH)
		}
		if math.Abs(out.Thrust-ref.Thrust)/ref.Thrust > 5e-3 {
			t.Errorf("%v: thrust=%g vs RK4 %g", m, out.Thrust, ref.Thrust)
		}
	}
}

func TestHooksAreUsed(t *testing.T) {
	// Replacing a hook changes where the computation happens; the
	// engine must route every adapted duct/combustor/nozzle/shaft call
	// through its site (this is what the executive relies on), in
	// either start mode.
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			e := newTestEngine(t)
			e.Parallel = parallelClock(parallel)
			var mu sync.Mutex
			counts := map[string]int{}
			count := func(site string) {
				mu.Lock()
				counts[site]++
				mu.Unlock()
			}
			e.Hooks = wrapHooks(LocalHooks(), func(site string, body func() error) error {
				count(site)
				return body()
			})
			x := append([]float64(nil), e.DesignState...)
			if _, err := e.Eval(0, x, make([]float64, NumStates)); err != nil {
				t.Fatal(err)
			}
			want := map[string]int{
				"duct:bypass": 1, "duct:mixer-core": 1, "combustor": 1,
				"nozzle": 1, "shaft:low": 1, "shaft:high": 1,
			}
			for k, n := range want {
				if counts[k] != n {
					t.Errorf("%s called %d times, want %d", k, counts[k], n)
				}
			}
		})
	}
}

func TestStatorSchedulesAffectOperation(t *testing.T) {
	e := newTestEngine(t)
	x := append([]float64(nil), e.DesignState...)
	base, err := e.Eval(0, x, make([]float64, NumStates))
	if err != nil {
		t.Fatal(err)
	}
	// Closing the fan stators 5% cuts airflow at the same state.
	e.FanStator = Constant(0.95)
	closed, err := e.Eval(0, x, make([]float64, NumStates))
	if err != nil {
		t.Fatal(err)
	}
	if closed.W2 >= base.W2 {
		t.Errorf("stator closure did not cut airflow: %g vs %g", closed.W2, base.W2)
	}
	// Opening the nozzle increases flow out of the mixer volume.
	e.FanStator = Constant(1)
	e.NozzleArea = Constant(1.1)
	open, err := e.Eval(0, x, make([]float64, NumStates))
	if err != nil {
		t.Fatal(err)
	}
	if open.NozzleFlow <= base.NozzleFlow {
		t.Errorf("larger nozzle did not pass more flow")
	}
}

func TestAltitudeAndMachChangeOperatingPoint(t *testing.T) {
	e := newTestEngine(t)
	e.Alt, e.Mach = 10000, 0.9
	// At 10 km the inlet density is less than half of sea level; a
	// realistic cruise fuel flow keeps the cycle on its maps.
	e.Fuel = Constant(0.5 * e.DesignFuel)
	x := append([]float64(nil), e.DesignState...)
	out, iters, err := e.Balance(x, SteadyOptions{})
	if err != nil {
		t.Fatalf("altitude rebalance failed after %d iters: %v", iters, err)
	}
	// At altitude the inlet pressure is far lower; with the same fuel
	// flow the engine runs hotter and the airflow drops.
	if out.W2 >= 100 {
		t.Errorf("airflow at 10 km = %g, want < design", out.W2)
	}
	if out.Thrust <= 0 {
		t.Error("no thrust at altitude")
	}
	pamb, _ := gasdyn.StandardAtmosphere(10000)
	if pamb >= 101325 {
		t.Fatal("atmosphere model broken")
	}
}

func TestEvalErrorPaths(t *testing.T) {
	e := newTestEngine(t)
	x := append([]float64(nil), e.DesignState...)
	// Wrong state vector length.
	if _, err := e.Eval(0, x[:3], nil); err == nil {
		t.Error("short state accepted")
	}
	// Dead spool.
	bad := append([]float64(nil), x...)
	bad[0] = -5
	if _, err := e.Eval(0, bad, make([]float64, NumStates)); err == nil {
		t.Error("negative spool speed accepted")
	}
	// Wrong derivative length.
	if _, err := e.Eval(0, x, make([]float64, 3)); err == nil {
		t.Error("short derivative vector accepted")
	}
}

func TestCompressorTurbineErrors(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.Fan.Compute(-1, 288, 0, 3e5, 1000, 1); err == nil {
		t.Error("negative inlet pressure accepted")
	}
	if _, err := e.HPT.Compute(20e5, 1650, 0.02, 7e5, -1); err == nil {
		t.Error("negative turbine speed accepted")
	}
	// Reverse pressure gradient on a turbine clamps to idle expansion
	// rather than reversing flow.
	res, err := e.HPT.Compute(7e5, 1200, 0.02, 20e5, e.HPT.NDes)
	if err != nil {
		t.Fatal(err)
	}
	if res.W < 0 {
		t.Error("turbine flow reversed")
	}
}

// TestFlightEnvelope balances the engine across the operating
// conditions the executive offers (altitude and Mach dials): the "high
// or low altitude" operating-condition capability of the paper's
// simulation-executive goals.
func TestFlightEnvelope(t *testing.T) {
	points := []struct {
		alt, mach, fuelFrac float64
	}{
		{0, 0, 1.00},       // sea-level static, military power
		{0, 0.5, 0.95},     // low-level dash
		{5000, 0.8, 0.75},  // climb
		{11000, 0.9, 0.5},  // cruise
		{11000, 1.1, 0.55}, // transonic at the tropopause
	}
	for _, p := range points {
		e := newTestEngine(t)
		e.Alt, e.Mach = p.alt, p.mach
		e.Fuel = Constant(p.fuelFrac * e.DesignFuel)
		x := append([]float64(nil), e.DesignState...)
		out, iters, err := e.Balance(x, SteadyOptions{})
		if err != nil {
			t.Errorf("alt=%g mach=%g fuel=%g: %v (after %d iters)", p.alt, p.mach, p.fuelFrac, err, iters)
			continue
		}
		if out.Thrust <= 0 || out.W2 <= 0 || out.T4 < 600 || out.T4 > 2000 {
			t.Errorf("alt=%g mach=%g: implausible point %+v", p.alt, p.mach, out)
		}
		// Surge margin: the fan must not sit on the map edge.
		if out.FanBeta <= 0.01 || out.FanBeta >= 0.99 {
			t.Errorf("alt=%g mach=%g: fan at map edge (beta=%g)", p.alt, p.mach, out.FanBeta)
		}
	}
}

// TestBalanceRobustToPerturbedStart: Newton finds the same operating
// point from perturbed initial guesses — the balance is a property of
// the engine, not of the seed.
func TestBalanceRobustToPerturbedStart(t *testing.T) {
	e := newTestEngine(t)
	e.Fuel = Constant(0.93 * e.DesignFuel)
	ref := append([]float64(nil), e.DesignState...)
	refOut, _, err := e.Balance(ref, SteadyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{0.97, 1.03, 1.05} {
		x := append([]float64(nil), e.DesignState...)
		for i := range x {
			x[i] *= scale
		}
		out, iters, err := e.Balance(x, SteadyOptions{})
		if err != nil {
			t.Errorf("perturbation %g: %v (after %d iters)", scale, err, iters)
			continue
		}
		if math.Abs(out.NH-refOut.NH) > 1e-6 || math.Abs(out.Thrust-refOut.Thrust)/refOut.Thrust > 1e-6 {
			t.Errorf("perturbation %g converged elsewhere: NH %g vs %g", scale, out.NH, refOut.NH)
		}
	}
}

// TestAugmentorRaisesThrust lights the afterburner: thrust must rise
// substantially, and the nozzle must be opened alongside to keep the
// back-pressure from pushing the fan toward surge — the coupling that
// makes augmented engines schedule A8 with fuel.
func TestAugmentorRaisesThrust(t *testing.T) {
	e := newTestEngine(t)
	x := append([]float64(nil), e.DesignState...)
	dry, _, err := e.Balance(x, SteadyOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Light the augmentor with the nozzle opened 25%.
	e.AugFuel = Constant(2.0)
	e.NozzleArea = Constant(1.25)
	xw := append([]float64(nil), e.DesignState...)
	wet, iters, err := e.Balance(xw, SteadyOptions{})
	if err != nil {
		t.Fatalf("wet balance failed after %d iters: %v", iters, err)
	}
	if wet.Thrust < 1.15*dry.Thrust {
		t.Errorf("augmentor raised thrust only %.1f%% (%.1f -> %.1f kN)",
			(wet.Thrust/dry.Thrust-1)*100, dry.Thrust/1000, wet.Thrust/1000)
	}
	if wet.AugFuel != 2.0 {
		t.Errorf("AugFuel output = %g", wet.AugFuel)
	}
	if wet.Fuel <= dry.Fuel {
		t.Error("total fuel did not include the augmentor")
	}
	// The core should be roughly undisturbed (the augmentor burns
	// downstream of the turbines).
	if rel := wet.T4/dry.T4 - 1; rel > 0.08 || rel < -0.08 {
		t.Errorf("augmentor disturbed T4 by %.1f%%", rel*100)
	}

	// Augmentor without opening the nozzle: the engine rebalances to a
	// worse place (or fails); if it balances, the fan must have moved
	// toward surge (lower beta).
	e2 := newTestEngine(t)
	e2.AugFuel = Constant(2.0)
	x2 := append([]float64(nil), e2.DesignState...)
	closed, _, err := e2.Balance(x2, SteadyOptions{})
	if err == nil && closed.FanBeta >= dry.FanBeta {
		t.Errorf("closed-nozzle augmentation did not push the fan toward surge (beta %g vs %g)",
			closed.FanBeta, dry.FanBeta)
	}

	// Over-fueling the augmentor hits the stoichiometric guard.
	e3 := newTestEngine(t)
	e3.AugFuel = Constant(8.0)
	x3 := append([]float64(nil), e3.DesignState...)
	if _, err := e3.Eval(0, x3, make([]float64, NumStates)); err == nil {
		t.Error("super-stoichiometric augmentor accepted")
	}
	// Negative augmentor fuel is rejected.
	e4 := newTestEngine(t)
	e4.AugFuel = Constant(-1)
	if _, err := e4.Eval(0, append([]float64(nil), e4.DesignState...), make([]float64, NumStates)); err == nil {
		t.Error("negative augmentor fuel accepted")
	}
}

// TestAugmentorTransientLight runs a transient afterburner light with
// a coordinated nozzle schedule.
func TestAugmentorTransientLight(t *testing.T) {
	e := newTestEngine(t)
	lightAt := 0.05
	aug, err := NewSchedule([]float64{lightAt, lightAt + 0.05}, []float64{0, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	noz, err := NewSchedule([]float64{lightAt, lightAt + 0.05}, []float64{1.0, 1.25})
	if err != nil {
		t.Fatal(err)
	}
	e.AugFuel = aug
	e.NozzleArea = noz
	x := append([]float64(nil), e.DesignState...)
	if _, _, err := e.Balance(x, SteadyOptions{}); err != nil {
		t.Fatal(err)
	}
	var maxThrust float64
	final, err := e.Transient(x, TransientOptions{Duration: 0.4, Step: 5e-4,
		Observe: func(tt float64, o Outputs) {
			if o.Thrust > maxThrust {
				maxThrust = o.Thrust
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if final.Thrust < 1.15*68771 {
		t.Errorf("afterburner transient ended at %.1f kN", final.Thrust/1000)
	}
	if final.AugFuel != 2.0 {
		t.Errorf("final aug fuel %g", final.AugFuel)
	}
	_ = maxThrust
}

// TestSteadyStateConservation checks global mass and energy balances
// at a steady operating point: everything that enters the engine
// leaves through the nozzle, and the fuel heat release accounts for
// the total enthalpy rise. This validates the whole component chain
// and the volume bookkeeping at once.
func TestSteadyStateConservation(t *testing.T) {
	for _, aug := range []float64{0, 1.5} {
		e := newTestEngine(t)
		if aug > 0 {
			e.AugFuel = Constant(aug)
			e.NozzleArea = Constant(1.22)
		}
		x := append([]float64(nil), e.DesignState...)
		out, _, err := e.Balance(x, SteadyOptions{Tol: 1e-11})
		if err != nil {
			t.Fatalf("aug=%g: %v", aug, err)
		}

		// Mass: nozzle flow equals airflow plus all fuel.
		wIn := out.W2 + out.Fuel
		if rel := math.Abs(out.NozzleFlow-wIn) / wIn; rel > 1e-6 {
			t.Errorf("aug=%g: mass imbalance %.2e (in %.4f vs out %.4f kg/s)",
				aug, rel, wIn, out.NozzleFlow)
		}

		// Energy: fuel heat release equals the enthalpy flux rise from
		// inlet to nozzle (shaft work circulates internally).
		_, t2 := e.Inlet.Compute(e.Alt, e.Mach)
		v7 := e.Volumes[VMixExit]
		hOutFlux := out.NozzleFlow * gasdyn.H(v7.T, v7.FAR)
		hInFlux := out.W2 * gasdyn.H(t2, 0)
		coreFuel := out.Fuel - out.AugFuel
		release := coreFuel*e.BurnEff*gasdyn.FuelLHV + out.AugFuel*e.AugEff*gasdyn.FuelLHV
		if rel := math.Abs(hOutFlux-hInFlux-release) / release; rel > 1e-3 {
			t.Errorf("aug=%g: energy imbalance %.2e (release %.3f MW vs flux rise %.3f MW)",
				aug, rel, release/1e6, (hOutFlux-hInFlux)/1e6)
		}
	}
}

// TestFlightProfileSchedules: altitude and Mach schedules drive the
// evaluation through a transient.
func TestFlightProfileSchedules(t *testing.T) {
	e := newTestEngine(t)
	alt, _ := NewSchedule([]float64{0, 1}, []float64{0, 6000})
	mach, _ := NewSchedule([]float64{0, 1}, []float64{0, 0.7})
	e.AltSched, e.MachSched = alt, mach
	fuel, _ := NewSchedule([]float64{0, 1}, []float64{e.DesignFuel, 0.8 * e.DesignFuel})
	e.Fuel = fuel
	x := append([]float64(nil), e.DesignState...)
	if _, _, err := e.Balance(x, SteadyOptions{}); err != nil {
		t.Fatal(err)
	}
	var w2AtStart, w2AtEnd float64
	final, err := e.Transient(x, TransientOptions{Duration: 1.0, Step: 5e-4,
		Observe: func(tt float64, o Outputs) {
			if w2AtStart == 0 {
				w2AtStart = o.W2
			}
			w2AtEnd = o.W2
		}})
	if err != nil {
		t.Fatal(err)
	}
	// Climbing thins the air: physical airflow must fall well below
	// the sea-level value.
	if w2AtEnd >= 0.8*w2AtStart {
		t.Errorf("airflow did not fall with altitude: %g -> %g", w2AtStart, w2AtEnd)
	}
	if final.Thrust <= 0 {
		t.Error("no thrust at the end of the climb")
	}
}

// TestVolumeAddFuel covers the augmentor's direct fuel injection into
// a volume.
func TestVolumeAddFuel(t *testing.T) {
	v := &Volume{Name: "aug", Vol: 0.7, P: 2.5e5, T: 900}
	v.BeginPass()
	v.AddIn(Stream{W: 100, Tt: 900, FAR: 0.02})
	v.AddFuel(1.5, 42e6)
	v.UpdateFAR()
	v.AddOut(101.5)
	// Composition: air = 100/1.02, fuel = 100-100/1.02 + 1.5.
	air := 100 / 1.02
	wantFAR := (100 - air + 1.5) / air
	if d := v.FAR - wantFAR; d > 1e-12 || d < -1e-12 {
		t.Errorf("FAR = %g, want %g", v.FAR, wantFAR)
	}
	// The heat release must heat the volume.
	_, dT, err := v.Derivatives()
	if err != nil {
		t.Fatal(err)
	}
	if dT <= 0 {
		t.Errorf("fuel injection did not heat the volume: dT = %g", dT)
	}
}

// TestTransientObserveFailureEndsRun: when the pass that evaluates an
// observed step's outputs fails, Transient returns that error rather
// than skipping the observation.
func TestTransientObserveFailureEndsRun(t *testing.T) {
	sentinel := errors.New("hook failed")
	// run fails the failAt'th nozzle call (the nozzle runs once per
	// pass) and reports how many calls preceded the first observation.
	run := func(failAt int) (firstObserved int, err error) {
		e := newTestEngine(t)
		calls, nozzle := 0, e.Hooks.Nozzle
		e.Hooks.Nozzle = func(a8, pt, tt, far, pamb, stator float64) (float64, float64, error) {
			if calls++; calls == failAt {
				return 0, 0, sentinel
			}
			return nozzle(a8, pt, tt, far, pamb, stator)
		}
		x := append([]float64(nil), e.DesignState...)
		_, err = e.Transient(x, TransientOptions{Duration: 2e-3, Step: 5e-4, Observe: func(float64, Outputs) {
			if firstObserved == 0 {
				firstObserved = calls
			}
		}})
		return firstObserved, err
	}
	n, err := run(0)
	if err != nil || n == 0 {
		t.Fatalf("clean run: first observation after %d passes, err %v", n, err)
	}
	// Fail only the first step's observing pass.
	if _, err := run(n); !errors.Is(err, sentinel) {
		t.Fatalf("Transient returned %v, want the failed observation's error", err)
	}
}
