package solver

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveLinearKnown(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	if err := SolveLinear(a, b); err != nil {
		t.Fatal(err)
	}
	// 2x + y = 5, x + 3y = 10 -> x = 1, y = 3.
	if math.Abs(b[0]-1) > 1e-12 || math.Abs(b[1]-3) > 1e-12 {
		t.Errorf("solution = %v", b)
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{2, 3}
	if err := SolveLinear(a, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 3 || b[1] != 2 {
		t.Errorf("solution = %v", b)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if err := SolveLinear(a, b); err == nil {
		t.Error("singular system solved")
	}
}

func TestSolveLinearBadShapes(t *testing.T) {
	if err := SolveLinear(nil, nil); err == nil {
		t.Error("empty system accepted")
	}
	if err := SolveLinear([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("non-square accepted")
	}
	if err := SolveLinear([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("ragged accepted")
	}
}

func TestQuickSolveLinearResidual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := make([][]float64, n)
		orig := make([][]float64, n)
		x := make([]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			orig[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = r.NormFloat64()
				orig[i][j] = a[i][j]
			}
			a[i][i] += float64(n) // diagonally dominant, well-conditioned
			orig[i][i] = a[i][i]
			x[i] = r.NormFloat64() * 10
		}
		b := make([]float64, n)
		for i := range b {
			for j := range x {
				b[i] += orig[i][j] * x[j]
			}
		}
		if err := SolveLinear(a, b); err != nil {
			return false
		}
		for i := range x {
			if math.Abs(b[i]-x[i]) > 1e-8*(1+math.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNewtonScalar(t *testing.T) {
	// x^2 = 4 from x0 = 1.
	x := []float64{1}
	iters, err := newton(func(x, r []float64) error {
		r[0] = x[0]*x[0] - 4
		return nil
	}, x, NewtonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-8 {
		t.Errorf("x = %v after %d iters", x, iters)
	}
}

func TestNewtonCoupledSystem(t *testing.T) {
	// x^2 + y^2 = 25, x - y = 1 -> x = 4, y = 3 (from a nearby guess).
	x := []float64{5, 2}
	_, err := newton(func(x, r []float64) error {
		r[0] = x[0]*x[0] + x[1]*x[1] - 25
		r[1] = x[0] - x[1] - 1
		return nil
	}, x, NewtonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-4) > 1e-8 || math.Abs(x[1]-3) > 1e-8 {
		t.Errorf("solution = %v", x)
	}
}

func TestNewtonAlreadyConverged(t *testing.T) {
	x := []float64{2}
	iters, err := newton(func(x, r []float64) error {
		r[0] = x[0] - 2
		return nil
	}, x, NewtonOptions{})
	if err != nil || iters != 0 {
		t.Errorf("iters = %d, err = %v", iters, err)
	}
}

func TestNewtonMaxStepLimitsUpdate(t *testing.T) {
	// With a tiny MaxStep the first iteration cannot jump far.
	x := []float64{1}
	newton(func(x, r []float64) error {
		r[0] = x[0] - 100
		return nil
	}, x, NewtonOptions{MaxIter: 1, MaxStep: 0.1})
	if x[0] > 1.2 {
		t.Errorf("MaxStep ignored: x = %v", x)
	}
}

func TestNewtonNonConvergence(t *testing.T) {
	// x^2 + 1 = 0 has no real root.
	x := []float64{1}
	_, err := newton(func(x, r []float64) error {
		r[0] = x[0]*x[0] + 1
		return nil
	}, x, NewtonOptions{MaxIter: 20})
	if err == nil {
		t.Error("impossible system converged")
	}
	if _, err := newton(func(x, r []float64) error { return nil }, nil, NewtonOptions{}); err == nil {
		t.Error("empty system accepted")
	}
}

// decay is x' = -x, x(0)=1, exact x(t) = e^-t.
func decay(t float64, x, dx []float64) error {
	dx[0] = -x[0]
	return nil
}

func integrateDecay(t *testing.T, g Integrator, h float64) float64 {
	t.Helper()
	x := []float64{1}
	if err := Integrate(g, decay, x, 0, 1, h, nil); err != nil {
		t.Fatal(err)
	}
	return math.Abs(x[0] - math.Exp(-1))
}

func TestIntegratorAccuracy(t *testing.T) {
	// Error magnitude at h=0.01 for each method.
	bounds := map[Method]float64{
		ModifiedEuler: 1e-5,
		RK4:           1e-10,
		Adams:         1e-9,
		Gear:          1e-4,
	}
	for m, bound := range bounds {
		g, err := New(m)
		if err != nil {
			t.Fatal(err)
		}
		e := integrateDecay(t, g, 0.01)
		if e > bound {
			t.Errorf("%v: error %g exceeds %g", m, e, bound)
		}
	}
}

func TestIntegratorOrderOfAccuracy(t *testing.T) {
	// Halving h must reduce error by ~2^order.
	orders := map[Method]float64{ModifiedEuler: 2, RK4: 4, Gear: 2}
	for m, order := range orders {
		g1, _ := New(m)
		e1 := integrateDecay(t, g1, 0.02)
		g2, _ := New(m)
		e2 := integrateDecay(t, g2, 0.01)
		got := math.Log2(e1 / e2)
		if got < order-0.4 {
			t.Errorf("%v: observed order %.2f, want >= %.1f", m, got, order)
		}
	}
	// Adams PECE at these step counts behaves at least 3rd order.
	g1, _ := New(Adams)
	e1 := integrateDecay(t, g1, 0.02)
	g2, _ := New(Adams)
	e2 := integrateDecay(t, g2, 0.01)
	if got := math.Log2(e1 / e2); got < 3 {
		t.Errorf("Adams: observed order %.2f", got)
	}
}

func TestIntegratorHarmonicOscillator(t *testing.T) {
	// x'' = -x as a system; energy must be conserved to method
	// accuracy over 10 periods.
	osc := func(tt float64, x, dx []float64) error {
		dx[0] = x[1]
		dx[1] = -x[0]
		return nil
	}
	for _, m := range Methods() {
		g, _ := New(m)
		x := []float64{1, 0}
		if err := Integrate(g, osc, x, 0, 20*math.Pi, 0.002, nil); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		energy := x[0]*x[0] + x[1]*x[1]
		if math.Abs(energy-1) > 0.02 {
			t.Errorf("%v: energy drifted to %g", m, energy)
		}
	}
}

func TestGearHandlesStiffSystem(t *testing.T) {
	// x' = -1000(x - cos(t)), stiff; explicit RK4 at h=0.01 blows up
	// (stability limit h < ~2.8/1000) while Gear stays bounded.
	stiff := func(tt float64, x, dx []float64) error {
		dx[0] = -1000 * (x[0] - math.Cos(tt))
		return nil
	}
	rk, _ := New(RK4)
	x := []float64{0}
	_ = Integrate(rk, stiff, x, 0, 0.5, 0.01, nil)
	if !(math.IsNaN(x[0]) || math.Abs(x[0]) > 10) {
		t.Log("RK4 unexpectedly stable (allowed, but surprising)")
	}
	g, _ := New(Gear)
	x = []float64{0}
	if err := Integrate(g, stiff, x, 0, 0.5, 0.01, nil); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-math.Cos(0.5)) > 0.05 {
		t.Errorf("Gear on stiff system: x = %g, want ~%g", x[0], math.Cos(0.5))
	}
}

func TestAdamsResetOnStepChange(t *testing.T) {
	g, _ := New(Adams)
	x := []float64{1}
	if err := Integrate(g, decay, x, 0, 0.5, 0.01, nil); err != nil {
		t.Fatal(err)
	}
	// Change step size mid-run: history must be rebuilt, not misused.
	if err := Integrate(g, decay, x, 0.5, 1, 0.004, nil); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-math.Exp(-1)) > 1e-6 {
		t.Errorf("x = %g, want %g", x[0], math.Exp(-1))
	}
}

func TestIntegrateObserverAndFinalStep(t *testing.T) {
	g, _ := New(RK4)
	x := []float64{1}
	var times []float64
	err := Integrate(g, decay, x, 0, 0.05, 0.02, func(tt float64, x []float64) error {
		times = append(times, tt)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Steps 0.02, 0.02, then a short 0.01 to land exactly on 0.05.
	if len(times) != 3 || math.Abs(times[2]-0.05) > 1e-12 {
		t.Errorf("times = %v", times)
	}
	if err := Integrate(g, decay, x, 0, 1, -1, nil); err == nil {
		t.Error("negative step accepted")
	}
}

func TestMarchToSteady(t *testing.T) {
	// x' = 4 - x settles at x = 4.
	relax := func(tt float64, x, dx []float64) error {
		dx[0] = 4 - x[0]
		return nil
	}
	x := []float64{0}
	steps, err := MarchToSteady(relax, x, 0.1, 1e-10, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-4) > 1e-6 {
		t.Errorf("steady x = %g after %d steps", x[0], steps)
	}
	// Too few steps: reports failure.
	x = []float64{0}
	if _, err := MarchToSteady(relax, x, 0.001, 1e-12, 3); err == nil {
		t.Error("impossible march succeeded")
	}
}

func TestMethodNames(t *testing.T) {
	for _, m := range Methods() {
		g, err := New(m)
		if err != nil {
			t.Fatal(err)
		}
		if g.Name() != m.String() {
			t.Errorf("name mismatch: %q vs %q", g.Name(), m.String())
		}
		back, err := MethodByName(m.String())
		if err != nil || back != m {
			t.Errorf("MethodByName(%q) = %v, %v", m.String(), back, err)
		}
	}
	for name, want := range map[string]Method{
		"rk4": RK4, "improved-euler": ModifiedEuler, "ADAMS": Adams, "bdf": Gear,
	} {
		got, err := MethodByName(name)
		if err != nil || got != want {
			t.Errorf("MethodByName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := MethodByName("leapfrog"); err == nil {
		t.Error("unknown method resolved")
	}
	if _, err := New(Method(99)); err == nil {
		t.Error("unknown method constructed")
	}
}

func TestIntegratorReset(t *testing.T) {
	// Reset clears multistep history so reuse on a new trajectory is
	// clean: integrating decay then a fresh trajectory must match a
	// fresh integrator.
	for _, m := range []Method{Adams, Gear} {
		g, _ := New(m)
		x := []float64{1}
		Integrate(g, decay, x, 0, 1, 0.01, nil)
		g.Reset()
		x = []float64{1}
		Integrate(g, decay, x, 0, 1, 0.01, nil)
		fresh, _ := New(m)
		y := []float64{1}
		Integrate(fresh, decay, y, 0, 1, 0.01, nil)
		if math.Abs(x[0]-y[0]) > 1e-14 {
			t.Errorf("%v: reused %g vs fresh %g", m, x[0], y[0])
		}
	}
}
