package engine

import (
	"math"
	"testing"
	"time"

	"npss/internal/solver"
)

// TestEvalParallelBitIdentical is the guarantee the parallel pass
// rests on: with identical hooks, evalParallel and evalSequential
// produce bit-for-bit equal derivatives and outputs — every per-volume
// operation sequence is preserved, and the single reorder (V1's two
// outflows) commutes exactly.
func TestEvalParallelBitIdentical(t *testing.T) {
	seq := newTestEngine(t)
	par := newTestEngine(t)
	par.Parallel = true

	// A spread of states: the design point and perturbations of every
	// state entry in both directions.
	states := [][]float64{append([]float64(nil), seq.DesignState...)}
	for i := 0; i < NumStates; i++ {
		for _, f := range []float64{0.97, 1.04} {
			x := append([]float64(nil), seq.DesignState...)
			x[i] *= f
			states = append(states, x)
		}
	}
	for si, x := range states {
		dxSeq := make([]float64, NumStates)
		dxPar := make([]float64, NumStates)
		outSeq, errSeq := seq.Eval(0, append([]float64(nil), x...), dxSeq)
		outPar, errPar := par.Eval(0, append([]float64(nil), x...), dxPar)
		if (errSeq == nil) != (errPar == nil) {
			t.Fatalf("state %d: error mismatch: %v vs %v", si, errSeq, errPar)
		}
		if errSeq != nil {
			continue
		}
		for i := range dxSeq {
			if dxSeq[i] != dxPar[i] {
				t.Errorf("state %d dx[%d]: %v sequential vs %v parallel (diff %g)",
					si, i, dxSeq[i], dxPar[i], dxSeq[i]-dxPar[i])
			}
		}
		if outSeq != outPar {
			t.Errorf("state %d outputs differ:\n seq %+v\n par %+v", si, outSeq, outPar)
		}
	}
}

// TestBalanceParallelBitIdentical runs the full Newton balance and a
// short transient both ways: the iterates, and therefore the final
// states, must be identical to the last bit.
func TestBalanceParallelBitIdentical(t *testing.T) {
	seq := newTestEngine(t)
	par := newTestEngine(t)
	par.Parallel = true

	xSeq := append([]float64(nil), seq.DesignState...)
	xPar := append([]float64(nil), par.DesignState...)
	outSeq, itSeq, errSeq := seq.Balance(xSeq, SteadyOptions{})
	outPar, itPar, errPar := par.Balance(xPar, SteadyOptions{})
	if errSeq != nil || errPar != nil {
		t.Fatalf("balance errors: %v / %v", errSeq, errPar)
	}
	if itSeq != itPar {
		t.Errorf("iterations: %d sequential vs %d parallel", itSeq, itPar)
	}
	for i := range xSeq {
		if xSeq[i] != xPar[i] {
			t.Errorf("balanced x[%d]: %v vs %v", i, xSeq[i], xPar[i])
		}
	}
	if outSeq != outPar {
		t.Errorf("balanced outputs differ:\n seq %+v\n par %+v", outSeq, outPar)
	}

	trSeq, errSeq := seq.Transient(xSeq, TransientOptions{Duration: 0.01, Step: 5e-4})
	trPar, errPar := par.Transient(xPar, TransientOptions{Duration: 0.01, Step: 5e-4})
	if errSeq != nil || errPar != nil {
		t.Fatalf("transient errors: %v / %v", errSeq, errPar)
	}
	for i := range xSeq {
		if xSeq[i] != xPar[i] {
			t.Errorf("transient x[%d]: %v vs %v", i, xSeq[i], xPar[i])
		}
	}
	if trSeq != trPar {
		t.Errorf("transient outputs differ:\n seq %+v\n par %+v", trSeq, trPar)
	}
}

// TestBalanceIgnoresStaleFAR pins what fork relies on: FAR is the one
// volume value that outlives BeginPass, and no balance pass reads it
// before rewriting it. Poisoning every volume's FAR with NaN before
// every pass of an off-design balance must leave it bit-identical.
func TestBalanceIgnoresStaleFAR(t *testing.T) {
	clean := newTestEngine(t)
	clean.Fuel = Constant(0.90 * clean.DesignFuel)
	want := append([]float64(nil), clean.DesignState...)
	if _, _, err := clean.Balance(want, SteadyOptions{}); err != nil {
		t.Fatal(err)
	}

	e := newTestEngine(t)
	e.Fuel = clean.Fuel
	scales := e.scales()
	res := e.residual(scales)
	poisoned := func(xs, r []float64) error {
		for _, v := range e.Volumes {
			v.FAR = math.NaN()
		}
		return res(xs, r)
	}
	xs := make([]float64, NumStates)
	for i := range xs {
		xs[i] = e.DesignState[i] / scales[i]
	}
	opt := balanceNewton
	opt.Tol = 1e-9
	iters, err := solver.Newton(poisoned, solver.Sequential(poisoned), xs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if iters < 2 {
		t.Fatalf("balance took %d iterations; the test needs an off-design solve", iters)
	}
	for i := range want {
		if got := xs[i] * scales[i]; got != want[i] {
			t.Errorf("x[%d]: %v with stale FAR poisoned, %v clean", i, got, want[i])
		}
	}
}

// TestEvalParallelOverlapsHooks wraps the hooks with a delay and
// checks that a parallel pass is faster than the sum of its hook
// delays — the adapted calls genuinely overlap (and the pass holds up
// under the race detector).
func TestEvalParallelOverlapsHooks(t *testing.T) {
	e := newTestEngine(t)
	e.Parallel = true
	const delay = 10 * time.Millisecond
	base := LocalHooks()
	e.Hooks = Hooks{
		Shaft: func(spool string, qTur, qCom, inertia, omega float64) (float64, error) {
			time.Sleep(delay)
			return base.Shaft(spool, qTur, qCom, inertia, omega)
		},
		Duct: func(id string, k, pUp, tUp, far, pDown float64) (float64, error) {
			time.Sleep(delay)
			return base.Duct(id, k, pUp, tUp, far, pDown)
		},
		Combustor: func(k, pUp, tUp, farUp, pDown, wf, eta, stator float64) (float64, float64, float64, error) {
			time.Sleep(delay)
			return base.Combustor(k, pUp, tUp, farUp, pDown, wf, eta, stator)
		},
		Nozzle: func(a8, pt, tt, far, pamb, stator float64) (float64, float64, error) {
			time.Sleep(delay)
			return base.Nozzle(a8, pt, tt, far, pamb, stator)
		},
	}
	x := append([]float64(nil), e.DesignState...)
	start := time.Now()
	if _, err := e.Eval(0, x, make([]float64, NumStates)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// Eight hook invocations per pass; sequential would pay >= 8x the
	// delay. The dependency chain bounds the parallel pass near
	// bleed + combustor + bypass-or-mixer + mixer-bypass + nozzle.
	if elapsed >= 8*delay {
		t.Errorf("parallel pass took %v, no overlap (8 hooks x %v)", elapsed, delay)
	}
	if math.IsNaN(x[0]) {
		t.Error("state corrupted")
	}
}
