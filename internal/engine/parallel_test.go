package engine

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"npss/internal/solver"
	"npss/internal/vclock"
)

// TestEvalParallelBitIdentical is the guarantee Parallel rests on:
// with identical hooks, the pass's two start modes — launch on a
// parallel engine, inline otherwise — produce bit-for-bit equal
// derivatives and outputs, because every volume mutation runs on the
// calling goroutine in the same order either way.
func TestEvalParallelBitIdentical(t *testing.T) {
	seq := newTestEngine(t)
	par := newTestEngine(t)
	par.Parallel = vclock.Real()

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
	par.Parallel = vclock.Real()

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
	e.Parallel = vclock.Real()
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

// TestEvalParallelOnVirtualClock runs a parallel pass on a virtual
// clock with every hook taking 10ms of it. The started calls are
// participants of the clock, so the pass takes exactly its dependency
// chain: bleed, then mixer-bypass (both inline, each waiting on calls
// started with it), then the nozzle — 30ms, where eight hooks in turn
// would take 80ms.
func TestEvalParallelOnVirtualClock(t *testing.T) {
	v := vclock.NewVirtual()
	defer v.Stop()
	e := newTestEngine(t)
	e.Parallel = v
	const delay = 10 * time.Millisecond
	base := LocalHooks()
	e.Hooks = Hooks{
		Shaft: func(spool string, qTur, qCom, inertia, omega float64) (float64, error) {
			v.Sleep(delay)
			return base.Shaft(spool, qTur, qCom, inertia, omega)
		},
		Duct: func(id string, k, pUp, tUp, far, pDown float64) (float64, error) {
			v.Sleep(delay)
			return base.Duct(id, k, pUp, tUp, far, pDown)
		},
		Combustor: func(k, pUp, tUp, farUp, pDown, wf, eta, stator float64) (float64, float64, float64, error) {
			v.Sleep(delay)
			return base.Combustor(k, pUp, tUp, farUp, pDown, wf, eta, stator)
		},
		Nozzle: func(a8, pt, tt, far, pamb, stator float64) (float64, float64, error) {
			v.Sleep(delay)
			return base.Nozzle(a8, pt, tt, far, pamb, stator)
		},
	}
	x := append([]float64(nil), e.DesignState...)
	if _, err := e.Eval(0, x, make([]float64, NumStates)); err != nil {
		t.Fatal(err)
	}
	if got := v.Elapsed(); got != 3*delay {
		t.Errorf("parallel pass took %v of virtual time, want exactly %v", got, 3*delay)
	}
}

// TestEvalHookErrors fails each adapted hook in turn: Eval must return
// the hook's error in both start modes, and a parallel pass must drain
// every hook call it started before returning, so none outlives it —
// none is running when Eval returns, and none starts afterwards.
func TestEvalHookErrors(t *testing.T) {
	sentinel := errors.New("hook failed")
	for _, failing := range []string{
		"duct:bypass", "combustor", "duct:mixer-core", "nozzle",
		"shaft:low", "shaft:high", "shaftpair",
	} {
		for _, parallel := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/parallel=%v", failing, parallel), func(t *testing.T) {
				e := newTestEngine(t)
				e.Parallel = parallelClock(parallel)
				var inflight, late atomic.Int32
				var returned atomic.Bool
				// call runs a hook body as the named site: it fails
				// at once if that site is the failing one, else it
				// lingers so an undrained call would still be running
				// when Eval returns.
				call := func(site string, body func() error) error {
					if returned.Load() {
						late.Add(1)
					}
					inflight.Add(1)
					defer inflight.Add(-1)
					if site == failing {
						return sentinel
					}
					time.Sleep(time.Millisecond)
					return body()
				}
				base := LocalHooks()
				e.Hooks = Hooks{
					Shaft: func(spool string, qTur, qCom, inertia, omega float64) (w float64, err error) {
						err = call("shaft:"+spool, func() (err error) {
							w, err = base.Shaft(spool, qTur, qCom, inertia, omega)
							return err
						})
						return w, err
					},
					Duct: func(id string, k, pUp, tUp, far, pDown float64) (w float64, err error) {
						err = call("duct:"+id, func() (err error) {
							w, err = base.Duct(id, k, pUp, tUp, far, pDown)
							return err
						})
						return w, err
					},
					Combustor: func(k, pUp, tUp, farUp, pDown, wf, eta, stator float64) (w, tOut, farOut float64, err error) {
						err = call("combustor", func() (err error) {
							w, tOut, farOut, err = base.Combustor(k, pUp, tUp, farUp, pDown, wf, eta, stator)
							return err
						})
						return w, tOut, farOut, err
					},
					Nozzle: func(a8, pt, tt, far, pamb, stator float64) (w, thrust float64, err error) {
						err = call("nozzle", func() (err error) {
							w, thrust, err = base.Nozzle(a8, pt, tt, far, pamb, stator)
							return err
						})
						return w, thrust, err
					},
				}
				if failing == "shaftpair" {
					e.Hooks.ShaftPair = func(qTurL, qComL, inertiaL, omegaL, qTurH, qComH, inertiaH, omegaH float64) (dL, dH float64, err error) {
						err = call("shaftpair", func() error { return nil })
						return dL, dH, err
					}
				}
				x := append([]float64(nil), e.DesignState...)
				_, err := e.Eval(0, x, make([]float64, NumStates))
				returned.Store(true)
				if !errors.Is(err, sentinel) {
					t.Fatalf("Eval returned %v, want the hook's error", err)
				}
				if n := inflight.Load(); n != 0 {
					t.Errorf("%d hook calls still running after Eval returned", n)
				}
				// An undrained goroutine may not have reached its hook
				// yet; give it the time to show.
				time.Sleep(5 * time.Millisecond)
				if n := late.Load(); n != 0 {
					t.Errorf("%d hook calls started after Eval returned", n)
				}
			})
		}
	}
}

// TestEvalAllocations pins a non-parallel pass's heap allocations with
// local hooks. Each started hook call's closure and the results it
// writes back live on the heap, because start hands the closure to a
// function value; the count keeps anything more from creeping in.
func TestEvalAllocations(t *testing.T) {
	e := newTestEngine(t)
	x := append([]float64(nil), e.DesignState...)
	dx := make([]float64, NumStates)
	var err error
	allocs := testing.AllocsPerRun(50, func() { _, err = e.Eval(0, x, dx) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("non-parallel pass: %v allocations", allocs)
	if allocs > 15 {
		t.Errorf("non-parallel pass allocates %v times, want at most 15", allocs)
	}
}

// parallelClock is the Parallel setting of a subtest's start mode: the
// wall clock for an overlapped pass, nil for an inline one.
func parallelClock(parallel bool) vclock.Clock {
	if parallel {
		return vclock.Real()
	}
	return nil
}
