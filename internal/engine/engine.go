package engine

import (
	"errors"
	"fmt"

	"npss/internal/gasdyn"
	"npss/internal/solver"
	"npss/internal/trace"
	"npss/internal/vclock"
)

// Hooks are the component computations the engine calls through
// indirection, one field per call site. The defaults run locally; the
// prototype executive (package core) replaces the sites of the four
// components the paper adapted — shaft, duct, combustor, and nozzle —
// with versions that invoke the computation on a remote machine
// through Schooner. Every hook is a pure function of its arguments,
// which is what made the adaptation possible.
type Hooks struct {
	// Each spool's shaft is a site of its own, as in the paper's
	// combined test where the two shaft modules ran on an RS/6000
	// while two duct instances ran on a Cray.
	LowShaft, HighShaft func(qTur, qCom, inertia, omega float64) (float64, error)
	// The bypass duct and the mixer's core side are the adapted duct
	// sites. The cooling bleed and the mixer's bypass side always
	// compute locally, through DuctFlow.
	BypassDuct, MixerCoreDuct func(k, pUp, tUp, far, pDown float64) (float64, error)
	Combustor                 func(k, pUp, tUp, farUp, pDown, wf, eta, stator float64) (w, tOut, farOut float64, err error)
	Nozzle                    func(a8, pt, tt, far, pamb, stator float64) (w, thrust float64, err error)
	// ShaftPair, when non-nil, computes both spools' shaft dynamics in
	// one operation. Every evaluation pass uses it in place of the two
	// shaft sites when it is installed: both torque balances become
	// known at the same instant (right after the LPT), so a transport
	// that can batch — the executive coalesces the two remote shaft
	// calls into one wire message when they share a host — halves the
	// shaft round trips without changing any argument or result. Each
	// sub-result must be exactly what the corresponding shaft site
	// would return.
	ShaftPair func(qTurL, qComL, inertiaL, omegaL, qTurH, qComH, inertiaH, omegaH float64) (dOmegaL, dOmegaH float64, err error)
}

// LocalHooks returns hooks that execute every computation in-process.
func LocalHooks() Hooks {
	return Hooks{
		LowShaft: ShaftAccel, HighShaft: ShaftAccel,
		BypassDuct: DuctFlow, MixerCoreDuct: DuctFlow,
		Combustor: CombustorCompute, Nozzle: NozzleCompute,
	}
}

// Volume indices in the engine state vector.
const (
	VFanExit  = iota // V1: fan discharge (core + bypass plenum)
	VHPCExit         // V2: compressor discharge
	VCombExit        // V3: combustor exit / HPT inlet
	VHPTExit         // V4: HPT exit / LPT inlet (receives cooling bleed)
	VLPTExit         // V5: LPT exit, core mixer inlet
	VBypExit         // V6: bypass duct exit, bypass mixer inlet
	VMixExit         // V7: mixer/augmentor exit, nozzle inlet
	NumVolumes
)

// NumStates is the length of the engine state vector:
// [omegaL, omegaH, P and T for each volume].
const NumStates = 2 + 2*NumVolumes

// Engine is the assembled two-spool mixed-flow turbofan.
type Engine struct {
	Inlet *Inlet
	Fan   *Compressor // low spool
	HPC   *Compressor // high spool
	HPT   *Turbine    // high spool
	LPT   *Turbine    // low spool

	Volumes [NumVolumes]*Volume

	// Shaft inertias, kg m^2.
	InertiaL, InertiaH float64
	// Design mechanical spool speeds, rad/s (for output normalization;
	// the component NDes fields hold corrected map references).
	NLDes, NHDes float64

	// Duct/orifice constants (sized at design).
	KByp, KBleed, KComb, KMixCore, KMixByp float64

	// Nozzle throat area, m^2.
	A8 float64
	// Combustion efficiency.
	BurnEff float64

	// Controls: fuel flow (kg/s) and the transient control schedules
	// (dimensionless factors around 1.0) for the stator angles of the
	// compressor (fan+HPC), combustor, and nozzle — the three
	// components TESS gives transient control schedules.
	Fuel       *Schedule
	FanStator  *Schedule
	HPCStator  *Schedule
	CombStator *Schedule
	NozzleArea *Schedule // A8 multiplier
	// AugFuel is the augmentor (afterburner) fuel flow, kg/s, burned
	// in the mixer volume upstream of the nozzle. Zero at design; the
	// F100 is an augmented turbofan, and lighting the augmentor is how
	// it reaches maximum power. Opening the nozzle area alongside is
	// the schedule's job, as in the real engine.
	AugFuel *Schedule
	// AugEff is the augmentor combustion efficiency.
	AugEff float64

	// Flight condition. Alt and Mach hold the current point; when the
	// profile schedules are non-nil they drive the condition through a
	// transient, so the engine can be "flown through a flight profile"
	// as the paper's executive goals describe.
	Alt, Mach float64
	AltSched  *Schedule
	MachSched *Schedule

	// Hooks route the four adapted computations.
	Hooks Hooks

	// Parallel, when non-nil, is the clock of the overlapped
	// evaluation pass: the adapted hook computations (ducts,
	// combustor, nozzle, shafts) start as participants of it,
	// concurrently where the dataflow allows, so remote calls overlap
	// on the wire. Balance then also evaluates each Newton iteration's
	// Jacobian columns concurrently, one forked pass per column. Nil
	// runs every hook call inline. Results are bit-identical either
	// way; see Eval and fork.
	Parallel vclock.Clock

	// DesignState is the state vector at the design point, the
	// natural initial guess for balancing.
	DesignState []float64
	// DesignFuel is the design-point fuel flow, kg/s.
	DesignFuel float64
	// DesignDucts, DesignComb, and DesignNozzle record the design
	// conditions each flow element was sized at. The executive passes
	// them to the remote set* procedures, which recompute the sizing
	// constants on the remote machine (the paper's pattern of a setup
	// procedure called once at the start of a steady-state
	// computation).
	DesignDucts  map[string]DuctDesign
	DesignComb   CombDesign
	DesignNozzle NozzleDesign
}

// DuctDesign holds one duct's sizing conditions.
type DuctDesign struct {
	W   float64 // design flow, kg/s
	P   float64 // upstream total pressure, Pa
	T   float64 // upstream total temperature, K
	FAR float64
	DP  float64 // design pressure drop, Pa
}

// CombDesign holds the combustor's sizing conditions.
type CombDesign struct {
	W  float64 // design air flow, kg/s
	P  float64
	T  float64
	DP float64
}

// NozzleDesign holds the nozzle's sizing conditions.
type NozzleDesign struct {
	W    float64 // design total flow, kg/s
	P    float64 // nozzle inlet total pressure, Pa
	T    float64
	FAR  float64
	Pamb float64
}

// Outputs are the observable results of one evaluation pass.
type Outputs struct {
	Thrust     float64 // gross thrust, N
	Fuel       float64 // total fuel flow (core + augmentor), kg/s
	AugFuel    float64 // augmentor fuel flow, kg/s
	W2         float64 // fan inlet airflow, kg/s
	NL, NH     float64 // spool speeds, fraction of design
	T4         float64 // combustor exit (volume) temperature, K
	FanBeta    float64 // fan operating beta (0 surge .. 1 choke)
	HPCBeta    float64
	BPR        float64 // bypass ratio
	NozzleFlow float64 // kg/s
}

// UnpackState copies the state vector into the engine's volumes and
// returns the spool speeds.
func (e *Engine) UnpackState(x []float64) (omegaL, omegaH float64, err error) {
	if len(x) != NumStates {
		return 0, 0, fmt.Errorf("engine: state vector has %d entries, want %d", len(x), NumStates)
	}
	omegaL, omegaH = x[0], x[1]
	for i, v := range e.Volumes {
		v.P = x[2+2*i]
		v.T = x[2+2*i+1]
	}
	return omegaL, omegaH, nil
}

// PackState writes spool speeds and volume states into x.
func (e *Engine) PackState(x []float64, omegaL, omegaH float64) {
	x[0], x[1] = omegaL, omegaH
	for i, v := range e.Volumes {
		x[2+2*i] = v.P
		x[2+2*i+1] = v.T
	}
}

// Eval performs one full algebraic pass at time t and state x,
// returning the state derivatives and the engine outputs. It is the
// single place the component computations are invoked; the hook
// indirection decides where each computation physically executes, and
// the Parallel clock decides whether independent hook invocations
// overlap in time.
//
// Each adapted hook invocation is started through start the moment its
// inputs are final, while every volume mutation stays on the calling
// goroutine. On a parallel engine start is launch, so the call runs as
// a participant of its own on the Parallel clock; otherwise it is
// inline, which runs the call at once. The dataflow dependencies force
// only three hook calls onto the critical path (combustor -> mixer-core
// -> nozzle); the bypass duct overlaps the compressor/turbine
// arithmetic and the two shaft calls overlap the mixer and nozzle. Hook
// arguments are captured as scalars at start, so goroutines never read
// volume state. A non-parallel pass
// calls its hooks in start order: bypass, combustor, bleed, shafts,
// mixer-core, mixer-bypass, nozzle. In either mode a failing hook is
// reported at its wait.
//
// Both modes run the same volume operations on the same values in the
// same order on the calling goroutine, so their results are
// bit-identical.
func (e *Engine) Eval(t float64, x []float64, dx []float64) (Outputs, error) {
	var out Outputs
	omegaL, omegaH, err := e.UnpackState(x)
	if err != nil {
		return out, err
	}
	if omegaL <= 0 || omegaH <= 0 {
		return out, fmt.Errorf("engine: non-positive spool speed (NL=%g NH=%g)", omegaL, omegaH)
	}
	for _, v := range e.Volumes {
		v.BeginPass()
	}
	v1 := e.Volumes[VFanExit]
	v2 := e.Volumes[VHPCExit]
	v3 := e.Volumes[VCombExit]
	v4 := e.Volumes[VHPTExit]
	v5 := e.Volumes[VLPTExit]
	v6 := e.Volumes[VBypExit]
	v7 := e.Volumes[VMixExit]

	// start begins a hook call: as a participant of the Parallel clock
	// on a parallel engine, at once otherwise. fail drains every started call before
	// an error return, so no hook call outlives the pass.
	var waitBuf [6]func() error
	waits := waitBuf[:0]
	start := func(fn func() error) func() error {
		w := e.begin(fn)
		waits = append(waits, w)
		return w
	}
	fail := func(err error) (Outputs, error) {
		for _, w := range waits {
			_ = w()
		}
		return Outputs{}, err
	}

	// Ambient and inlet, following the flight profile when one is set.
	alt, mach := e.Alt, e.Mach
	if e.AltSched != nil {
		alt = e.AltSched.At(t)
	}
	if e.MachSched != nil {
		mach = e.MachSched.At(t)
	}
	pamb, _ := gasdyn.StandardAtmosphere(alt)
	p2, t2 := e.Inlet.Compute(alt, mach)

	// Fan.
	fan, err := e.Fan.Compute(p2, t2, 0, v1.P, omegaL, e.FanStator.At(t))
	if err != nil {
		return out, err
	}
	v1.AddIn(Stream{W: fan.W, Tt: fan.Tt, FAR: 0})
	v1.UpdateFAR()

	// Bypass duct V1 -> V6, started: its inputs are final and its
	// result is not needed until the bypass mixer bookkeeping.
	var wByp float64
	bypP, bypT, bypFAR, bypDown := v1.P, v1.T, v1.FAR, v6.P
	waitByp := start(func() (err error) {
		wByp, err = e.Hooks.BypassDuct(e.KByp, bypP, bypT, bypFAR, bypDown)
		return err
	})

	// High-pressure compressor V1 -> V2.
	hpc, err := e.HPC.Compute(v1.P, v1.T, v1.FAR, v2.P, omegaH, e.HPCStator.At(t))
	if err != nil {
		return fail(err)
	}
	v1.AddOut(hpc.W)
	v2.AddIn(Stream{W: hpc.W, Tt: hpc.Tt, FAR: v1.FAR})
	v2.UpdateFAR()

	// Combustor V2 -> V3, started: the turbines need its result, but
	// it overlaps the bleed and the in-flight bypass duct.
	wf := e.Fuel.At(t)
	var w3, t3, far3 float64
	combP, combT, combFAR, combDown, combStator := v2.P, v2.T, v2.FAR, v3.P, e.CombStator.At(t)
	waitComb := start(func() (err error) {
		w3, t3, far3, err = e.Hooks.Combustor(e.KComb, combP, combT, combFAR, combDown, wf, e.BurnEff, combStator)
		return err
	})

	// Cooling bleed V2 -> V4 (always a local computation).
	wBleed, err := DuctFlow(e.KBleed, v2.P, v2.T, v2.FAR, v4.P)
	if err != nil {
		return fail(err)
	}
	v2.AddOut(wBleed)
	v4.AddIn(Stream{W: wBleed, Tt: v2.T, FAR: v2.FAR})

	if err := waitComb(); err != nil {
		return fail(err)
	}
	wAir := w3 - wf
	if wAir < 0 {
		wAir = 0
	}
	v2.AddOut(wAir)
	v3.AddInEnthalpy(w3, gasdyn.H(t3, far3), far3)
	v3.UpdateFAR()

	// High-pressure turbine V3 -> V4.
	hpt, err := e.HPT.Compute(v3.P, v3.T, v3.FAR, v4.P, omegaH)
	if err != nil {
		return fail(err)
	}
	v3.AddOut(hpt.W)
	v4.AddIn(Stream{W: hpt.W, Tt: hpt.Tt, FAR: v3.FAR})
	v4.UpdateFAR()

	// Low-pressure turbine V4 -> V5.
	lpt, err := e.LPT.Compute(v4.P, v4.T, v4.FAR, v5.P, omegaL)
	if err != nil {
		return fail(err)
	}
	v4.AddOut(lpt.W)
	v5.AddIn(Stream{W: lpt.W, Tt: lpt.Tt, FAR: v4.FAR})
	v5.UpdateFAR()

	// Both spools' torques are known; start the shaft dynamics to
	// overlap the mixer and nozzle. With a ShaftPair hook installed the
	// two calls ride one start (and, in the executive, one wire
	// message); the wait functions are idempotent, so both waiters
	// below can share it.
	var dOmegaL, dOmegaH float64
	lptQ, fanQ := lpt.Torque, fan.Torque
	hptQ, hpcQ := hpt.Torque, hpc.Torque
	var waitShaftL, waitShaftH func() error
	if e.Hooks.ShaftPair != nil {
		w := start(func() (err error) {
			dOmegaL, dOmegaH, err = e.Hooks.ShaftPair(lptQ, fanQ, e.InertiaL, omegaL, hptQ, hpcQ, e.InertiaH, omegaH)
			return err
		})
		waitShaftL, waitShaftH = w, w
	} else {
		waitShaftL = start(func() (err error) {
			dOmegaL, err = e.Hooks.LowShaft(lptQ, fanQ, e.InertiaL, omegaL)
			return err
		})
		waitShaftH = start(func() (err error) {
			dOmegaH, err = e.Hooks.HighShaft(hptQ, hpcQ, e.InertiaH, omegaH)
			return err
		})
	}

	// Mixer core side V5 -> V7, started.
	var wMixCore float64
	mcP, mcT, mcFAR, mcDown := v5.P, v5.T, v5.FAR, v7.P
	waitMixCore := start(func() (err error) {
		wMixCore, err = e.Hooks.MixerCoreDuct(e.KMixCore, mcP, mcT, mcFAR, mcDown)
		return err
	})

	// Bypass bookkeeping waits on the bypass duct result.
	if err := waitByp(); err != nil {
		return fail(err)
	}
	v1.AddOut(wByp)
	v6.AddIn(Stream{W: wByp, Tt: v1.T, FAR: v1.FAR})
	v6.UpdateFAR()

	// Mixer bypass side V6 -> V7 (always a local computation).
	wMixByp, err := DuctFlow(e.KMixByp, v6.P, v6.T, v6.FAR, v7.P)
	if err != nil {
		return fail(err)
	}

	if err := waitMixCore(); err != nil {
		return fail(err)
	}
	v5.AddOut(wMixCore)
	v7.AddIn(Stream{W: wMixCore, Tt: v5.T, FAR: v5.FAR})
	v6.AddOut(wMixByp)
	v7.AddIn(Stream{W: wMixByp, Tt: v6.T, FAR: v6.FAR})

	// Augmentor: afterburner fuel burns in the mixer volume.
	wfa := 0.0
	if e.AugFuel != nil {
		wfa = e.AugFuel.At(t)
	}
	if wfa < 0 {
		return fail(fmt.Errorf("engine: negative augmentor fuel %g", wfa))
	}
	if wfa > 0 {
		v7.AddFuel(wfa, e.AugEff*gasdyn.FuelLHV)
	}
	v7.UpdateFAR()
	if v7.FAR > gasdyn.FARStoich {
		return fail(fmt.Errorf("engine: augmentor drives FAR to %.4f beyond stoichiometric", v7.FAR))
	}

	// Nozzle V7 -> ambient; overlaps only the shaft calls still in
	// flight — everything else on the flow path is upstream of it.
	var w8, thrust float64
	nzP, nzT, nzFAR, nzArea := v7.P, v7.T, v7.FAR, e.NozzleArea.At(t)
	waitNozzle := start(func() (err error) {
		w8, thrust, err = e.Hooks.Nozzle(e.A8, nzP, nzT, nzFAR, pamb, nzArea)
		return err
	})
	if err := waitNozzle(); err != nil {
		return fail(err)
	}
	v7.AddOut(w8)

	if err := waitShaftL(); err != nil {
		return fail(err)
	}
	if err := waitShaftH(); err != nil {
		return fail(err)
	}

	if dx != nil {
		if len(dx) != NumStates {
			return out, fmt.Errorf("engine: derivative vector has %d entries, want %d", len(dx), NumStates)
		}
		dx[0], dx[1] = dOmegaL, dOmegaH
		for i, v := range e.Volumes {
			dP, dT, err := v.Derivatives()
			if err != nil {
				return out, err
			}
			dx[2+2*i] = dP
			dx[2+2*i+1] = dT
		}
	}

	out = Outputs{
		Thrust:     thrust,
		Fuel:       wf + wfa,
		AugFuel:    wfa,
		W2:         fan.W,
		NL:         omegaL / e.NLDes,
		NH:         omegaH / e.NHDes,
		T4:         v3.T,
		FanBeta:    fan.Beta,
		HPCBeta:    hpc.Beta,
		NozzleFlow: w8,
	}
	if hpc.W > 0 {
		out.BPR = wByp / hpc.W
	}
	return out, nil
}

// begin starts fn the way a pass starts a hook call: launched on the
// Parallel clock when there is one, inline otherwise.
func (e *Engine) begin(fn func() error) func() error {
	if e.Parallel == nil {
		return inline(fn)
	}
	return launch(e.Parallel, fn)
}

// launch runs fn as a new participant of c and returns an idempotent
// wait function delivering its error, parked on a Slot so a virtual
// clock sees every waiter. A parallel engine's pass starts its hook
// calls with it, and Balance overlaps Jacobian columns with it.
func launch(c vclock.Clock, fn func() error) func() error {
	done := c.NewSlot()
	c.Go("engine.launch", func() { done.Fill(fn()) })
	return func() error {
		v, ok := done.Await()
		if !ok {
			return errStopped
		}
		err, _ := v.(error)
		return err
	}
}

// errStopped is the wait of a call whose clock stopped under it.
var errStopped = errors.New("engine: clock stopped under a hook call")

// inline runs fn at once and returns a wait function delivering its
// error: launch's counterpart for a pass that does not overlap.
func inline(fn func() error) func() error {
	if err := fn(); err != nil {
		return func() error { return err }
	}
	return waitNil
}

// waitNil is the wait of every inline call that succeeded.
func waitNil() error { return nil }

// System adapts the engine to the solver.System signature.
func (e *Engine) System() solver.System {
	return func(t float64, x, dx []float64) error {
		_, err := e.Eval(t, x, dx)
		return err
	}
}

// scales returns the per-state scale factors a balance divides the
// state by (xs = x / scale), the design state, so pressures
// (1e5..2.5e6 Pa), temperatures (1e2..2e3 K) and speeds (1e3 rad/s)
// are comparable for the solver.
func (e *Engine) scales() []float64 {
	s := make([]float64, NumStates)
	for i, v := range e.DesignState {
		s[i] = v
	}
	return s
}

// SteadyOptions configures a steady-state balance.
type SteadyOptions struct {
	// Method selects "newton-raphson" (default) or "rk4" (pseudo-
	// transient marching), the two steady-state options of the TESS
	// system module.
	Method string
	// Tol is the convergence tolerance (default 1e-9).
	Tol float64
}

// balanceNewton is the damped Newton-Raphson a balance runs; Balance
// sets the tolerance.
var balanceNewton = solver.NewtonOptions{MaxIter: 200, Relax: 0.9, MaxStep: 0.15}

// Balance finds the steady operating point for the current controls
// (fuel at t=0, schedules at t=0), updating x in place. x is typically
// seeded with DesignState. It returns the outputs at the balanced
// point and the iteration/step count.
func (e *Engine) Balance(x []float64, opt SteadyOptions) (Outputs, int, error) {
	sp := trace.StartSpan("balance", "engine")
	defer sp.End()
	if opt.Tol == 0 {
		opt.Tol = 1e-9
	}
	if opt.Method == "" {
		opt.Method = "newton-raphson"
	}
	scales := e.scales()
	switch solver.Normalize(opt.Method) {
	case "newtonraphson", "newton":
		res := e.residual(scales)
		cols := solver.Sequential(res)
		if e.Parallel != nil {
			// Each Jacobian column runs a whole pass on its own fork, so
			// the columns' remote calls overlap as a pass's hooks do.
			cols = solver.Concurrent(e.begin, func() solver.Residual {
				return e.fork().residual(scales)
			})
		}
		xs := make([]float64, NumStates)
		for i := range xs {
			xs[i] = x[i] / scales[i]
		}
		nopt := balanceNewton
		nopt.Tol = opt.Tol
		iters, err := solver.Newton(res, cols, xs, nopt)
		if err != nil {
			return Outputs{}, iters, err
		}
		for i := range x {
			x[i] = xs[i] * scales[i]
		}
		out, err := e.Eval(0, x, make([]float64, NumStates))
		return out, iters, err
	case "rk4":
		steps, err := solver.MarchToSteady(e.System(), x, 5e-4, opt.Tol, 400000)
		if err != nil {
			return Outputs{}, steps, err
		}
		out, err := e.Eval(0, x, make([]float64, NumStates))
		return out, steps, err
	}
	return Outputs{}, 0, fmt.Errorf("engine: unknown steady-state method %q", opt.Method)
}

// residual is the balance's residual on e: the derivatives of the
// state xs (scaled by scales) as per-second fractional rates.
func (e *Engine) residual(scales []float64) solver.Residual {
	return func(xs, r []float64) error {
		xx := make([]float64, NumStates)
		for i := range xx {
			xx[i] = xs[i] * scales[i]
		}
		dx := make([]float64, NumStates)
		if _, err := e.Eval(0, xx, dx); err != nil {
			return err
		}
		// Scale residuals to per-second fractional rates.
		for i := range r {
			r[i] = dx[i] / scales[i]
		}
		// Shaft residuals use the power balance (accel times speed)
		// rather than the bare acceleration: torque is P/omega, so
		// d(omega)/dt vanishes as omega grows without bound, which
		// creates a spurious root at infinite speed that Newton can
		// fall into from far-off-design guesses.
		r[0] *= xs[0]
		r[1] *= xs[1]
		return nil
	}
}

// fork returns a copy of e for one concurrent evaluation pass. The
// pass mutates only the volumes, so the copy gets fresh ones holding
// the same values; components, schedules, design maps and hooks are
// pure or read-only during a pass and are shared. FAR is the one
// volume value that outlives BeginPass, and a pass with air flowing
// into every volume (each balance pass does) rewrites it in UpdateFAR
// before reading it, so a fork's pass is bit-identical to the same
// pass on e whatever pass e ran last.
func (e *Engine) fork() *Engine {
	f := *e
	for i, v := range e.Volumes {
		nv := *v
		f.Volumes[i] = &nv
	}
	return &f
}

// TransientOptions configures a transient run.
type TransientOptions struct {
	// Method is the transient integrator (default Modified Euler, the
	// method the paper's combined experiment used).
	Method solver.Method
	// Duration is the transient length, s (default 1.0, as in the
	// paper's experiments).
	Duration float64
	// Step is the integration step, s (default 0.5 ms).
	Step float64
	// Observe, when non-nil, is called after every step with the
	// outputs at that step. Evaluating them is one more pass; when it
	// fails, Transient fails.
	Observe func(t float64, out Outputs)
}

// Transient integrates the engine from the state in x for the
// configured duration, updating x in place, and returns the outputs at
// the final time.
func (e *Engine) Transient(x []float64, opt TransientOptions) (Outputs, error) {
	sp := trace.StartSpan("transient", "engine")
	defer sp.End()
	if opt.Duration == 0 {
		opt.Duration = 1.0
	}
	if opt.Step == 0 {
		opt.Step = 5e-4
	}
	integ, err := solver.New(opt.Method)
	if err != nil {
		return Outputs{}, err
	}
	var obs func(t float64, x []float64) error
	if opt.Observe != nil {
		obs = func(t float64, x []float64) error {
			out, err := e.Eval(t, x, nil)
			if err != nil {
				return fmt.Errorf("engine: observing t=%g: %w", t, err)
			}
			opt.Observe(t, out)
			return nil
		}
	}
	if err := solver.Integrate(integ, e.System(), x, 0, opt.Duration, opt.Step, obs); err != nil {
		return Outputs{}, err
	}
	return e.Eval(opt.Duration, x, make([]float64, NumStates))
}
