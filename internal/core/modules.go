// Package core is the prototype NPSS simulation executive: the
// combination of the AVS-style dataflow framework (package dataflow)
// and the Schooner heterogeneous RPC facility (package schooner) that
// the paper builds and evaluates. TESS engine components appear as
// modules with control-panel widgets; four of them — shaft, duct,
// combustor, and nozzle — are adapted so their computations execute
// remotely: each carries a radio-button widget selecting the machine
// and a type-in widget for the executable pathname, registers a line
// with the Manager from its compute function, and shuts its line down
// from its destroy function.
package core

import (
	"fmt"
	"sync"

	"npss/internal/dataflow"
	"npss/internal/engine"
	"npss/internal/npssproc"
	"npss/internal/schooner"
)

// Local is the machine widget option meaning "compute in-process".
const Local = "local"

// stationType is the dataflow port type for engine station data.
const stationType = "station"

// remoteModule is the common adaptation machinery: the Schooner line
// management the paper describes adding to each converted AVS module,
// and the setup constant of its remote set* call.
type remoteModule struct {
	exec     *Executive
	instance string
	path     string // default executable pathname

	mu          sync.Mutex
	line        *schooner.Line // nil when computing in-process
	machine     string
	startedPath string // the pathname the running line was started with

	setup setupConst
}

// addRemoteWidgets declares the two widgets of the adaptation: the
// radio buttons selecting the remote machine and the type-in holding
// the executable pathname.
func (r *remoteModule) addRemoteWidgets(s *dataflow.Spec) {
	options := append([]string{Local}, r.exec.Machines...)
	s.AddRadio("machine", options...)
	s.AddTypeIn("path", r.path)
}

// ensureStarted registers with the Manager and starts the remote
// process the first time the module computes with a non-local machine
// selection — the dynamic startup protocol of section 4.1.
func (r *remoteModule) ensureStarted(c *dataflow.Context) error {
	if r.instance == "" {
		r.instance = c.Instance()
	}
	machineSel, err := c.TextParam("machine")
	if err != nil {
		return err
	}
	path, err := c.TextParam("path")
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.line != nil && r.machine == machineSel && r.startedPath == path {
		return nil
	}
	// Back to in-process computation, or the machine or executable
	// changed (re-placement or code substitution through the widgets):
	// the old line, if any, shuts down.
	r.quit()
	if machineSel == Local {
		return nil
	}
	ln, err := r.exec.Client.ContactSchx(r.instance)
	if err != nil {
		return fmt.Errorf("core: %s: %w", r.instance, err)
	}
	if err := ln.StartRemote(path, machineSel); err != nil {
		ln.IQuit()
		return fmt.Errorf("core: %s: %w", r.instance, err)
	}
	if err := npssproc.RegisterImports(ln); err != nil {
		ln.IQuit()
		return fmt.Errorf("core: %s: %w", r.instance, err)
	}
	r.line, r.machine, r.startedPath = ln, machineSel, path
	return nil
}

// adapt is the code the paper adds to an adapted module's compute
// function: the Schooner registration, then invalidating the setup
// constant, which re-placement may change.
func (r *remoteModule) adapt(c *dataflow.Context) error {
	if err := r.ensureStarted(c); err != nil {
		return err
	}
	r.setup.reset()
	return nil
}

// quit shuts down the module's line, if any; r.mu is held.
func (r *remoteModule) quit() {
	if r.line != nil {
		r.line.IQuit()
		r.line = nil
	}
}

// Line returns the module's Schooner line, or nil when computing
// locally.
func (r *remoteModule) Line() *schooner.Line {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.line
}

// Remote reports the selected machine ("local" when in-process).
func (r *remoteModule) Remote() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.line == nil {
		return Local
	}
	return r.machine
}

// Destroy shuts down the module's line (sch_i_quit) and marks the
// module for re-execution, so a module still in the network starts its
// line again on the next run, as at first (section 4.1). A module
// removed from the network has no node left to mark.
func (r *remoteModule) Destroy() {
	r.mu.Lock()
	r.quit()
	r.mu.Unlock()
	if r.instance != "" && r.exec.Network != nil {
		_ = r.exec.Network.MarkDirty(r.instance)
	}
}

// setupConst is an adapted module's once-per-placement setup constant:
// the result of its remote set* call at the start of a steady-state
// computation. The lock covers only reading and filling it, never a
// remote call, so it cannot hold a participant of a virtual clock
// where the clock cannot see it. Two callers never race to fill one
// constant: each module's constant is read by one hook call per pass,
// Compute resets it only before a run's passes, and the first pass,
// which fills it, runs alone — Newton evaluates its initial residual
// before any concurrent Jacobian column.
type setupConst struct {
	mu   sync.Mutex
	v    float64
	have bool
}

// get returns the constant, calling fetch to fill it on first use.
func (c *setupConst) get(fetch func() (float64, error)) (float64, error) {
	c.mu.Lock()
	v, have := c.v, c.have
	c.mu.Unlock()
	if have {
		return v, nil
	}
	v, err := fetch()
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.v, c.have = v, true
	c.mu.Unlock()
	return v, nil
}

// reset invalidates the constant: re-placement may change it.
func (c *setupConst) reset() {
	c.mu.Lock()
	c.have = false
	c.mu.Unlock()
}

// InletModule models the engine inlet.
type InletModule struct{}

// Spec declares the inlet's ports and widgets.
func (m *InletModule) Spec(s *dataflow.Spec) {
	s.SetName("inlet")
	s.OutPort("out", stationType)
	s.AddDial("recovery", 0.8, 1.0, 0.995)
}

// Compute publishes the inlet's presence; the physics run inside the
// system module's engine evaluation.
func (m *InletModule) Compute(c *dataflow.Context) error {
	rec, err := c.FloatParam("recovery")
	if err != nil {
		return err
	}
	return c.Out("out", rec)
}

// Destroy is a no-op: the inlet has no remote computation.
func (m *InletModule) Destroy() {}

// CompressorModule models the fan or the high-pressure compressor.
type CompressorModule struct {
	Spool string // "low" (fan) or "high" (HPC)
}

// Spec declares the compressor's ports and widgets, including the
// browser widget selecting the performance map file, as in TESS.
func (m *CompressorModule) Spec(s *dataflow.Spec) {
	s.SetName("compressor")
	s.InPort("in", stationType)
	s.OutPort("out", stationType)
	s.AddBrowser("performance map", "/maps/"+m.Spool+"-compressor.map")
	s.AddTypeIn("stator schedule", "")
	s.AddDial("stator angle", 0.7, 1.3, 1.0)
}

// Compute forwards station data; physics run in the system module.
func (m *CompressorModule) Compute(c *dataflow.Context) error {
	return c.Out("out", c.In("in"))
}

// Destroy is a no-op.
func (m *CompressorModule) Destroy() {}

// TurbineModule models the high- or low-pressure turbine.
type TurbineModule struct {
	Spool string
}

// Spec declares ports and the map browser widget.
func (m *TurbineModule) Spec(s *dataflow.Spec) {
	s.SetName("turbine")
	s.InPort("in", stationType)
	s.OutPort("out", stationType)
	s.AddBrowser("performance map", "/maps/"+m.Spool+"-turbine.map")
}

// Compute forwards station data.
func (m *TurbineModule) Compute(c *dataflow.Context) error {
	return c.Out("out", c.In("in"))
}

// Destroy is a no-op.
func (m *TurbineModule) Destroy() {}

// BleedModule models the compressor bleed extraction.
type BleedModule struct{}

// Spec declares ports and the bleed fraction dial.
func (m *BleedModule) Spec(s *dataflow.Spec) {
	s.SetName("bleed")
	s.InPort("in", stationType)
	s.OutPort("out", stationType)
	s.AddDial("bleed fraction", 0, 0.10, 0.03)
}

// Compute forwards station data.
func (m *BleedModule) Compute(c *dataflow.Context) error {
	return c.Out("out", c.In("in"))
}

// Destroy is a no-op.
func (m *BleedModule) Destroy() {}

// MixingVolumeModule models the mixer volume joining core and bypass.
type MixingVolumeModule struct{}

// Spec declares two inputs (core and bypass) and one output.
func (m *MixingVolumeModule) Spec(s *dataflow.Spec) {
	s.SetName("mixing volume")
	s.InPort("core", stationType)
	s.InPort("bypass", stationType)
	s.OutPort("out", stationType)
	s.AddDial("volume", 0.05, 2.0, 0.70)
}

// Compute forwards station data.
func (m *MixingVolumeModule) Compute(c *dataflow.Context) error {
	return c.Out("out", c.In("core"))
}

// Destroy is a no-op.
func (m *MixingVolumeModule) Destroy() {}

// ShaftModule is one of the four adapted modules: its computation (the
// spool acceleration from the torque balance) can execute remotely.
// Its control panel matches the paper's Figure 2 description: widgets
// for moment inertia, spool speed, and spool speed-op.
type ShaftModule struct {
	remoteModule
	Spool string // "low" or "high"
}

// NewShaftModule builds a shaft module bound to an executive.
func NewShaftModule(exec *Executive, instance, spool string) *ShaftModule {
	return &ShaftModule{
		remoteModule: remoteModule{exec: exec, instance: instance, path: npssproc.ShaftPath},
		Spool:        spool,
	}
}

// Spec declares the shaft's ports and widgets.
func (m *ShaftModule) Spec(s *dataflow.Spec) {
	s.SetName("shaft")
	s.InPort("in", stationType)
	s.OutPort("out", stationType)
	s.AddDial("moment inertia", 0.5, 50, map[string]float64{"low": 9.0, "high": 4.5}[m.Spool])
	s.AddDial("spool speed", 1000, 20000, map[string]float64{"low": 10000, "high": 13500}[m.Spool])
	s.AddDial("spool speed-op", 0.5, 1.1, 1.0)
	m.addRemoteWidgets(s)
}

// Compute performs the Schooner registration when a remote machine is
// selected and forwards station data.
func (m *ShaftModule) Compute(c *dataflow.Context) error {
	if err := m.adapt(c); err != nil {
		return err
	}
	return c.Out("out", c.In("in"))
}

// shaftCall builds one remote shaft invocation, making the
// once-per-placement setshaft call (the start of a steady-state
// computation) on first use. The paper's shaft signature carries
// energy (power) terms: each torque times the spool speed.
func (m *ShaftModule) shaftCall(ln *schooner.Line, qTur, qCom, inertia, omega float64) (schooner.CrossCall, error) {
	ecorr, err := m.setup.get(func() (float64, error) {
		return npssproc.Setshaft(ln, []float64{0, 0, 0, 0}, 1, []float64{0, 0, 0, 0}, 1)
	})
	if err != nil {
		return schooner.CrossCall{}, err
	}
	return npssproc.ShaftCall(ln,
		[]float64{qCom * omega, 0, 0, 0}, 1,
		[]float64{qTur * omega, 0, 0, 0}, 1,
		ecorr, omega, inertia)
}

// Hook returns the engine shaft hook routed through this module's
// line, or nil when the module computes in-process. The placement is
// read once: a line that quits during the run fails the calls after.
func (m *ShaftModule) Hook() func(qTur, qCom, inertia, omega float64) (float64, error) {
	ln := m.Line()
	if ln == nil {
		return nil
	}
	return func(qTur, qCom, inertia, omega float64) (float64, error) {
		cc, err := m.shaftCall(ln, qTur, qCom, inertia, omega)
		if err != nil {
			return 0, err
		}
		return npssproc.ShaftResults(ln.Call(cc.Name, cc.Args...))
	}
}

// shaftPairHook coalesces the two spools' shaft computations, or is nil
// unless both modules compute remotely: their shaft calls dispatch
// together through Client.CallBatch, so two calls whose processes
// share a machine (the paper's combined test puts both shafts on the
// RS/6000) cost one wire round trip. The sub-calls carry exactly the
// messages the separate Shaft calls would, so results are
// bit-identical.
func (x *Executive) shaftPairHook(low, high *ShaftModule) func(qTurL, qComL, inertiaL, omegaL, qTurH, qComH, inertiaH, omegaH float64) (float64, float64, error) {
	lnL, lnH := low.Line(), high.Line()
	if lnL == nil || lnH == nil {
		return nil
	}
	return func(qTurL, qComL, inertiaL, omegaL, qTurH, qComH, inertiaH, omegaH float64) (float64, float64, error) {
		ccL, err := low.shaftCall(lnL, qTurL, qComL, inertiaL, omegaL)
		if err != nil {
			return 0, 0, err
		}
		ccH, err := high.shaftCall(lnH, qTurH, qComH, inertiaH, omegaH)
		if err != nil {
			return 0, 0, err
		}
		pends := x.Client.CallBatch([]schooner.CrossCall{ccL, ccH})
		dL, err := npssproc.ShaftResults(pends[0].Wait())
		if err != nil {
			return 0, 0, err
		}
		dH, err := npssproc.ShaftResults(pends[1].Wait())
		return dL, dH, err
	}
}

// DuctModule is an adapted module: a pressure-loss duct whose flow
// computation can execute remotely.
type DuctModule struct {
	remoteModule
	Station string // engine duct id: "bypass", "mixer-core", ...
}

// NewDuctModule builds a duct module bound to an executive.
func NewDuctModule(exec *Executive, instance, station string) *DuctModule {
	return &DuctModule{
		remoteModule: remoteModule{exec: exec, instance: instance, path: npssproc.DuctPath},
		Station:      station,
	}
}

// Spec declares the duct's ports and widgets. The augmentor duct
// additionally carries the afterburner fuel controls.
func (m *DuctModule) Spec(s *dataflow.Spec) {
	s.SetName("duct")
	s.InPort("in", stationType)
	s.OutPort("out", stationType)
	if m.Station == "mixer-core" {
		s.AddDial("aug fuel", 0, 6, 0)
		s.AddTypeIn("aug fuel schedule", "")
	}
	m.addRemoteWidgets(s)
}

// Compute performs Schooner registration and forwards station data.
func (m *DuctModule) Compute(c *dataflow.Context) error {
	if err := m.adapt(c); err != nil {
		return err
	}
	return c.Out("out", c.In("in"))
}

// Hook returns the duct flow computation routed through this module's
// line, or nil when the module computes in-process. The design
// conditions are used by the remote setduct call that sizes the
// orifice constant on first use.
func (m *DuctModule) Hook(des engine.DuctDesign) func(k, pUp, tUp, far, pDown float64) (float64, error) {
	ln := m.Line()
	if ln == nil {
		return nil
	}
	return func(k, pUp, tUp, far, pDown float64) (float64, error) {
		xkd, err := m.setup.get(func() (float64, error) {
			return npssproc.Setduct(ln, des.W, des.P, des.T, des.FAR, des.DP)
		})
		if err != nil {
			return 0, err
		}
		return npssproc.Duct(ln, xkd, pUp, tUp, far, pDown)
	}
}

// CombustorModule is an adapted module: the combustor computation can
// execute remotely. Its widgets include the fuel flow and the
// transient control schedules TESS provides for the combustor.
type CombustorModule struct {
	remoteModule
}

// NewCombustorModule builds the combustor module.
func NewCombustorModule(exec *Executive, instance string) *CombustorModule {
	return &CombustorModule{
		remoteModule: remoteModule{exec: exec, instance: instance, path: npssproc.CombPath},
	}
}

// Spec declares the combustor's ports and widgets.
func (m *CombustorModule) Spec(s *dataflow.Spec) {
	s.SetName("combustor")
	s.InPort("in", stationType)
	s.OutPort("out", stationType)
	// Zero means "use the design-point fuel flow".
	s.AddDial("fuel flow", 0, 10, 0)
	s.AddTypeIn("fuel schedule", "")
	s.AddTypeIn("stator schedule", "")
	s.AddDial("efficiency", 0.8, 1.0, 0.995)
	m.addRemoteWidgets(s)
}

// Compute performs Schooner registration and forwards station data.
func (m *CombustorModule) Compute(c *dataflow.Context) error {
	if err := m.adapt(c); err != nil {
		return err
	}
	return c.Out("out", c.In("in"))
}

// Hook returns the combustor computation routed through this module's
// line, or nil when the module computes in-process.
func (m *CombustorModule) Hook(des engine.CombDesign) func(k, pUp, tUp, farUp, pDown, wf, eta, stator float64) (float64, float64, float64, error) {
	ln := m.Line()
	if ln == nil {
		return nil
	}
	return func(k, pUp, tUp, farUp, pDown, wf, eta, stator float64) (float64, float64, float64, error) {
		xkc, err := m.setup.get(func() (float64, error) {
			return npssproc.Setcomb(ln, des.W, des.P, des.T, des.DP)
		})
		if err != nil {
			return 0, 0, 0, err
		}
		return npssproc.Comb(ln, xkc, pUp, tUp, farUp, pDown, wf, eta, stator)
	}
}

// NozzleModule is an adapted module: the nozzle computation can
// execute remotely. Its widgets include the area schedule (the
// transient control schedule TESS provides for the nozzle).
type NozzleModule struct {
	remoteModule
}

// NewNozzleModule builds the nozzle module.
func NewNozzleModule(exec *Executive, instance string) *NozzleModule {
	return &NozzleModule{
		remoteModule: remoteModule{exec: exec, instance: instance, path: npssproc.NozlPath},
	}
}

// Spec declares the nozzle's ports and widgets.
func (m *NozzleModule) Spec(s *dataflow.Spec) {
	s.SetName("nozzle")
	s.InPort("in", stationType)
	s.AddTypeIn("area schedule", "")
	m.addRemoteWidgets(s)
}

// Compute performs Schooner registration.
func (m *NozzleModule) Compute(c *dataflow.Context) error { return m.adapt(c) }

// Hook returns the nozzle computation routed through this module's
// line, or nil when the module computes in-process. The remote setnozl
// sizes the throat area once from design conditions; a mismatch
// between the engine's area and the remote sizing would indicate a
// marshaling defect, so the remote value is used.
func (m *NozzleModule) Hook(des engine.NozzleDesign) func(a8, pt, tt, far, pamb, stator float64) (float64, float64, error) {
	ln := m.Line()
	if ln == nil {
		return nil
	}
	return func(a8, pt, tt, far, pamb, stator float64) (float64, float64, error) {
		a, err := m.setup.get(func() (float64, error) {
			return npssproc.Setnozl(ln, des.W, des.P, des.T, des.FAR, des.Pamb)
		})
		if err != nil {
			return 0, 0, err
		}
		return npssproc.Nozl(ln, a, pt, tt, far, pamb, stator)
	}
}

// SystemModule provides overall control of the simulation run: the
// solution method widgets of the TESS system module (steady state:
// Newton-Raphson or Fourth-order Runge-Kutta; transient: Modified
// Euler, Fourth-order Runge-Kutta, Adams, or Gear), the transient
// length, and the flight condition.
type SystemModule struct{}

// Spec declares the system module's widgets.
func (m *SystemModule) Spec(s *dataflow.Spec) {
	s.SetName("system")
	s.AddChoice("steady method", "Newton-Raphson", "Fourth-order Runge-Kutta")
	s.AddChoice("transient method", "Modified Euler", "Fourth-order Runge-Kutta", "Adams", "Gear")
	s.AddDial("transient seconds", 0.01, 30, 1.0)
	s.AddDial("time step", 1e-4, 0.05, 5e-4)
	s.AddDial("altitude", 0, 20000, 0)
	s.AddDial("mach", 0, 2.2, 0)
}

// Compute is a no-op: the run is driven by Executive.Run.
func (m *SystemModule) Compute(c *dataflow.Context) error { return nil }

// Destroy is a no-op.
func (m *SystemModule) Destroy() {}
