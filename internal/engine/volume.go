package engine

import (
	"fmt"

	"npss/internal/gasdyn"
)

// Volume is an inter-component control volume: the source of the
// engine's pressure and temperature dynamics. Its states are total
// pressure P and temperature T of the gas it holds; its derivatives
// come from the mass and energy imbalance of the attached flow
// elements.
//
// The composition (fuel-air ratio) is carried quasi-steadily: it is
// set each evaluation pass from the exact air/fuel split of the
// inflows rather than integrated as a state, which keeps the state
// vector to [P, T] per volume.
type Volume struct {
	// Name labels the volume in diagnostics ("combustor exit").
	Name string
	// Vol is the physical volume, m^3; it sets the time constant.
	Vol float64
	// P and T are the current states (Pa, K), maintained by the
	// engine's state vector.
	P, T float64
	// FAR is the quasi-steady composition.
	FAR float64

	// Per-pass accumulators, reset by BeginPass.
	win, wout float64
	hin       float64 // sum of W*h over inflows
	airIn     float64 // air component of the inflows
	fuelIn    float64 // burned-fuel component of the inflows
}

// BeginPass clears the pass accumulators.
func (v *Volume) BeginPass() {
	v.win, v.wout, v.hin, v.airIn, v.fuelIn = 0, 0, 0, 0, 0
}

// AddIn records a stream flowing into the volume.
func (v *Volume) AddIn(s Stream) {
	v.addMass(s.W, s.FAR)
	v.hin += s.W * s.H()
}

// AddInEnthalpy records an inflow specified by mass flow, specific
// enthalpy, and composition (used by the combustor, whose exit
// enthalpy includes the fuel heat release).
func (v *Volume) AddInEnthalpy(w, h, far float64) {
	v.addMass(w, far)
	v.hin += w * h
}

// AddFuel records direct fuel injection with heat release hRelease
// J/kg of fuel — the augmentor (afterburner) burning in the volume.
func (v *Volume) AddFuel(wf, hRelease float64) {
	v.win += wf
	v.fuelIn += wf
	v.hin += wf * hRelease
}

// addMass splits a stream into its air and burned-fuel components.
func (v *Volume) addMass(w, far float64) {
	v.win += w
	air := w / (1 + far)
	v.airIn += air
	v.fuelIn += w - air
}

// AddOut records a stream drawn from the volume. Outflow leaves at the
// volume's own temperature and composition, so only the magnitude is
// needed.
func (v *Volume) AddOut(w float64) {
	v.wout += w
}

// UpdateFAR sets the quasi-steady composition from this pass's
// inflows (call after all AddIn calls, before reading FAR downstream).
func (v *Volume) UpdateFAR() {
	if v.airIn > 0 {
		v.FAR = v.fuelIn / v.airIn
	}
}

// Derivatives computes dP/dt and dT/dt from the pass accumulators:
//
//	dT/dt = [ sum Win (h_in - h(T)) + R T (Win - Wout) ] / (m cv)
//	dP/dt = P (dm/dt / m + dT/dt / T)
//
// the standard lumped-volume energy and mass balance with
// temperature-dependent properties.
func (v *Volume) Derivatives() (dP, dT float64, err error) {
	if v.P <= 0 || v.T <= 0 || v.Vol <= 0 {
		return 0, 0, fmt.Errorf("engine: volume %q in non-physical state P=%g T=%g", v.Name, v.P, v.T)
	}
	r := gasdyn.R(v.FAR)
	cp := gasdyn.Cp(v.T, v.FAR)
	cv := cp - r
	m := v.P * v.Vol / (r * v.T)
	hVol := gasdyn.H(v.T, v.FAR)
	dmdt := v.win - v.wout
	// Energy: hin already sums W*h over inflows.
	dT = (v.hin - v.win*hVol + r*v.T*dmdt) / (m * cv)
	dP = v.P * (dmdt/m + dT/v.T)
	return dP, dT, nil
}
