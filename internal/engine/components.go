package engine

import (
	"fmt"
	"math"

	"npss/internal/cmap"
	"npss/internal/gasdyn"
)

// This file holds the component computations. The four computations
// the paper adapts to execute remotely through Schooner — shaft, duct,
// combustor, and nozzle — are standalone pure functions here
// (ShaftAccel, DuctFlow, CombustorCompute, NozzleCompute), so that the
// same code serves three masters: direct calls in the local engine,
// AVS-style dataflow modules, and Schooner procedure processes.

// Inlet models ram recovery: free-stream total conditions reduced by a
// pressure recovery factor.
type Inlet struct {
	Name     string
	Recovery float64 // total pressure recovery, ~0.99
}

// Compute returns the fan-face conditions for the given flight state.
func (in *Inlet) Compute(alt, mach float64) (p2, t2 float64) {
	ps, ts := gasdyn.StandardAtmosphere(alt)
	pt, tt := gasdyn.RamTotal(ps, ts, mach)
	return pt * in.Recovery, tt
}

// Compressor is a map-scaled compressor (the fan and the HPC). Its
// operating point is found by inverting the map: given shaft speed and
// the pressure ratio imposed by the surrounding volumes, the beta line
// and hence flow and efficiency follow.
type Compressor struct {
	Name string
	Map  *cmap.CompressorMap
	// Design-point scaling.
	WcDes  float64 // corrected flow at design, kg/s
	PRDes  float64 // design pressure ratio
	EffDes float64 // design adiabatic efficiency
	NDes   float64 // design mechanical speed, rad/s
}

// CompressorResult is one operating-point evaluation.
type CompressorResult struct {
	W      float64 // actual mass flow, kg/s
	Tt     float64 // exit total temperature, K
	Power  float64 // shaft power absorbed, W
	Torque float64 // shaft torque absorbed, N m
	Beta   float64 // map beta line (0 surge .. 1 choke)
	Eff    float64 // adiabatic efficiency
	PR     float64 // achieved pressure ratio
}

// Compute evaluates the compressor between an inlet at (pIn, tIn, far)
// and an exit volume at pOut, with shaft speed omega (rad/s). The
// stator parameter scales map flow capacity (1.0 = nominal schedule),
// modeling variable stator vanes.
func (c *Compressor) Compute(pIn, tIn, far, pOut, omega, stator float64) (CompressorResult, error) {
	var res CompressorResult
	if pIn <= 0 || tIn <= 0 || pOut <= 0 || omega <= 0 {
		return res, fmt.Errorf("engine: %s: non-physical inputs p=%g t=%g pout=%g omega=%g", c.Name, pIn, tIn, pOut, omega)
	}
	theta := tIn / gasdyn.TRef
	delta := pIn / gasdyn.PRef
	nc := omega / c.NDes / math.Sqrt(theta)
	pr := pOut / pIn
	prFactor := (pr - 1) / (c.PRDes - 1)
	beta := c.Map.BetaForPR(nc, prFactor)
	wcFac, _, effFac := c.Map.Lookup(nc, beta)
	wc := wcFac * c.WcDes * stator
	res.W = wc * delta / math.Sqrt(theta)
	res.Beta = beta
	res.Eff = effFac * c.EffDes
	res.PR = pr
	if res.Eff < 0.05 {
		res.Eff = 0.05
	}
	// Exit temperature from the isentropic rise divided by efficiency.
	tIdeal, err := gasdyn.IsentropicT(tIn, pr, far)
	if err != nil {
		return res, fmt.Errorf("engine: %s: %w", c.Name, err)
	}
	dhIdeal := gasdyn.H(tIdeal, far) - gasdyn.H(tIn, far)
	dh := dhIdeal / res.Eff
	tt, err := gasdyn.TFromH(gasdyn.H(tIn, far)+dh, far)
	if err != nil {
		return res, fmt.Errorf("engine: %s: %w", c.Name, err)
	}
	res.Tt = tt
	res.Power = res.W * dh
	res.Torque = res.Power / omega
	return res, nil
}

// Turbine is a map-scaled turbine (HPT and LPT). Its flow follows from
// the expansion ratio imposed by the surrounding volumes.
type Turbine struct {
	Name   string
	Map    *cmap.TurbineMap
	WcDes  float64 // corrected flow at design (inlet conditions), kg/s
	PRDes  float64 // design expansion ratio (pIn/pOut)
	EffDes float64
	NDes   float64 // design mechanical speed, rad/s
}

// TurbineResult is one operating-point evaluation.
type TurbineResult struct {
	W      float64
	Tt     float64 // exit total temperature
	Power  float64 // shaft power delivered, W
	Torque float64 // shaft torque delivered, N m
	Eff    float64
	PR     float64 // achieved expansion ratio
}

// Compute evaluates the turbine between an inlet volume (pIn, tIn,
// far) and exit volume pressure pOut at shaft speed omega.
func (t *Turbine) Compute(pIn, tIn, far, pOut, omega float64) (TurbineResult, error) {
	var res TurbineResult
	if pIn <= 0 || tIn <= 0 || pOut <= 0 || omega <= 0 {
		return res, fmt.Errorf("engine: %s: non-physical inputs", t.Name)
	}
	pr := pIn / pOut
	if pr < 1.001 {
		pr = 1.001 // no reverse flow through a turbine; hold at idle expansion
	}
	theta := tIn / gasdyn.TRef
	delta := pIn / gasdyn.PRef
	nc := omega / t.NDes / math.Sqrt(theta)
	wcFac, effFac := t.Map.Lookup(nc, pr/t.PRDes)
	res.W = wcFac * t.WcDes * delta / math.Sqrt(theta)
	res.Eff = effFac * t.EffDes
	res.PR = pr
	tIdeal, err := gasdyn.IsentropicT(tIn, 1/pr, far)
	if err != nil {
		return res, fmt.Errorf("engine: %s: %w", t.Name, err)
	}
	dhIdeal := gasdyn.H(tIn, far) - gasdyn.H(tIdeal, far)
	dh := dhIdeal * res.Eff
	tt, err := gasdyn.TFromH(gasdyn.H(tIn, far)-dh, far)
	if err != nil {
		return res, fmt.Errorf("engine: %s: %w", t.Name, err)
	}
	res.Tt = tt
	res.Power = res.W * dh
	res.Torque = res.Power / omega
	return res, nil
}

// DuctFlow is the duct component computation (one of the four adapted
// to run remotely): a pressure-loss flow element between two volumes,
// modeled as an incompressible orifice W = K sqrt(rho dP). Reverse
// pressure gradients give zero flow (ducts do not pump).
func DuctFlow(k, pUp, tUp, far, pDown float64) (float64, error) {
	if k <= 0 || pUp <= 0 || tUp <= 0 {
		return 0, fmt.Errorf("engine: duct: non-physical inputs k=%g p=%g t=%g", k, pUp, tUp)
	}
	dp := pUp - pDown
	if dp <= 0 {
		return 0, nil
	}
	rho := pUp / (gasdyn.R(far) * tUp)
	return k * math.Sqrt(rho*dp), nil
}

// DuctSizeK sizes a duct's orifice constant so it passes wDes with
// pressure drop dpDes at the given upstream conditions.
func DuctSizeK(wDes, pUp, tUp, far, dpDes float64) (float64, error) {
	if wDes <= 0 || dpDes <= 0 || pUp <= 0 || tUp <= 0 {
		return 0, fmt.Errorf("engine: duct sizing needs positive design values")
	}
	rho := pUp / (gasdyn.R(far) * tUp)
	return wDes / math.Sqrt(rho*dpDes), nil
}

// CombustorCompute is the combustor component computation (adapted to
// run remotely): a pressure-loss flow element that adds fuel heat. It
// returns the air+fuel flow delivered downstream, the exit total
// temperature, and the exit fuel-air ratio. The stator parameter
// models the transient control schedule on the combustor (a fuel
// distribution factor scaling effective heat release).
func CombustorCompute(k, pUp, tUp, farUp, pDown, wf, eta, stator float64) (w, tOut, farOut float64, err error) {
	wAir, err := DuctFlow(k, pUp, tUp, farUp, pDown)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("engine: combustor: %w", err)
	}
	if wf < 0 {
		return 0, 0, 0, fmt.Errorf("engine: combustor: negative fuel flow %g", wf)
	}
	if wAir <= 0 {
		// No through-flow: nothing burns.
		return 0, tUp, farUp, nil
	}
	farOut = gasdyn.CombustionFAR(wAir, farUp, wf)
	if farOut > gasdyn.FARStoich {
		return 0, 0, 0, fmt.Errorf("engine: combustor: fuel-air ratio %.4f exceeds stoichiometric %.4f", farOut, gasdyn.FARStoich)
	}
	hIn := gasdyn.H(tUp, farUp)
	hOut := gasdyn.CombustorExitH(wAir, hIn, wf, eta*stator)
	tOut, err = gasdyn.TFromH(hOut, farOut)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("engine: combustor: %w", err)
	}
	return wAir + wf, tOut, farOut, nil
}

// NozzleCompute is the nozzle component computation (adapted to run
// remotely): a convergent nozzle discharging from the final volume to
// ambient. The stator parameter scales the effective throat area
// (nozzle area schedule).
func NozzleCompute(a8, pt, tt, far, pamb, stator float64) (w, thrust float64, err error) {
	if a8 <= 0 || pamb <= 0 {
		return 0, 0, fmt.Errorf("engine: nozzle: non-physical inputs a8=%g pamb=%g", a8, pamb)
	}
	area := a8 * stator
	w = gasdyn.NozzleFlow(pt, tt, pamb, area, far)
	thrust = gasdyn.NozzleThrust(pt, tt, pamb, area, far)
	return w, thrust, nil
}

// ShaftAccel is the shaft component computation (adapted to run
// remotely): the rotational dynamics d(omega)/dt = (Q_turbine -
// Q_compressor) / I. This mirrors the paper's npss-shaft procedure,
// whose UTS export takes the compressor and turbine energy terms, the
// correction factor from setshaft, the spool speed xspool, and the
// moment of inertia xmyi, returning the speed derivative dxspl.
func ShaftAccel(qTur, qCom, inertia, omega float64) (float64, error) {
	if inertia <= 0 {
		return 0, fmt.Errorf("engine: shaft: non-positive inertia %g", inertia)
	}
	if omega <= 0 {
		return 0, fmt.Errorf("engine: shaft: non-positive spool speed %g", omega)
	}
	return (qTur - qCom) / inertia, nil
}
