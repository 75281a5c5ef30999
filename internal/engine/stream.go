// Package engine implements TESS, the Turbofan Engine System
// Simulator: a complete one-dimensional transient simulation of a
// two-spool mixed-flow turbofan in the F100 class, the engine used to
// evaluate the prototype NPSS simulation executive.
//
// The model follows the inter-component-volume formulation standard in
// transient engine decks (and used by TESS): components are quasi-
// steady flow elements (compressors and turbines on performance maps,
// ducts and combustors as pressure-loss elements, a convergent
// nozzle), connected by control volumes whose pressure and temperature
// are the dynamic states, plus one rotational state per spool. Every
// component evaluates algebraically from its neighboring volume states
// each pass, which is exactly what makes the components separable into
// AVS dataflow modules with remote computations (see packages dataflow
// and core).
//
// Steady state is found by Newton-Raphson on the state derivatives or
// by fourth-order Runge-Kutta pseudo-transient marching; transients
// integrate with Modified Euler, Runge-Kutta, Adams, or Gear — the
// same solver menu the TESS system module offers through its widgets.
package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"npss/internal/gasdyn"
)

// Stream is the working fluid state entering or leaving a component:
// mass flow with total conditions and composition.
type Stream struct {
	W   float64 // mass flow, kg/s
	Pt  float64 // total pressure, Pa
	Tt  float64 // total temperature, K
	FAR float64 // fuel-air ratio
}

// H returns the stream's specific total enthalpy, J/kg (relative to
// the gasdyn reference temperature).
func (s Stream) H() float64 { return gasdyn.H(s.Tt, s.FAR) }

// Schedule is a transient control schedule: a piecewise-linear
// function of time built from breakpoints, the mechanism TESS provides
// for stator angles, fuel flow, and nozzle area during a transient
// ("specifying angles at certain times during the transient with TESS
// interpolating the angle at other times").
type Schedule struct {
	times  []float64
	values []float64
}

// NewSchedule builds a schedule from parallel breakpoint slices; times
// must be strictly increasing.
func NewSchedule(times, values []float64) (*Schedule, error) {
	if len(times) == 0 || len(times) != len(values) {
		return nil, fmt.Errorf("engine: schedule needs equal, non-empty breakpoint slices (%d vs %d)", len(times), len(values))
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			return nil, fmt.Errorf("engine: schedule times not increasing at %d", i)
		}
	}
	return &Schedule{
		times:  append([]float64(nil), times...),
		values: append([]float64(nil), values...),
	}, nil
}

// Constant builds a schedule that always returns v.
func Constant(v float64) *Schedule {
	s, _ := NewSchedule([]float64{0}, []float64{v})
	return s
}

// Step builds a schedule that ramps from v0 to v1 between t0 and t1.
func Step(v0, v1, t0, t1 float64) (*Schedule, error) {
	return NewSchedule([]float64{t0, t1}, []float64{v0, v1})
}

// ParseSchedule parses a transient control schedule written as
// "time:value, time:value, ..." (the type-in widget equivalent of
// TESS's specify-angles-at-certain-times interface, and the tess
// command's schedule flags). An empty string yields nil.
func ParseSchedule(text string) (*Schedule, error) {
	text = strings.TrimSpace(text)
	if text == "" {
		return nil, nil
	}
	var times, values []float64
	for _, part := range strings.Split(text, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("engine: schedule entry %q not of form time:value", part)
		}
		tt, err := strconv.ParseFloat(strings.TrimSpace(kv[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("engine: bad schedule time %q", kv[0])
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("engine: bad schedule value %q", kv[1])
		}
		times = append(times, tt)
		values = append(values, v)
	}
	return NewSchedule(times, values)
}

// At evaluates the schedule, clamping outside the breakpoint range.
func (s *Schedule) At(t float64) float64 {
	n := len(s.times)
	if t <= s.times[0] {
		return s.values[0]
	}
	if t >= s.times[n-1] {
		return s.values[n-1]
	}
	i := sort.SearchFloat64s(s.times, t) - 1
	f := (t - s.times[i]) / (s.times[i+1] - s.times[i])
	return s.values[i] + f*(s.values[i+1]-s.values[i])
}
