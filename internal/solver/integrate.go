package solver

import (
	"fmt"
	"math"
)

// System is an ODE right-hand side: it fills dx with dx/dt at (t, x).
type System func(t float64, x, dx []float64) error

// Integrator advances an ODE state one step of size h. Multi-step
// methods carry history, so an Integrator instance must be used for
// one trajectory at a time, front to back.
type Integrator interface {
	// Name is the widget label of the method, matching the paper's
	// solver menu.
	Name() string
	// Step advances x in place from t to t+h.
	Step(f System, t float64, x []float64, h float64) error
	// Reset clears any multi-step history (after a discontinuity).
	Reset()
}

// Method enumerates the transient solution methods TESS offers.
type Method int

const (
	// ModifiedEuler is the 2nd-order Heun predictor-corrector (the
	// paper's experiments call it Improved Euler).
	ModifiedEuler Method = iota
	// RK4 is the classical fourth-order Runge-Kutta method.
	RK4
	// Adams is the 4th-order Adams-Bashforth-Moulton
	// predictor-corrector with Runge-Kutta starting steps.
	Adams
	// Gear is the stiffly stable 2nd-order backward differentiation
	// formula with a Newton inner iteration.
	Gear
)

// String names the method as in the TESS widget.
func (m Method) String() string {
	switch m {
	case ModifiedEuler:
		return "Modified Euler"
	case RK4:
		return "Fourth-order Runge-Kutta"
	case Adams:
		return "Adams"
	case Gear:
		return "Gear"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// MethodByName resolves a widget label ("modified-euler", "rk4",
// "adams", "gear"; case-insensitive, with a few aliases).
func MethodByName(name string) (Method, error) {
	switch Normalize(name) {
	case "modifiedeuler", "improvedeuler", "euler", "heun":
		return ModifiedEuler, nil
	case "rk4", "rungekutta", "fourthorderrungekutta":
		return RK4, nil
	case "adams", "adamsbashforthmoulton", "abm":
		return Adams, nil
	case "gear", "bdf", "bdf2":
		return Gear, nil
	}
	return 0, fmt.Errorf("solver: unknown method %q", name)
}

// Normalize folds a method label to the key its resolvers match:
// lower case, letters and digits only, so "Newton-Raphson" reads
// "newtonraphson" and "Fourth-order Runge-Kutta"
// "fourthorderrungekutta".
func Normalize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'A' && c <= 'Z':
			out = append(out, c-'A'+'a')
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			out = append(out, c)
		}
	}
	return string(out)
}

// New creates an integrator instance for the method.
func New(m Method) (Integrator, error) {
	switch m {
	case ModifiedEuler:
		return &modifiedEuler{}, nil
	case RK4:
		return &rk4{}, nil
	case Adams:
		return &adams{}, nil
	case Gear:
		return &gear{}, nil
	}
	return nil, fmt.Errorf("solver: unknown method %d", int(m))
}

// Methods lists all supported transient methods.
func Methods() []Method { return []Method{ModifiedEuler, RK4, Adams, Gear} }

// modifiedEuler (Heun): predict with forward Euler, correct with the
// trapezoid rule.
type modifiedEuler struct {
	k1, k2, xp []float64
}

func (m *modifiedEuler) Name() string { return ModifiedEuler.String() }
func (m *modifiedEuler) Reset()       {}

func (m *modifiedEuler) Step(f System, t float64, x []float64, h float64) error {
	n := len(x)
	m.k1 = grow(m.k1, n)
	m.k2 = grow(m.k2, n)
	m.xp = grow(m.xp, n)
	if err := f(t, x, m.k1); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		m.xp[i] = x[i] + h*m.k1[i]
	}
	if err := f(t+h, m.xp, m.k2); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		x[i] += h / 2 * (m.k1[i] + m.k2[i])
	}
	return nil
}

// rk4 is the classical fourth-order Runge-Kutta method.
type rk4 struct {
	k1, k2, k3, k4, xt []float64
}

func (r *rk4) Name() string { return RK4.String() }
func (r *rk4) Reset()       {}

func (r *rk4) Step(f System, t float64, x []float64, h float64) error {
	n := len(x)
	r.k1 = grow(r.k1, n)
	r.k2 = grow(r.k2, n)
	r.k3 = grow(r.k3, n)
	r.k4 = grow(r.k4, n)
	r.xt = grow(r.xt, n)
	if err := f(t, x, r.k1); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		r.xt[i] = x[i] + h/2*r.k1[i]
	}
	if err := f(t+h/2, r.xt, r.k2); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		r.xt[i] = x[i] + h/2*r.k2[i]
	}
	if err := f(t+h/2, r.xt, r.k3); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		r.xt[i] = x[i] + h*r.k3[i]
	}
	if err := f(t+h, r.xt, r.k4); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		x[i] += h / 6 * (r.k1[i] + 2*r.k2[i] + 2*r.k3[i] + r.k4[i])
	}
	return nil
}

// adams is the 4th-order Adams-Bashforth-Moulton predictor-corrector.
// The first three steps are taken with RK4 to build the derivative
// history; thereafter AB4 predicts and AM4 corrects once (PECE).
type adams struct {
	hist   [][]float64 // derivative history, most recent last
	lastH  float64
	rk     rk4
	xp, dp []float64
}

func (a *adams) Name() string { return Adams.String() }
func (a *adams) Reset()       { a.hist = nil }

func (a *adams) Step(f System, t float64, x []float64, h float64) error {
	n := len(x)
	if h != a.lastH {
		// Fixed-step method: a step-size change invalidates history.
		a.hist = nil
		a.lastH = h
	}
	d := make([]float64, n)
	if err := f(t, x, d); err != nil {
		return err
	}
	a.hist = append(a.hist, d)
	if len(a.hist) > 4 {
		a.hist = a.hist[len(a.hist)-4:]
	}
	if len(a.hist) < 4 {
		// Build history with RK4 starter steps.
		return a.rk.Step(f, t, x, h)
	}
	a.xp = grow(a.xp, n)
	a.dp = grow(a.dp, n)
	f3 := a.hist[3] // f(t)
	f2 := a.hist[2] // f(t-h)
	f1 := a.hist[1]
	f0 := a.hist[0]
	// AB4 predictor.
	for i := 0; i < n; i++ {
		a.xp[i] = x[i] + h/24*(55*f3[i]-59*f2[i]+37*f1[i]-9*f0[i])
	}
	if err := f(t+h, a.xp, a.dp); err != nil {
		return err
	}
	// AM4 corrector.
	for i := 0; i < n; i++ {
		x[i] += h / 24 * (9*a.dp[i] + 19*f3[i] - 5*f2[i] + f1[i])
	}
	return nil
}

// gear is the 2nd-order backward differentiation formula (BDF2) with
// a fixed-point/Newton-free inner iteration accelerated by functional
// relaxation; the first step uses implicit trapezoid started from a
// Modified Euler predictor. BDF's stiff stability is what Gear's
// method brings to engine transients with fast volume dynamics.
type gear struct {
	prev     []float64 // x at t-h
	havePrev bool
	lastH    float64
	me       modifiedEuler
	xg, dg   []float64
}

func (g *gear) Name() string { return Gear.String() }
func (g *gear) Reset()       { g.havePrev = false }

func (g *gear) Step(f System, t float64, x []float64, h float64) error {
	n := len(x)
	if h != g.lastH {
		g.havePrev = false
		g.lastH = h
	}
	if !g.havePrev {
		// First step: save x(t), advance with Modified Euler.
		g.prev = append(g.prev[:0], x...)
		g.havePrev = true
		return g.me.Step(f, t, x, h)
	}
	g.xg = grow(g.xg, n)
	g.dg = grow(g.dg, n)
	// BDF2: x(t+h) = (4 x(t) - x(t-h))/3 + (2h/3) f(t+h, x(t+h)).
	// Solve by damped fixed-point iteration from an explicit guess.
	xn := append([]float64(nil), x...) // x(t)
	if err := f(t, x, g.dg); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		g.xg[i] = x[i] + h*g.dg[i] // Euler guess
	}
	const maxIter = 60
	for iter := 0; iter < maxIter; iter++ {
		if err := f(t+h, g.xg, g.dg); err != nil {
			return err
		}
		maxRel := 0.0
		for i := 0; i < n; i++ {
			next := (4*xn[i]-g.prev[i])/3 + 2*h/3*g.dg[i]
			diff := math.Abs(next - g.xg[i])
			scale := math.Max(math.Abs(next), 1e-8)
			if diff/scale > maxRel {
				maxRel = diff / scale
			}
			// Damped update for robustness on stiff systems.
			g.xg[i] = 0.5*g.xg[i] + 0.5*next
		}
		if maxRel < 1e-12 {
			break
		}
	}
	g.prev = append(g.prev[:0], xn...)
	copy(x, g.xg)
	return nil
}

func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Integrate advances the system from t0 to t1 in fixed steps of h
// (the final step is shortened to land exactly on t1), calling
// observe (when non-nil) after every step with the current time and
// state. An error from observe ends the integration and is returned.
func Integrate(g Integrator, f System, x []float64, t0, t1, h float64,
	observe func(t float64, x []float64) error) error {
	if h <= 0 {
		return fmt.Errorf("solver: step size %g must be positive", h)
	}
	t := t0
	for t < t1-1e-12 {
		step := h
		if t+step > t1 {
			step = t1 - t
		}
		if err := g.Step(f, t, x, step); err != nil {
			return fmt.Errorf("solver: %s at t=%g: %w", g.Name(), t, err)
		}
		t += step
		if observe != nil {
			if err := observe(t, x); err != nil {
				return err
			}
		}
	}
	return nil
}

// MarchToSteady integrates dx/dt = f(x) with RK4 pseudo-time steps
// until the max-norm of the scaled derivative falls below tol: the
// "fourth-order Runge-Kutta" steady-state option of the TESS system
// module. Returns the number of steps taken.
func MarchToSteady(f System, x []float64, h, tol float64, maxSteps int) (int, error) {
	r := &rk4{}
	dx := make([]float64, len(x))
	for step := 1; step <= maxSteps; step++ {
		if err := r.Step(f, 0, x, h); err != nil {
			return step, err
		}
		if err := f(0, x, dx); err != nil {
			return step, err
		}
		maxRel := 0.0
		for i := range dx {
			scale := math.Max(math.Abs(x[i]), 1e-8)
			if rel := math.Abs(dx[i]) * h / scale; rel > maxRel {
				maxRel = rel
			}
		}
		if maxRel < tol {
			return step, nil
		}
	}
	return maxSteps, fmt.Errorf("solver: pseudo-transient march did not settle in %d steps", maxSteps)
}
