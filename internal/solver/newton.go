package solver

import (
	"fmt"
	"math"
)

// Residual evaluates the residual vector r(x) of a nonlinear system;
// len(r) == len(x).
type Residual func(x, r []float64) error

// NewtonOptions tunes the Newton-Raphson solve.
type NewtonOptions struct {
	// Tol is the convergence tolerance on the max-norm of the scaled
	// residual. Default 1e-10.
	Tol float64
	// MaxIter bounds the iteration count. Default 50.
	MaxIter int
	// FDRel is the relative finite-difference perturbation used to
	// build the Jacobian. Default 1e-7.
	FDRel float64
	// Relax under-relaxes the update (1 = full Newton). Default 1.
	Relax float64
	// MaxStep caps the relative change of any variable per iteration
	// (0 disables). Keeps early iterations from flying off the
	// performance maps.
	MaxStep float64
}

func (o *NewtonOptions) defaults() {
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter == 0 {
		o.MaxIter = 50
	}
	if o.FDRel == 0 {
		o.FDRel = 1e-7
	}
	if o.Relax == 0 {
		o.Relax = 1
	}
}

// Columns evaluates the residual at k points at once: rs[j] = r(xs[j])
// for every j. Newton hands it the perturbed copies of x whose
// residuals form the finite-difference Jacobian, one per column. It
// must leave xs unchanged and, when columns fail, report the lowest
// failing index.
type Columns func(xs, rs [][]float64) error

// Sequential evaluates the columns with f one at a time, in index
// order, stopping at the first failure.
func Sequential(f Residual) Columns {
	return func(xs, rs [][]float64) error {
		for j := range xs {
			if err := f(xs[j], rs[j]); err != nil {
				return columnError(j, err)
			}
		}
		return nil
	}
}

// Concurrent evaluates every column at once, each with a residual of
// its own from fresh, which is called on the caller's goroutine and so
// may copy state the residuals would otherwise share. start runs its
// argument (typically on a goroutine of its own) and returns an
// idempotent wait delivering its error. Every column is joined before
// the evaluation returns, whether or not one failed, and a failure is
// reported for the lowest failing index, the column Sequential would
// have stopped at.
func Concurrent(start func(func() error) func() error, fresh func() Residual) Columns {
	return func(xs, rs [][]float64) error {
		waits := make([]func() error, len(xs))
		for j := range xs {
			f, x, r := fresh(), xs[j], rs[j]
			waits[j] = start(func() error { return f(x, r) })
		}
		var first error
		for j, wait := range waits {
			if err := wait(); err != nil && first == nil {
				first = columnError(j, err)
			}
		}
		return first
	}
}

func columnError(j int, err error) error {
	return fmt.Errorf("solver: residual during Jacobian column %d: %w", j, err)
}

// Newton solves r(x) = 0 by damped Newton-Raphson with a forward
// finite-difference Jacobian, updating x in place. f evaluates the
// residual at the iterates; cols evaluates the Jacobian's perturbed
// points, one column per variable (Sequential(f) is the plain loop).
// It returns the number of iterations used. Convergence is declared
// when the max-norm of the residual (scaled by the initial residual,
// when nonzero) falls below Tol.
func Newton(f Residual, cols Columns, x []float64, opt NewtonOptions) (int, error) {
	opt.defaults()
	n := len(x)
	if n == 0 {
		return 0, fmt.Errorf("solver: empty system")
	}
	r := make([]float64, n)
	jac := make([][]float64, n)
	for i := range jac {
		jac[i] = make([]float64, n)
	}
	step := make([]float64, n)
	// The perturbed points and their residuals, allocated once per
	// solve: xs[j] is x with x[j] moved by h[j].
	xs := make([][]float64, n)
	rs := make([][]float64, n)
	for j := range xs {
		xs[j] = make([]float64, n)
		rs[j] = make([]float64, n)
	}
	h := make([]float64, n)

	if err := f(x, r); err != nil {
		return 0, fmt.Errorf("solver: initial residual: %w", err)
	}
	scale := norm(r)
	if scale == 0 {
		return 0, nil
	}

	for iter := 1; iter <= opt.MaxIter; iter++ {
		// Finite-difference Jacobian: all n columns in one evaluation.
		for j := range xs {
			h[j] = opt.FDRel * math.Max(math.Abs(x[j]), 1e-8)
			copy(xs[j], x)
			xs[j][j] = x[j] + h[j]
		}
		if err := cols(xs, rs); err != nil {
			return iter, err
		}
		for j := range rs {
			inv := 1 / h[j]
			for i := 0; i < n; i++ {
				jac[i][j] = (rs[j][i] - r[i]) * inv
			}
		}
		// Solve J step = -r.
		for i := range step {
			step[i] = -r[i]
		}
		if err := SolveLinear(jac, step); err != nil {
			return iter, fmt.Errorf("solver: Newton iteration %d: %w", iter, err)
		}
		for i := range x {
			dx := opt.Relax * step[i]
			if opt.MaxStep > 0 {
				lim := opt.MaxStep * math.Max(math.Abs(x[i]), 1e-6)
				if dx > lim {
					dx = lim
				} else if dx < -lim {
					dx = -lim
				}
			}
			x[i] += dx
		}
		if err := f(x, r); err != nil {
			return iter, fmt.Errorf("solver: residual after iteration %d: %w", iter, err)
		}
		if norm(r)/scale < opt.Tol || norm(r) < opt.Tol {
			return iter, nil
		}
	}
	return opt.MaxIter, fmt.Errorf("solver: Newton-Raphson did not converge in %d iterations (residual %g)",
		opt.MaxIter, norm(r))
}

func norm(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
