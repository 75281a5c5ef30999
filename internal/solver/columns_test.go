package solver

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// newton is the plain solve: the Jacobian columns in sequence.
func newton(f Residual, x []float64, opt NewtonOptions) (int, error) {
	return Newton(f, Sequential(f), x, opt)
}

// goStart runs fn on a goroutine of its own, the way the engine's
// concurrent evaluation pass starts its columns.
func goStart(fn func() error) func() error {
	ch := make(chan error, 1)
	go func() { ch <- fn() }()
	var done bool
	var res error
	return func() error {
		if !done {
			res, done = <-ch, true
		}
		return res
	}
}

// testSystems are the systems the Newton tests above solve, with their
// starting points and options.
var testSystems = []struct {
	name string
	f    Residual
	x0   []float64
	opt  NewtonOptions
}{
	{"scalar", func(x, r []float64) error {
		r[0] = x[0]*x[0] - 4
		return nil
	}, []float64{1}, NewtonOptions{}},
	{"coupled", func(x, r []float64) error {
		r[0] = x[0]*x[0] + x[1]*x[1] - 25
		r[1] = x[0] - x[1] - 1
		return nil
	}, []float64{5, 2}, NewtonOptions{}},
	{"max-step", func(x, r []float64) error {
		r[0] = x[0] - 100
		return nil
	}, []float64{1}, NewtonOptions{MaxIter: 1, MaxStep: 0.1}},
	{"no-root", func(x, r []float64) error {
		r[0] = x[0]*x[0] + 1
		return nil
	}, []float64{1}, NewtonOptions{MaxIter: 20}},
	{"three-by-three", func(x, r []float64) error {
		r[0] = x[0] + x[1]*x[2] - 7
		r[1] = x[0]*x[0] - x[1] + 2
		r[2] = x[2]*x[2]*x[2] - x[0] - 26
		return nil
	}, []float64{1.2, 2.5, 2.8}, NewtonOptions{MaxStep: 0.2, Relax: 0.9}},
}

// TestConcurrentColumnsBitIdentical solves every test system with the
// Jacobian columns evaluated sequentially and concurrently: every
// iterate, the iteration count and the error text must be identical.
func TestConcurrentColumnsBitIdentical(t *testing.T) {
	for _, sys := range testSystems {
		t.Run(sys.name, func(t *testing.T) {
			solve := func(concurrent bool) ([][]float64, []float64, int, error) {
				var iterates [][]float64
				f := func(x, r []float64) error {
					iterates = append(iterates, append([]float64(nil), x...))
					return sys.f(x, r)
				}
				cols := Sequential(sys.f)
				if concurrent {
					cols = Concurrent(goStart, func() Residual { return sys.f })
				}
				x := append([]float64(nil), sys.x0...)
				n, err := Newton(f, cols, x, sys.opt)
				return iterates, x, n, err
			}
			seqIt, seqX, seqN, seqErr := solve(false)
			conIt, conX, conN, conErr := solve(true)
			if seqN != conN || fmt.Sprint(seqErr) != fmt.Sprint(conErr) {
				t.Errorf("sequential: %d iterations, err %v; concurrent: %d, err %v", seqN, seqErr, conN, conErr)
			}
			if len(seqIt) != len(conIt) {
				t.Fatalf("%d iterates sequential, %d concurrent", len(seqIt), len(conIt))
			}
			for k := range seqIt {
				for i := range seqIt[k] {
					if seqIt[k][i] != conIt[k][i] {
						t.Errorf("iterate %d x[%d]: %v sequential, %v concurrent", k, i, seqIt[k][i], conIt[k][i])
					}
				}
			}
			for i := range seqX {
				if seqX[i] != conX[i] {
					t.Errorf("x[%d]: %v sequential, %v concurrent", i, seqX[i], conX[i])
				}
			}
		})
	}
}

var errBroke = errors.New("broke")

// TestConcurrentColumnsLowestFailure fails columns 1 and 3 of a
// four-variable system while column 2 is still computing: the
// solve must report column 1, as the sequential loop does, and no
// column may still be running when Newton returns.
func TestConcurrentColumnsLowestFailure(t *testing.T) {
	x0 := []float64{0.5, 0.5, 0.5, 0.5}
	sum := func(x, r []float64) error {
		for i := range r {
			r[i] = x[i] - float64(i+1)
		}
		return nil
	}
	// A column counts as running from when its residual is handed out
	// until it returns; the column is the entry x0 differs in.
	var running atomic.Int32
	fresh := func() Residual {
		running.Add(1)
		return func(x, r []float64) error {
			defer running.Add(-1)
			col := 0
			for j := range x {
				if x[j] != x0[j] {
					col = j
				}
			}
			switch col {
			case 1, 3:
				return fmt.Errorf("column %d: %w", col, errBroke)
			case 2:
				// Still computing when column 1 has failed.
				time.Sleep(50 * time.Millisecond)
			}
			return sum(x, r)
		}
	}
	want := "solver: residual during Jacobian column 1: column 1: broke"
	for _, tc := range []struct {
		name string
		cols Columns
	}{
		{"sequential", Sequential(func(x, r []float64) error { return fresh()(x, r) })},
		{"concurrent", Concurrent(goStart, fresh)},
	} {
		x := append([]float64(nil), x0...)
		_, err := Newton(sum, tc.cols, x, NewtonOptions{})
		if n := running.Load(); n != 0 {
			t.Errorf("%s: %d columns still running after Newton returned", tc.name, n)
		}
		if err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", tc.name, err, want)
		}
		if !errors.Is(err, errBroke) {
			t.Errorf("%s: error %v does not wrap the residual's error", tc.name, err)
		}
	}
}
