// Table 2 workload adapter for the declarative scenario harness: a
// scenario file with `workload: table2` runs the paper's combined F100
// test under chaos fault injection (exper.Chaos) instead of the DST
// counter workload, so the hand-coded chaos experiment and its YAML
// port share one execution path and must agree.
package exper

import (
	"fmt"

	"npss/internal/dst"
	"npss/internal/scenario"
)

func init() {
	scenario.RegisterWorkload("table2", func(spec *scenario.Spec) (*scenario.Result, error) {
		return RunTable2Scenario(spec, RunSpec{Throttle: true})
	})
}

// table2ChaosSpec maps the scenario file onto a ChaosSpec: the seed
// carries over, a single crash_host event picks the crashed machine
// and — via its position in the scenario duration — the transient step
// it fires at, and everything else keeps the chaos defaults. The
// engine RunSpec is a parameter so tests can shrink the transient; the
// crash step scales with it, exactly as the hand-coded defaults do.
func table2ChaosSpec(spec *scenario.Spec, run RunSpec) (ChaosSpec, error) {
	cs := ChaosSpec{Run: run, Seed: spec.Seed}
	cs.Run.defaults()
	var crashes int
	for i := range spec.Events {
		e := &spec.Events[i]
		switch e.Action {
		case "crash_host":
			crashes++
			if crashes > 1 {
				return cs, fmt.Errorf("line %d: table2 workload supports exactly one crash_host event", e.Line)
			}
			if _, ok := archOf[e.Host]; !ok {
				return cs, fmt.Errorf("line %d: crash_host %q: not a testbed machine", e.Line, e.Host)
			}
			cs.CrashHost = e.Host
			// The event instant maps proportionally onto the transient:
			// at == duration/2 crashes halfway through, as the hand-coded
			// experiment does.
			steps := int(cs.Run.Transient / cs.Run.Step)
			cs.CrashStep = int(float64(steps) * (float64(e.At) / float64(spec.Duration)))
			if cs.CrashStep < 1 {
				cs.CrashStep = 1
			}
		default:
			return cs, fmt.Errorf("line %d: table2 workload does not support action %q", e.Line, e.Action)
		}
	}
	if len(spec.Stress) > 0 {
		return cs, fmt.Errorf("line %d: table2 workload does not support stress blocks", spec.Stress[0].Line)
	}
	for _, a := range spec.Asserts {
		if a.Check == "bound_host" {
			return cs, fmt.Errorf("line %d: table2 workload does not support bound_host assertions", a.Line)
		}
	}
	return cs, nil
}

// chaosProbe evaluates scenario assertions against a chaos result.
type chaosProbe struct{ r *ChaosResult }

func (p chaosProbe) Counter(key string) int64     { return p.r.Counters[key] }
func (p chaosProbe) BoundHost(proc string) string { return "" }
func (p chaosProbe) ViolationText() string {
	if p.r.Row.Err != nil {
		return p.r.Row.Err.Error()
	}
	if !p.r.Row.Converged {
		return "combined test did not converge"
	}
	if p.r.Row.MaxRelErr > relErrTolerance {
		return fmt.Sprintf("maxRelErr %.2e above tolerance %.0e", p.r.Row.MaxRelErr, relErrTolerance)
	}
	return ""
}

// relErrTolerance is the convergence bar the YAML port shares with the
// hand-coded chaos expectations: the distributed answer must match the
// local one to cross-architecture float conversion noise.
const relErrTolerance = 1e-4

// RunTable2Scenario executes a `workload: table2` scenario under an
// explicit engine RunSpec. The registered workload hook passes the
// default spec; tests pass a shortened transient.
func RunTable2Scenario(spec *scenario.Spec, run RunSpec) (*scenario.Result, error) {
	cs, err := table2ChaosSpec(spec, run)
	if err != nil {
		return nil, err
	}
	cs.SeriesInterval = spec.SeriesInterval
	r := Chaos(cs)

	res := &scenario.Result{Name: spec.Name, Seed: spec.Seed, Hosts: len(archOf)}
	probe := chaosProbe{r}
	d := &dst.Result{
		Seed:           spec.Seed,
		Signature:      r.Counters,
		Series:         r.Series,
		Events:         r.Events,
		FlightDump:     r.FlightDump,
		VirtualElapsed: r.Row.Wall,
		RealElapsed:    r.RealElapsed,
	}
	if v := probe.ViolationText(); v != "" {
		d.Violation = &dst.Violation{Name: "no-convergence", Detail: v}
	}
	for _, a := range spec.Asserts {
		ar := scenario.EvalAssert(probe, a, -1)
		res.Asserts = append(res.Asserts, ar)
		if !ar.OK && d.Violation == nil {
			d.Violation = &dst.Violation{
				Name:   "assert-" + a.Check,
				Detail: fmt.Sprintf("line %d: %s: got %s", a.Line, ar.Desc, ar.Detail),
			}
		}
	}
	res.DST = d
	return res, nil
}
