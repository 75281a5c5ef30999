// The table2 workload is the paper's Table 2 combined F100 test under
// injected message loss, latency jitter, link flaps, and one machine
// crash, with the fault-tolerant runtime (call deadlines, retry with
// rebind, Manager health monitoring, stateless failover) expected to
// carry the simulation to the same answer as the undisturbed local run.
// The scenario file (scenarios/chaos-table2.yaml) is the whole
// experiment: the seed, every degraded link, the call and health
// policies, the transient length and the crash all come from it.

package scenario

import (
	"fmt"
	"time"

	"npss/internal/core"
	"npss/internal/critpath"
	"npss/internal/dst"
	"npss/internal/engine"
	"npss/internal/exper"
	"npss/internal/machine"
	"npss/internal/schooner"
	"npss/internal/trace"
)

// table2Step is the integration step of a table2 run. The scenario's
// duration is the transient length and an event instant is a transient
// instant, so an event at t fires at step t/table2Step.
const table2Step = 500 * time.Microsecond

// relErrTolerance is the convergence bar: the distributed answer must
// match the local one to cross-architecture float conversion noise.
const relErrTolerance = 1e-4

// chaosCounters are the fault-tolerance counters of the faulty run: a
// table2 run's signature.
var chaosCounters = []string{
	"netsim.drops",
	"schooner.client.calls",
	"schooner.client.rpcs",
	"schooner.client.retries",
	"schooner.client.timeouts",
	"schooner.client.stale",
	"schooner.client.rebinds",
	"schooner.client.call_failures",
	"schooner.manager.heartbeats",
	"schooner.manager.hostdown",
	"schooner.manager.failovers",
	"schooner.manager.failover_skipped_stateful",
	"schooner.manager.spawn_retries",
}

// chaosRun is one finished table2 run: the result it files, plus the
// placed run's row, which its assertions probe.
type chaosRun struct {
	dst.Result
	row *exper.ModuleRun
}

func (r *chaosRun) Counter(key string) int64 { return r.Signature[key] }
func (r *chaosRun) BoundHost(string) string  { return "" }
func (r *chaosRun) ViolationText() string {
	if r.row.Err != nil {
		return r.row.Err.Error()
	}
	if !(r.row.MaxRelErr <= relErrTolerance) {
		return fmt.Sprintf("maxRelErr %.2e above tolerance %.0e", r.row.MaxRelErr, relErrTolerance)
	}
	return ""
}

// runTable2 runs a `workload: table2` scenario: the TESS F100
// simulation on the Arizona Sparc with six computations placed on
// remote machines at both sites, the file's faults on its links, and
// its crash_host event taking a machine down for good. The run must
// converge to the local-only answer: lost messages are retried, the
// crashed machine's stateless processes are restarted elsewhere by the
// Manager's health monitor, and clients follow via the same lazy
// stale-cache recovery that serves Move. It runs on a virtual clock of
// its own, so one file replays one run.
func runTable2(plan *Plan) (*Result, error) {
	spec, crash := plan.Spec, plan.crash
	r, err := chaos(spec, crash)
	if err != nil {
		return nil, err
	}

	res := &Result{Name: spec.Name, Seed: spec.Seed, Hosts: len(exper.AllMachines()), DST: &r.Result}
	if crash != nil {
		res.Notes = append(res.Notes, fmt.Sprintf("crash of %s at transient step %d", crash.Host, crash.At/table2Step))
	}
	res.Notes = append(res.Notes, fmt.Sprintf("converged=%v steadyIters=%d maxRelErr=%.2e",
		r.row.Err == nil, r.row.SteadyIters, r.row.MaxRelErr))
	if v := r.ViolationText(); v != "" {
		r.Violation = &dst.Violation{Name: "no-convergence", Detail: v}
	}
	for _, a := range spec.Asserts {
		ar := evalAssert(r, a, -1)
		res.Asserts = append(res.Asserts, ar)
		if !ar.OK && r.Violation == nil {
			r.Violation = &dst.Violation{
				Name:   "assert-" + a.Check,
				Detail: fmt.Sprintf("line %d: %s: got %s", a.Line, ar.Desc, ar.Detail),
			}
		}
	}
	return res, nil
}

// checkTable2 holds a scenario to what the table2 workload runs: the
// paper's fixed testbed, faults on its links, and at most one crash.
// It returns the crash event, nil when there is none.
func checkTable2(spec *Spec) (*EventSpec, error) {
	f := &spec.Fleet
	if f.Count > 0 || len(f.Templates) > 0 {
		return nil, errAt(f.Line, "table2 workload runs the paper's fixed testbed: list its machines under fleet.hosts")
	}
	listed := make(map[string]bool, len(f.Hosts))
	for _, h := range f.Hosts {
		want := exper.ArchOf(h.Name)
		if want == nil {
			return nil, errAt(h.Line, "fleet host %q is not a testbed machine", h.Name)
		}
		if arch, _ := machine.ByName(h.Arch); arch != want {
			return nil, errAt(h.Line, "fleet host %q: arch %q, the testbed machine is a %s", h.Name, h.Arch, want.Name)
		}
		listed[h.Name] = true
	}
	for _, m := range exper.AllMachines() {
		if !listed[m] {
			return nil, errAt(f.Line, "fleet lacks testbed machine %q (arch %s)", m, exper.ArchOf(m).Name)
		}
	}
	for _, fl := range spec.Faults {
		for _, h := range []string{fl.From, fl.To} {
			if exper.ArchOf(h) == nil {
				return nil, errAt(fl.Line, "fault link %s-%s: %q is not a testbed machine", fl.From, fl.To, h)
			}
		}
	}
	var crash *EventSpec
	for i := range spec.Events {
		e := &spec.Events[i]
		if e.Action != "crash_host" {
			return nil, errAt(e.Line, "table2 workload does not support action %q", e.Action)
		}
		if crash != nil {
			return nil, errAt(e.Line, "table2 workload supports exactly one crash_host event")
		}
		crash = e
	}
	if len(spec.Stress) > 0 {
		return nil, errAt(spec.Stress[0].Line, "table2 workload does not support stress blocks")
	}
	for _, a := range spec.Asserts {
		if a.Check == "bound_host" {
			return nil, errAt(a.Line, "table2 workload does not support bound_host assertions")
		}
	}
	return crash, nil
}

// chaos stands the F100 up with its clean local baseline, arms the
// file's faults, and runs the Table 2 placement with the crash, all
// inside one dst.Scope: the stand-up counts into the scope's first
// metric set, the faulty run into the one Start installs once the
// faults are armed, so the crash-recovery phase reports its own counts
// and series. The error return is a harness failure; a run that fails
// under the faults lands in the row's Err.
func chaos(spec *Spec, crash *EventSpec) (*chaosRun, error) {
	scope := dst.OpenScope()
	f, err := exper.StandUp(exper.SparcUA, exper.RunSpec{Transient: spec.Duration.Seconds(), Step: table2Step.Seconds()})
	if err != nil {
		scope.Close()
		return nil, err
	}

	// Arm the faults. The Manager shares the AVS machine, so its
	// heartbeats and respawns cross the same degraded links. The one
	// seed fixes both the fault draws and the retry jitter.
	net, v := f.Testbed.Net, f.Clock
	f.Exec.Client.Policy = spec.Policy
	net.SetFaultSeed(spec.Seed)
	for _, fl := range spec.Faults {
		net.SetLinkFlaky(fl.From, fl.To, fl.FaultSpec)
	}
	var health schooner.HealthPolicy
	if spec.Health != nil {
		health = *spec.Health
	}
	f.Testbed.Mgr.StartHealth(health)
	chaosSet := scope.Start(v, spec.SeriesInterval)

	// The crash: at its transient step the machine goes silent and
	// stays down. Every connection to it is dead from that instant,
	// including replies already "on the wire". Observing a step
	// evaluates the engine's outputs, one more call to each remote
	// module, so a run without a crash observes nothing and is exactly
	// Table 2's sequential run.
	var opts core.RunOptions
	if crash != nil {
		steps, crashed := 0, false
		opts.Observe = func(float64, engine.Outputs) {
			steps++
			if !crashed && steps >= int(crash.At/table2Step) {
				crashed = true
				net.SetHostDown(crash.Host, true)
			}
		}
	}
	r := &chaosRun{Result: dst.Result{Seed: spec.Seed}}
	r.row = f.Run(exper.Table2Placements(), opts)
	r.VirtualElapsed = r.row.Wall
	if rec := trace.ActiveRecorder(); rec != nil {
		r.Profile = critpath.Analyze(rec.Spans(), r.row.Links, rec.Dropped())
	}
	scope.Collect(&r.Result, r.row.Err != nil)
	r.Signature = make(map[string]int64, len(chaosCounters))
	for _, k := range chaosCounters {
		r.Signature[k] = chaosSet.Get(k)
	}
	f.Close(&r.row.Err)
	r.RealElapsed = scope.Close()
	return r, nil
}
