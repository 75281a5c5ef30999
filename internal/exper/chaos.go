// The chaos experiment is the `workload: table2` of the declarative
// scenario harness: the paper's Table 2 combined F100 test under
// injected message loss, latency jitter, link flaps, and one machine
// crash, with the fault-tolerant runtime (call deadlines, retry with
// rebind, Manager health monitoring, stateless failover) expected to
// carry the simulation to the same answer as the undisturbed local run.
// The scenario file (scenarios/chaos-table2.yaml) is the whole
// experiment: the seed, every degraded link, the call and health
// policies, the transient length and the crash all come from it.

package exper

import (
	"fmt"
	"time"

	"npss/internal/core"
	"npss/internal/critpath"
	"npss/internal/dst"
	"npss/internal/engine"
	"npss/internal/flight"
	"npss/internal/machine"
	"npss/internal/scenario"
	"npss/internal/schooner"
	"npss/internal/trace"
	"npss/internal/tseries"
	"npss/internal/vclock"
)

func init() { scenario.RegisterWorkload("table2", runTable2) }

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

// chaosRun is one finished table2 run: the result it files, plus what
// its assertions probe.
type chaosRun struct {
	dst.Result
	err         error // the faulty run failed
	steadyIters int
	maxRelErr   float64
}

func (r *chaosRun) Counter(key string) int64 { return r.Signature[key] }
func (r *chaosRun) BoundHost(string) string  { return "" }
func (r *chaosRun) ViolationText() string {
	if r.err != nil {
		return r.err.Error()
	}
	if r.maxRelErr > relErrTolerance {
		return fmt.Sprintf("maxRelErr %.2e above tolerance %.0e", r.maxRelErr, relErrTolerance)
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
func runTable2(spec *scenario.Spec) (*scenario.Result, error) {
	realStart := time.Now()
	crash, err := checkTable2(spec)
	if err != nil {
		return nil, err
	}
	r, err := chaos(spec, crash)
	if err != nil {
		return nil, err
	}
	r.RealElapsed = time.Since(realStart)

	res := &scenario.Result{Name: spec.Name, Seed: spec.Seed, Hosts: len(archOf), DST: &r.Result}
	if crash != nil {
		res.Notes = append(res.Notes, fmt.Sprintf("crash of %s at transient step %d", crash.Host, crash.At/table2Step))
	}
	res.Notes = append(res.Notes, fmt.Sprintf("converged=%v steadyIters=%d maxRelErr=%.2e",
		r.err == nil, r.steadyIters, r.maxRelErr))
	if v := r.ViolationText(); v != "" {
		r.Violation = &dst.Violation{Name: "no-convergence", Detail: v}
	}
	for _, a := range spec.Asserts {
		ar := scenario.EvalAssert(r, a, -1)
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
func checkTable2(spec *scenario.Spec) (*scenario.EventSpec, error) {
	f := &spec.Fleet
	if f.Count > 0 || len(f.Templates) > 0 {
		return nil, fmt.Errorf("line %d: table2 workload runs the paper's fixed testbed: list its machines under fleet.hosts", f.Line)
	}
	listed := make(map[string]bool, len(f.Hosts))
	for _, h := range f.Hosts {
		want, ok := archOf[h.Name]
		if !ok {
			return nil, fmt.Errorf("line %d: fleet host %q is not a testbed machine", h.Line, h.Name)
		}
		if arch, _ := machine.ByName(h.Arch); arch != want {
			return nil, fmt.Errorf("line %d: fleet host %q: arch %q, the testbed machine is a %s", h.Line, h.Name, h.Arch, want.Name)
		}
		listed[h.Name] = true
	}
	for _, m := range AllMachines() {
		if !listed[m] {
			return nil, fmt.Errorf("line %d: fleet lacks testbed machine %q (arch %s)", f.Line, m, archOf[m].Name)
		}
	}
	for _, fl := range spec.Faults {
		for _, h := range []string{fl.From, fl.To} {
			if _, ok := archOf[h]; !ok {
				return nil, fmt.Errorf("line %d: fault link %s-%s: %q is not a testbed machine", fl.Line, fl.From, fl.To, h)
			}
		}
	}
	var crash *scenario.EventSpec
	for i := range spec.Events {
		e := &spec.Events[i]
		if e.Action != "crash_host" {
			return nil, fmt.Errorf("line %d: table2 workload does not support action %q", e.Line, e.Action)
		}
		if crash != nil {
			return nil, fmt.Errorf("line %d: table2 workload supports exactly one crash_host event", e.Line)
		}
		crash = e
	}
	if len(spec.Stress) > 0 {
		return nil, fmt.Errorf("line %d: table2 workload does not support stress blocks", spec.Stress[0].Line)
	}
	for _, a := range spec.Asserts {
		if a.Check == "bound_host" {
			return nil, fmt.Errorf("line %d: table2 workload does not support bound_host assertions", a.Line)
		}
	}
	return crash, nil
}

// chaos builds the testbed on a virtual clock, runs the clean local
// baseline, arms the file's faults, and runs the placed simulation
// with the crash. The error return is a harness failure; a run that
// fails under the faults lands in chaosRun.err.
func chaos(spec *scenario.Spec, crash *scenario.EventSpec) (*chaosRun, error) {
	// Scope the experiment to its own trace sets: the clean baseline
	// records into one, and the faulty run into a fresh one installed
	// just before the faults are armed — so the crash-recovery phase
	// reports its own counts. The original global set is restored
	// (after the testbed's deferred shutdown, whose last heartbeats
	// land in the scoped set) on return.
	baseSet := trace.NewSet()
	prev := trace.Swap(baseSet)
	defer trace.Swap(prev)
	r := &chaosRun{Result: dst.Result{Seed: spec.Seed}}

	v := vclock.NewVirtual()
	defer recordSpansOn(v)()
	defer stopClock(v, &r.err)
	tb, err := newTestbed(SparcUA, v)
	if err != nil {
		return nil, err
	}
	defer tb.Stop()
	exec, err := tb.NewExecutive()
	if err != nil {
		return nil, err
	}
	defer exec.Destroy()
	exec.Client.Policy = spec.Policy
	run := RunSpec{Transient: spec.Duration.Seconds(), Step: table2Step.Seconds()}
	if err := configure(exec, run); err != nil {
		return nil, err
	}

	// Clean local baseline first: the correctness reference.
	local, err := exec.Run(core.RunOptions{})
	if err != nil {
		return nil, fmt.Errorf("local run: %w", err)
	}

	// Arm the faults. The Manager shares the AVS machine, so its
	// heartbeats and respawns cross the same degraded links. The one
	// seed fixes both the fault draws and the retry jitter.
	tb.Net.SetFaultSeed(spec.Seed)
	for _, f := range spec.Faults {
		tb.Net.SetLinkFlaky(f.From, f.To, f.FaultSpec)
	}
	var health schooner.HealthPolicy
	if spec.Health != nil {
		health = *spec.Health
	}
	if health.Interval >= 0 {
		tb.Mgr.StartHealth(health)
	}

	for inst, m := range Table2Placements() {
		if err := exec.SetRemote(inst, m, ""); err != nil {
			r.err = err
			return r, nil
		}
	}
	tb.Net.ResetStats()
	chaosSet := trace.NewSet()
	trace.Swap(chaosSet)
	// Scope the flight recorder to the faulty run, big enough that
	// tens of thousands of per-call events cannot evict the handful of
	// transition events (crash, failovers) the report overlays.
	chaosRec := flight.NewRecorderClock(1<<16, v.Now)
	prevRec := flight.Swap(chaosRec)
	defer flight.Swap(prevRec)
	var sampler *tseries.Sampler
	if spec.SeriesInterval > 0 {
		// Sample the faulty run only: the sampler reads the scoped
		// chaos set on the run's clock, and installing it as the active
		// sampler routes the runtime's per-call exemplars (trace/span
		// IDs of the slowest calls) into the windows.
		sampler = tseries.Start(tseries.Config{
			Interval: spec.SeriesInterval,
			Clock:    v,
			Source:   chaosSet.Export,
		})
		tseries.SetActive(sampler)
	}

	// The crash: at its transient step the machine goes silent and
	// stays down. Every connection to it is dead from that instant —
	// including replies already "on the wire".
	steps, crashed := 0, crash == nil
	observe := func(t float64, out engine.Outputs) {
		steps++
		if !crashed && steps >= int(crash.At/table2Step) {
			crashed = true
			tb.Net.SetHostDown(crash.Host, true)
		}
	}
	start := v.Now()
	remote, err := exec.Run(core.RunOptions{Observe: observe})
	r.VirtualElapsed = v.Since(start)
	if rec := trace.ActiveRecorder(); rec != nil {
		r.Profile = critpath.Analyze(rec.Spans(), linkIO(tb.Net.Stats()), rec.Dropped())
	}
	if err != nil {
		// Capture the dump before deactivating the sampler so it ships
		// with the "-- series tail --" section: the last windows before
		// the failure, alongside the last events.
		r.FlightDump = flight.DumpString()
	}
	if sampler != nil {
		tseries.SetActive(nil)
		sampler.Stop()
		r.Series = sampler.Snapshot()
	}
	// Keep the faulty run's transition events: they share the series'
	// clock, so the crash and the failovers overlay its timeline. The
	// per-call kinds stay out — the series already aggregates them.
	for _, e := range chaosRec.Events() {
		if e.Kind.IsTransition() {
			r.Events = append(r.Events, e)
		}
	}

	r.Signature = make(map[string]int64, len(chaosCounters))
	for _, k := range chaosCounters {
		r.Signature[k] = chaosSet.Get(k)
	}
	r.Metrics = baseSet.Export()
	r.Metrics.Merge(chaosSet.Export())
	if err != nil {
		r.err = fmt.Errorf("chaos run: %w", err)
		return r, nil
	}
	r.steadyIters = remote.SteadyIters
	r.maxRelErr = maxRelErr(local, remote)
	return r, nil
}
