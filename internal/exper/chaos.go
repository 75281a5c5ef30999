package exper

import (
	"fmt"
	"strings"
	"time"

	"npss/internal/core"
	"npss/internal/engine"
	"npss/internal/flight"
	"npss/internal/netsim"
	"npss/internal/schooner"
	"npss/internal/trace"
	"npss/internal/tseries"
	"npss/internal/vclock"
)

// ChaosSpec configures the chaos experiment: the Table 2 combined
// F100 workload run under injected message loss, latency jitter, link
// flaps, and one mid-transient machine crash, with the fault-tolerant
// runtime (call deadlines, retry with rebind, Manager health
// monitoring, stateless failover) expected to carry the simulation to
// the same answer as the undisturbed local run.
type ChaosSpec struct {
	Run RunSpec
	// Seed makes the injected faults reproducible (default 1993).
	Seed int64
	// Loss is the per-message drop probability on the client-side
	// links (default 0.5%).
	Loss float64
	// Jitter is the maximum extra per-message latency (default 200µs
	// of simulated time).
	Jitter time.Duration
	// FlapEvery/FlapLen schedule transient link outages: after every
	// FlapEvery carried messages the link drops the next FlapLen
	// (defaults 400 and 3).
	FlapEvery, FlapLen int
	// CrashHost is crashed mid-transient (default the RS/6000, which
	// hosts both shaft computations). The machine stays down; the
	// Manager's health monitor must fail its processes over.
	CrashHost string
	// CrashStep is the transient step at which the crash is injected
	// (default: halfway through the transient).
	CrashStep int
	// Policy is the client call policy (default: a deadline well above
	// the slowest round trip, and a retry budget that outlasts crash
	// detection and failover).
	Policy schooner.CallPolicy
	// Health is the Manager's monitoring policy (default: 100ms
	// sweeps, 3 missed probes declare a machine dead).
	Health schooner.HealthPolicy
	// SeriesInterval, when positive, samples windowed metric series
	// (with tail-latency exemplars) over the faulty run, landing in
	// ChaosResult.Series — the raw material for the per-run HTML
	// report.
	SeriesInterval time.Duration
}

func (s *ChaosSpec) defaults() {
	s.Run.defaults()
	if s.Seed == 0 {
		s.Seed = 1993
	}
	if s.Loss == 0 {
		s.Loss = 0.005
	}
	if s.Jitter == 0 {
		s.Jitter = 200 * time.Microsecond
	}
	if s.FlapEvery == 0 {
		s.FlapEvery = 400
	}
	if s.FlapLen == 0 {
		s.FlapLen = 3
	}
	if s.CrashHost == "" {
		s.CrashHost = RS6000Lerc
	}
	if s.CrashStep == 0 {
		s.CrashStep = int(s.Run.Transient/s.Run.Step) / 2
	}
	// Every delay is waited in full on the run's virtual clock, so the
	// deadlines clear the slowest round trip, the Internet path between
	// the sites (2 x 45ms latency plus transmission), with room to
	// spare. A sweep pings the six Lewis machines one after another,
	// about 0.6s; the retry budget (about 4.7s of backoff) outlasts
	// three sweeps of detection plus the failover respawn.
	if s.Policy == (schooner.CallPolicy{}) {
		s.Policy = schooner.CallPolicy{
			Timeout:    250 * time.Millisecond,
			MaxRetries: 12,
			Backoff:    10 * time.Millisecond,
			MaxBackoff: time.Second,
		}
	}
	if s.Health == (schooner.HealthPolicy{}) {
		s.Health = schooner.HealthPolicy{
			Interval:    100 * time.Millisecond,
			Threshold:   3,
			PingTimeout: 250 * time.Millisecond,
		}
	}
}

// chaosCounters are the fault-tolerance counters a chaos run reports
// as deltas.
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

// ChaosResult is the outcome of one chaos run: the usual combined-test
// row plus the recovery-path counters accumulated during the faulty
// run.
type ChaosResult struct {
	Row       *ModuleRun
	CrashHost string
	CrashStep int
	// Counters holds the per-run deltas of the chaosCounters.
	Counters map[string]int64
	// Metrics is the full metric snapshot of the faulty run (and the
	// clean baseline), mergeable into a cluster-wide roll-up. The chaos
	// run scopes its trace sets, so this is the only way its metrics
	// escape the experiment.
	Metrics trace.MetricsSnapshot
	// Series is the windowed metric series of the faulty run when
	// ChaosSpec.SeriesInterval was set: per-host call rates, per-proc
	// latency quantiles, and the slowest spans per window.
	Series tseries.Series
	// Events is the flight recorder's view of the faulty run — the
	// crash, the health-down verdict, and the failovers, timestamped
	// on the run's virtual clock like Series, so a report can overlay
	// them.
	Events []flight.Event
	// FlightDump is the recorder dump captured at the moment of a
	// failed run, while the sampler was still active — so it includes
	// the series-tail section. Empty on success.
	FlightDump string
	// RealElapsed is what simulating the whole experiment cost, on the
	// wall clock.
	RealElapsed time.Duration
}

// Chaos runs the paper's Table 2 combined test — the TESS F100
// simulation on the Arizona Sparc with six computations placed on
// remote machines at both sites — under probabilistic fault
// injection on every client link plus a mid-transient crash of the
// machine hosting both shafts. The run must converge to the
// local-only answer: lost messages are retried, the crashed machine's
// stateless processes are restarted elsewhere by the Manager's health
// monitor, and clients follow via the same lazy stale-cache recovery
// that serves Move. The experiment runs on a virtual clock of its own,
// so one seed replays one run.
func Chaos(spec ChaosSpec) *ChaosResult {
	realStart := time.Now()
	spec.defaults()
	// Scope the experiment to its own trace sets: the clean baseline
	// records into one, and the faulty run into a fresh one installed
	// just before the faults are armed — so the crash-recovery phase
	// reports its own counts, not deltas against whatever the process
	// accumulated earlier. The original global set is restored (after
	// the testbed's deferred shutdown, whose last heartbeats land in
	// the scoped set) on return.
	baseSet := trace.NewSet()
	prev := trace.Swap(baseSet)
	defer trace.Swap(prev)
	placements := Table2Placements()
	row := &ModuleRun{AVSMachine: SparcUA, Placements: placements}
	res := &ChaosResult{Row: row, CrashHost: spec.CrashHost, CrashStep: spec.CrashStep}
	defer func() { res.RealElapsed = time.Since(realStart) }()
	nets := make([]string, 0, len(placements))
	for _, m := range placements {
		nets = append(nets, LinkName(SparcUA, m))
	}
	row.Network = strings.Join(dedupe(nets), " + ")

	v := vclock.NewVirtual()
	defer recordSpansOn(v)()
	defer stopClock(v, &row.Err)
	tb, err := newTestbed(SparcUA, v)
	if err != nil {
		row.Err = err
		return res
	}
	defer tb.Stop()
	tb.Net.ScaleLatency(spec.Run.NetScale)
	exec, err := tb.NewExecutive()
	if err != nil {
		row.Err = err
		return res
	}
	defer exec.Destroy()
	exec.Client.Policy = spec.Policy
	if err := configure(exec, spec.Run); err != nil {
		row.Err = err
		return res
	}

	// Clean local baseline first: the correctness reference.
	local, err := exec.Run(core.RunOptions{})
	if err != nil {
		row.Err = fmt.Errorf("local run: %w", err)
		return res
	}

	// Arm the faults: every link from the AVS machine to a placement
	// machine drops, jitters, and flaps. The Manager shares the AVS
	// machine, so its heartbeats and respawns cross the same degraded
	// links. The one seed fixes both the fault draws and the retry
	// jitter.
	tb.Net.SetFaultSeed(spec.Seed)
	flaky := netsim.FaultSpec{
		LossProb:  spec.Loss,
		MaxJitter: spec.Jitter,
		FlapEvery: spec.FlapEvery,
		FlapLen:   spec.FlapLen,
	}
	for _, m := range dedupe(placementHosts(placements)) {
		tb.Net.SetLinkFlaky(SparcUA, m, flaky)
	}
	tb.Mgr.StartHealth(spec.Health)

	for inst, m := range placements {
		if err := exec.SetRemote(inst, m, ""); err != nil {
			row.Err = err
			return res
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

	// The crash: mid-transient, the chosen machine goes silent and
	// stays down. Every connection to it is dead from that instant —
	// including replies already "on the wire".
	steps, crashed := 0, false
	observe := func(t float64, out engine.Outputs) {
		steps++
		if !crashed && steps >= spec.CrashStep {
			crashed = true
			tb.Net.SetHostDown(spec.CrashHost, true)
		}
	}
	start := v.Now()
	remote, err := exec.Run(core.RunOptions{Observe: observe})
	row.Wall = v.Since(start)
	row.Links = linkIO(tb.Net.Stats())
	if err != nil {
		// Capture the dump before deactivating the sampler so it ships
		// with the "-- series tail --" section: the last windows before
		// the failure, alongside the last events.
		res.FlightDump = flight.DumpString()
	}
	if sampler != nil {
		tseries.SetActive(nil)
		sampler.Stop()
		res.Series = sampler.Snapshot()
	}
	// Keep the faulty run's transition events: they share the series'
	// clock, so the crash and the failovers overlay its timeline. The
	// per-call kinds stay out — the series already aggregates them.
	for _, e := range chaosRec.Events() {
		if e.Kind.IsTransition() {
			res.Events = append(res.Events, e)
		}
	}

	res.Counters = make(map[string]int64, len(chaosCounters))
	for _, k := range chaosCounters {
		res.Counters[k] = chaosSet.Get(k)
	}
	res.Metrics = baseSet.Export()
	res.Metrics.Merge(chaosSet.Export())
	if err != nil {
		row.Err = fmt.Errorf("chaos run: %w", err)
		return res
	}
	row.Converged = true
	row.SteadyIters = remote.SteadyIters
	row.RPCs = res.Counters["schooner.client.rpcs"]
	row.Calls = res.Counters["schooner.client.calls"]
	row.SimNet = tb.Net.TotalSimDelay()
	row.MaxRelErr = maxRelErr(local, remote)
	return res
}

func placementHosts(p map[string]string) []string {
	out := make([]string, 0, len(p))
	for _, m := range p {
		out = append(out, m)
	}
	return out
}

// FormatChaos renders a chaos result: the combined-test row, the
// injected faults, and the recovery counters.
func FormatChaos(r *ChaosResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 workload under chaos: crash of %s at transient step %d\n", r.CrashHost, r.CrashStep)
	if r.Row.Err != nil {
		fmt.Fprintf(&b, "ERROR: %v\n", r.Row.Err)
		// A chaos run that failed to converge is a harness violation:
		// dump the flight recorder so the failure ships with the last
		// things every component did (and, when sampling was on, the
		// last series windows).
		if r.FlightDump != "" {
			b.WriteString(r.FlightDump)
		} else {
			b.WriteString(flight.DumpString())
		}
	} else {
		fmt.Fprintf(&b, "converged=%v steadyIters=%d maxRelErr=%.2e rpcs=%d wall=%s\n",
			r.Row.Converged, r.Row.SteadyIters, r.Row.MaxRelErr, r.Row.RPCs, r.Row.Wall.Round(time.Millisecond))
	}
	for _, k := range chaosCounters {
		fmt.Fprintf(&b, "  %s=%d\n", k, r.Counters[k])
	}
	return b.String()
}
