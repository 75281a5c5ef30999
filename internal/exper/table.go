package exper

import (
	"fmt"
	"math"
	"strings"
	"time"

	"npss/internal/core"
	"npss/internal/critpath"
	"npss/internal/netsim"
	"npss/internal/trace"
	"npss/internal/vclock"
)

// RunSpec sets the simulation length of an experiment run. The paper
// ran a steady-state balance (Newton-Raphson) followed by a one-second
// transient (Improved Euler); benchmarks may shorten the transient.
type RunSpec struct {
	// Transient length in seconds (default 1.0, the paper's length).
	Transient float64
	// Step is the integrator step (default 0.5 ms).
	Step float64
	// Parallel runs the placed (remote) simulation with overlapped
	// module calls — wavefront network execution plus concurrent
	// adapted-hook RPCs. The local baseline stays sequential, so the
	// comparison also verifies the parallel path's correctness.
	Parallel bool
	// Batch additionally coalesces simultaneous same-host remote calls
	// into single wire messages (the two shaft calls of the parallel
	// pass share one envelope to the RS/6000). Implies Parallel.
	Batch bool
	// NetScale multiplies every link's propagation latency (0 and 1
	// leave the paper's topology untouched). The attribution test
	// injects NetScale=2 to prove its pins catch a doubled network.
	NetScale float64
}

func (s *RunSpec) defaults() {
	if s.Transient == 0 {
		s.Transient = 1.0
	}
	if s.Step == 0 {
		s.Step = 5e-4
	}
}

// ModuleRun is one row of a Table 1 / Table 2 style experiment: a
// simulation with one or more modules computing remotely, verified
// against the local-compute-only run.
type ModuleRun struct {
	AVSMachine string
	// Placements maps adapted module instances to machines.
	Placements map[string]string
	Network    string // connecting network description (Table 1 column)

	// Results.
	Converged   bool
	SteadyIters int
	// MaxRelErr is the largest relative deviation of the remote run
	// from the local run over the final state vector and the steady
	// and final outputs: the paper's correctness criterion.
	MaxRelErr float64
	// RPCs counts wire round trips: a batch envelope carrying several
	// procedure calls counts once, which is what batching saves.
	RPCs int64
	// Calls counts procedure invocations, independent of how many
	// shared an envelope; equal placements give equal Calls whether or
	// not batching is on.
	Calls  int64
	SimNet time.Duration // simulated network time spent
	// Wall is the remote run's elapsed time on the run's virtual
	// clock: every simulated delay waited in full, overlapped where
	// the calls overlap, with computation taking no time.
	Wall time.Duration
	// Links is the per-link traffic accounting of the remote run, in
	// the shape the critical-path analyzer consumes for its link cost
	// profiles.
	Links map[string]critpath.LinkIO
	Err   error
}

// linkIO converts the simulator's per-link stats into the analyzer's
// transport-agnostic shape.
func linkIO(stats map[string]netsim.LinkStats) map[string]critpath.LinkIO {
	if len(stats) == 0 {
		return nil
	}
	out := make(map[string]critpath.LinkIO, len(stats))
	for name, st := range stats {
		out[name] = critpath.LinkIO{
			Messages: st.Messages,
			Bytes:    st.Bytes,
			Delay:    st.SimDelay,
			Dropped:  st.Dropped,
		}
	}
	return out
}

// MergeLinks folds one run's link accounting into an accumulator, so
// a multi-experiment invocation profiles its total traffic.
func MergeLinks(into map[string]critpath.LinkIO, from map[string]critpath.LinkIO) map[string]critpath.LinkIO {
	if len(from) == 0 {
		return into
	}
	if into == nil {
		into = make(map[string]critpath.LinkIO, len(from))
	}
	for name, io := range from {
		agg := into[name]
		agg.Messages += io.Messages
		agg.Bytes += io.Bytes
		agg.Delay += io.Delay
		agg.Dropped += io.Dropped
		into[name] = agg
	}
	return into
}

// runConfigured stands the F100 up on avs and runs it with placements
// remote, sequential or overlapped as spec says.
func runConfigured(avs string, placements map[string]string, spec RunSpec) *ModuleRun {
	f, err := StandUp(avs, spec)
	if err != nil {
		row := newRow(avs, placements)
		row.Err = err
		return row
	}
	row := f.Run(placements, core.RunOptions{Parallel: spec.Parallel || spec.Batch, Batch: spec.Batch})
	f.Close(&row.Err)
	return row
}

// newRow is a row of placements on avs, before any run.
func newRow(avs string, placements map[string]string) *ModuleRun {
	nets := make([]string, 0, len(placements))
	for _, m := range placements {
		nets = append(nets, LinkName(avs, m))
	}
	return &ModuleRun{AVSMachine: avs, Placements: placements, Network: strings.Join(dedupe(nets), " + ")}
}

// F100 is the paper's F100 simulation stood up on a fresh testbed on a
// virtual clock of its own, with its local-compute-only baseline run.
// Between StandUp and Run a caller may degrade the testbed's links,
// start the Manager's health monitor or set the client's call policy;
// Close tears it all down.
type F100 struct {
	Clock   *vclock.Virtual
	Testbed *Testbed
	Exec    *core.Executive

	local        *core.RunResult
	restoreSpans func()
}

// StandUp builds the testbed with the executive on avs, configures the
// run and runs the local baseline: the correctness reference.
func StandUp(avs string, spec RunSpec) (_ *F100, err error) {
	spec.defaults()
	v := vclock.NewVirtual()
	f := &F100{Clock: v, restoreSpans: recordSpansOn(v)}
	defer func() {
		if err != nil {
			f.Close(&err)
		}
	}()
	if f.Testbed, err = newTestbed(avs, v); err != nil {
		return nil, err
	}
	f.Testbed.Net.ScaleLatency(spec.NetScale)
	if f.Exec, err = f.Testbed.NewExecutive(); err != nil {
		return nil, err
	}
	if err := configure(f.Exec, spec); err != nil {
		return nil, err
	}
	// Phase spans bracket the two runs so a timeline shows the local
	// baseline and the placed run as top-level lanes.
	localSp := trace.StartSpan("local run", avs)
	f.local, err = f.Exec.Run(core.RunOptions{})
	localSp.End()
	if err != nil {
		return nil, fmt.Errorf("local run: %w", err)
	}
	return f, nil
}

// Run places the adapted modules on their machines, runs the
// simulation under opts and compares it with the local baseline. The
// row's Calls and RPCs are what the run adds to the current metric
// set; its Links and SimNet are the run's own traffic.
func (f *F100) Run(placements map[string]string, opts core.RunOptions) *ModuleRun {
	avs := f.Testbed.AVSHost
	row := newRow(avs, placements)
	for inst, m := range placements {
		if err := f.Exec.SetRemote(inst, m, ""); err != nil {
			row.Err = err
			return row
		}
	}
	net := f.Testbed.Net
	net.ResetStats()
	callsBefore := trace.Get("schooner.client.calls")
	rpcsBefore := trace.Get("schooner.client.rpcs")
	remoteSp := trace.StartSpan("remote run", avs)
	if remoteSp != nil && opts.Parallel {
		mode := "parallel"
		if opts.Batch {
			mode = "batch"
		}
		remoteSp.Annotate("mode", mode)
	}
	start := f.Clock.Now()
	remote, err := f.Exec.Run(opts)
	row.Wall = f.Clock.Since(start)
	remoteSp.End()
	row.Links = linkIO(net.Stats())
	if err != nil {
		row.Err = fmt.Errorf("remote run: %w", err)
		return row
	}
	row.Converged = true
	row.SteadyIters = remote.SteadyIters
	row.RPCs = trace.Get("schooner.client.rpcs") - rpcsBefore
	row.Calls = trace.Get("schooner.client.calls") - callsBefore
	row.SimNet = net.TotalSimDelay()
	row.MaxRelErr = maxRelErr(f.local, remote)
	return row
}

// Close destroys the executive, stops the testbed and then its clock,
// and puts the process span recorder back. A goroutine of the run that
// outlived it lands in *errp, unless that already holds an error.
func (f *F100) Close(errp *error) {
	if f.Exec != nil {
		f.Exec.Destroy()
	}
	if f.Testbed != nil {
		f.Testbed.Stop()
	}
	if err := f.Clock.Stop(); err != nil && *errp == nil {
		*errp = err
	}
	f.restoreSpans()
}

// recordSpansOn stamps the spans of a run on v when span recording is
// on: it installs a fork of the process recorder reading v, and
// returns the func that puts the process recorder back and joins the
// run's spans into it, after whatever it already holds.
func recordSpansOn(v *vclock.Virtual) (restore func()) {
	prev := trace.ActiveRecorder()
	if prev == nil {
		return func() {}
	}
	fork := prev.Fork(v.Now)
	trace.SetRecorder(fork)
	return func() {
		trace.SetRecorder(prev)
		prev.Join(fork)
	}
}

// configure sets the system-module widgets and the combustor's fuel
// schedule for a run.
func configure(exec *core.Executive, spec RunSpec) error {
	if err := exec.Network.SetParam(core.InstSystem, "transient seconds", spec.Transient); err != nil {
		return err
	}
	if err := exec.Network.SetParam(core.InstSystem, "time step", spec.Step); err != nil {
		return err
	}
	// Decelerate to ~90% fuel over the first tenth of the run, so the
	// transient exercises real dynamics.
	sched := fmt.Sprintf("0:1.48, %g:1.33", spec.Transient/10)
	return exec.Network.SetParam(core.InstComb, "fuel schedule", sched)
}

// maxRelErr is the largest relative deviation of the remote run from
// the local one over the final state vector and the steady and final
// thrust and T4. A non-finite deviation or a state vector of another
// length is +Inf: a NaN answer never reads as converged.
func maxRelErr(local, remote *core.RunResult) float64 {
	if len(local.State) != len(remote.State) {
		return math.Inf(1)
	}
	max := 0.0
	obs := func(a, b float64) {
		if a == b && !math.IsInf(a, 0) {
			return
		}
		d := math.Abs(a-b) / math.Max(math.Abs(a), 1e-12)
		if math.IsNaN(d) {
			d = math.Inf(1)
		}
		max = math.Max(max, d)
	}
	for i := range local.State {
		obs(local.State[i], remote.State[i])
	}
	obs(local.Steady.Thrust, remote.Steady.Thrust)
	obs(local.Final.Thrust, remote.Final.Thrust)
	obs(local.Steady.T4, remote.Steady.T4)
	obs(local.Final.T4, remote.Final.T4)
	return max
}

func dedupe(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// Table1Combos returns the paper's Table 1 machine/network
// combinations, each testing one adapted module. The module choice
// rotates so all four adapted modules are covered, as in the paper's
// test campaign ("each of the adapted AVS modules were tested
// separately on a variety of machine combinations").
func Table1Combos() []struct {
	AVS, Remote, Module string
} {
	return []struct{ AVS, Remote, Module string }{
		{SparcLerc, SGI480Lerc, core.InstLowShaft},
		{SparcLerc, ConvexLerc, core.InstBypDuct},
		{SGI480Lerc, CrayLerc, core.InstComb},
		{SGI480Lerc, SparcUA, core.InstNozzle},
		{SparcUA, RS6000Lerc, core.InstHighShaft},
	}
}

// Table1 reproduces the individual adapted-module tests of the
// paper's Table 1 across its five machine/network combinations.
func Table1(spec RunSpec) []*ModuleRun {
	var rows []*ModuleRun
	for _, c := range Table1Combos() {
		rows = append(rows, runConfigured(c.AVS, map[string]string{c.Module: c.Remote}, spec))
	}
	return rows
}

// Table2Placements is the paper's combined test: the TESS simulation
// executes on a Sun Sparc 10 at The University of Arizona with six
// remote computations — one combustor on an SGI 4D/340 at Arizona,
// two ducts on the LeRC Cray Y-MP, one nozzle on an SGI 4D/420 at
// LeRC, and two shafts on the LeRC IBM RS/6000.
func Table2Placements() map[string]string {
	return map[string]string{
		core.InstComb:      SGI340UA,
		core.InstBypDuct:   CrayLerc,
		core.InstAugDuct:   CrayLerc,
		core.InstNozzle:    SGI420Lerc,
		core.InstLowShaft:  RS6000Lerc,
		core.InstHighShaft: RS6000Lerc,
	}
}

// Table2 reproduces the combined test of the paper's Table 2.
func Table2(spec RunSpec) *ModuleRun {
	return runConfigured(SparcUA, Table2Placements(), spec)
}

// FormatTable1 renders Table 1 rows in the paper's layout plus the
// verification columns.
func FormatTable1(rows []*ModuleRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-14s %-22s %-34s %-9s %-10s %8s %12s\n",
		"AVS Machine", "Module", "Remote Machine", "Connecting Network", "Converged", "MaxRelErr", "RPCs", "SimNetTime")
	for _, r := range rows {
		module, remote := "", ""
		for m, host := range r.Placements {
			module, remote = m, host
		}
		if r.Err != nil {
			fmt.Fprintf(&b, "%-14s %-14s %-22s %-34s ERROR: %v\n", r.AVSMachine, module, remote, r.Network, r.Err)
			continue
		}
		fmt.Fprintf(&b, "%-14s %-14s %-22s %-34s %-9v %-10.2e %8d %12s\n",
			r.AVSMachine, module, remote, r.Network, r.Converged, r.MaxRelErr, r.RPCs, r.SimNet.Round(time.Millisecond))
	}
	return b.String()
}

// FormatTable2 renders the combined-test result in the paper's
// placement layout.
func FormatTable2(r *ModuleRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TESS simulation executed on %s at %s\n", r.AVSMachine, Site(r.AVSMachine))
	fmt.Fprintf(&b, "%-24s %-22s %-28s\n", "Module", "Remote Machine", "Site")
	for _, inst := range []string{core.InstComb, core.InstBypDuct, core.InstAugDuct, core.InstNozzle, core.InstLowShaft, core.InstHighShaft} {
		host := r.Placements[inst]
		fmt.Fprintf(&b, "%-24s %-22s %-28s\n", inst, host, Site(host))
	}
	if r.Err != nil {
		fmt.Fprintf(&b, "ERROR: %v\n", r.Err)
		return b.String()
	}
	fmt.Fprintf(&b, "converged=%v steadyIters=%d maxRelErr=%.2e calls=%d rpcs=%d simNetTime=%s wall=%s\n",
		r.Converged, r.SteadyIters, r.MaxRelErr, r.Calls, r.RPCs, r.SimNet.Round(time.Millisecond), r.Wall.Round(time.Millisecond))
	return b.String()
}
