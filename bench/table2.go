package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"npss/internal/core"
	"npss/internal/exper"
	"npss/internal/trace"
)

// table2Spec is the simulation a table2-* workload runs.
type table2Spec struct {
	Transient float64 // seconds of engine transient
	TimeScale float64 // share of each simulated delay really slept
	Overlap   bool    // parallel wavefront with same-host batching
	// FuelEnd is where the seed puts the end of the fuel deceleration
	// schedule, so results cannot be precomputed.
	FuelEnd float64
}

func newTable2Spec(wan bool, seed int64) table2Spec {
	s := table2Spec{Transient: 1.0, FuelEnd: 1.30 + 0.06*rand.New(rand.NewSource(seed)).Float64()}
	if wan {
		s.Transient, s.TimeScale, s.Overlap = 0.02, 0.02, true
	}
	return s
}

func (s table2Spec) opts() core.RunOptions {
	return core.RunOptions{Parallel: s.Overlap, Batch: s.Overlap}
}

// configure sets the system-module widgets, as exper's Table 2 does.
func (s table2Spec) configure(exec *core.Executive) error {
	for _, p := range []struct {
		inst, widget string
		value        any
	}{
		{core.InstSystem, "transient seconds", s.Transient},
		{core.InstSystem, "time step", 5e-4},
		{core.InstComb, "fuel schedule", fmt.Sprintf("0:1.48, %g:%g", s.Transient/10, s.FuelEnd)},
	} {
		if err := exec.Network.SetParam(p.inst, p.widget, p.value); err != nil {
			return err
		}
	}
	return nil
}

// runLocal executes the spec with every module computing in-process:
// the reference answer, and the compute floor of the remote run.
func (s table2Spec) runLocal() (*core.RunResult, time.Duration, error) {
	exec := core.NewExecutive(nil, nil)
	if err := exec.BuildF100(); err != nil {
		return nil, 0, err
	}
	defer exec.Destroy()
	if err := s.configure(exec); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	res, err := exec.Run(core.RunOptions{})
	return res, time.Since(t0), err
}

// maxRelErr is the paper's correctness criterion: the largest relative
// deviation of the remote run from the local one over the final state
// vector and the steady and final outputs.
func maxRelErr(local, remote *core.RunResult) float64 {
	worst := 0.0
	obs := func(a, b float64) {
		if a != b {
			worst = math.Max(worst, math.Abs(a-b)/math.Max(math.Abs(a), 1e-12))
		}
	}
	if len(local.State) != len(remote.State) {
		return math.Inf(1)
	}
	for i := range local.State {
		obs(local.State[i], remote.State[i])
	}
	obs(local.Steady.Thrust, remote.Steady.Thrust)
	obs(local.Final.Thrust, remote.Final.Thrust)
	obs(local.Steady.T4, remote.Steady.T4)
	obs(local.Final.T4, remote.Final.T4)
	return worst
}

type table2 struct {
	spec  table2Spec
	tb    *exper.Testbed
	exec  *core.Executive
	ctx   *traceCtx // nil in the untraced run
	local *core.RunResult
}

func setupTable2(wan bool) func(seed int64, tr *tracer) (instance, error) {
	// The all-local answer per seed: set-up runs several times per
	// process and the reference is not part of what it measures.
	references := make(map[int64]*core.RunResult)
	return func(seed int64, tr *tracer) (instance, error) {
		spec := newTable2Spec(wan, seed)
		local := references[seed]
		if local == nil {
			var err error
			if local, _, err = spec.runLocal(); err != nil {
				return nil, fmt.Errorf("local reference run: %w", err)
			}
			references[seed] = local
		}
		tb, err := exper.NewTestbed(exper.SparcUA)
		if err != nil {
			return nil, err
		}
		tb.Net.SetTimeScale(spec.TimeScale)
		t := &table2{spec: spec, tb: tb, local: local}
		if t.exec, err = tb.NewExecutive(); err != nil {
			tb.Stop()
			return nil, err
		}
		if tr != nil {
			if t.exec.Client.Transport, t.ctx, err = traceTestbed(tb, tr); err != nil {
				t.close()
				return nil, err
			}
		}
		if err := spec.configure(t.exec); err != nil {
			t.close()
			return nil, err
		}
		for inst, host := range exper.Table2Placements() {
			if err := t.exec.SetRemote(inst, host, ""); err != nil {
				t.close()
				return nil, err
			}
		}
		// Warm-up: starts the six lines and their remote processes.
		if _, err := t.exec.Run(spec.opts()); err != nil {
			t.close()
			return nil, fmt.Errorf("warm-up run: %w", err)
		}
		return t, nil
	}
}

// clientCounters are the always-on Schooner counters a run is read by.
var clientCounters = []string{"calls", "rpcs", "retries", "rebinds", "timeouts", "call_failures"}

func readClientCounters() map[string]int64 {
	out := make(map[string]int64, len(clientCounters))
	for _, c := range clientCounters {
		out[c] = trace.Get("schooner.client." + c)
	}
	return out
}

// faultCounters books what should stay zero on a healthy run (and, on
// ctl-churn, the one rebind every move causes).
func faultCounters(m *measurement, before, after map[string]int64) {
	for _, c := range []string{"retries", "rebinds", "timeouts", "call_failures"} {
		m.Layer["schooner."+c] = float64(after[c] - before[c])
	}
}

func (t *table2) measure(d time.Duration) (*measurement, error) {
	var runs int64
	var newton int
	t.tb.Net.ResetStats()
	before := readClientCounters()
	m, err := closedLoop(d, 1, func(_ int, m *measurement) error {
		c0 := readClientCounters()
		if t.ctx != nil {
			defer t.ctx.unit()()
		}
		t0 := time.Now()
		res, err := t.exec.Run(t.spec.opts())
		wait := time.Since(t0)
		c1 := readClientCounters()
		calls := c1["calls"] - c0["calls"]
		runs++
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: run failed:", err)
			m.record(wait, max(calls, 1), false)
			return nil
		}
		newton = res.SteadyIters
		m.record(wait, calls, maxRelErr(t.local, res) <= 1e-9 && c1["rpcs"]-c0["rpcs"] <= calls)
		return nil
	})
	if err != nil {
		return nil, err
	}
	after := readClientCounters()
	n := float64(runs)
	calls := float64(after["calls"] - before["calls"])
	rpcs := float64(after["rpcs"] - before["rpcs"])
	m.Layer["core.calls_per_run"] = calls / n
	m.Layer["schooner.rpcs_per_run"] = rpcs / n
	m.Layer["schooner.batch_fill"] = calls / rpcs
	m.Layer["engine.evals_per_run"] = calls / n / float64(len(exper.Table2Placements()))
	m.Layer["solver.newton_iters"] = float64(newton)
	m.Layer["netsim.simnet_s_per_run"] = t.tb.Net.TotalSimDelay().Seconds() / n
	for _, st := range t.tb.Net.Stats() {
		m.Layer["netsim.msgs_per_run"] += float64(st.Messages) / n
		m.Layer["netsim.bytes_per_run"] += float64(st.Bytes) / n
	}
	faultCounters(m, before, after)
	return m, nil
}

func (t *table2) close() error {
	if t.exec != nil {
		t.exec.Destroy()
	}
	t.tb.Stop()
	return nil
}

// model prices one run: the all-local run plus, per remote call, the
// ladder's shaft-shaped call. The four adapted procedures take about
// ten values each, and for the two ducts of the six modules the remote
// half of the native conversions is the Cray's. The simulated sleeping
// of table2-wan is not a rung, so there the model is the software share.
func (t *table2) model(rung map[string]float64, m *measurement) (waitUS, codecUS float64, extra map[string]float64, err error) {
	local, err := localRunRung(t.spec)
	if err != nil {
		return 0, 0, nil, err
	}
	const values, crayShare = 10, 2.0 / 6
	ieee, cray := rung["machine.roundtrip_ns.ieee"], rung["machine.roundtrip_ns.cray"]
	conv := values * (2*ieee + 2*((1-crayShare)*ieee+crayShare*cray))
	codec := rung["uts.encode_shaft_ns"] + rung["uts.decode_shaft_ns"]
	frames := 2 * (rung["wire.encode_call_ns"] + rung["wire.decode_call_ns"])
	perCall := rung["schooner.shaft_call_ns"] + 2*values*crayShare*(cray-ieee)
	calls := m.Layer["core.calls_per_run"]
	extra = map[string]float64{
		"core.run_local_s":           local,
		"core.remote_overhead_ratio": median(micros(m.Waits)) / 1e6 / local,
	}
	return local*1e6 + calls*perCall/1e3, calls * (codec + conv + frames) / 1e3, extra, nil
}
