package dst

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs one scenario end to end and sanity-checks the result
// shape; it is the fast canary for harness regressions.
func TestSmoke(t *testing.T) {
	res, err := Run(Config{Seed: 1, Ops: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("unexpected violation:\n%s\n%s", res.Violation, FormatTrace(res.Seed, res.Ops))
	}
	if len(res.Outcomes) != len(res.Ops) {
		t.Fatalf("got %d outcomes for %d ops", len(res.Outcomes), len(res.Ops))
	}
	if res.Signature["schooner.client.calls"] == 0 {
		t.Fatalf("no calls recorded; signature %v", res.Signature)
	}
}

// TestSweep drives a few hundred seeds through full scenarios —
// crashes, partitions, migrations, timeouts — expecting zero invariant
// violations. Every tenth seed is run twice to confirm the schedule
// and the metric signature replay identically.
func TestSweep(t *testing.T) {
	defer Watchdog(5 * time.Minute)()
	seeds := 200
	if testing.Short() {
		seeds = 25
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		cfg := Config{Seed: seed, Ops: 30}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Violation != nil {
			t.Fatalf("seed %d: %s\n%s", seed, res.Violation, FormatTrace(seed, res.Ops))
		}
		if seed%10 != 0 {
			continue
		}
		again, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d rerun: %v", seed, err)
		}
		if !reflect.DeepEqual(res.Ops, again.Ops) {
			t.Fatalf("seed %d: schedule not deterministic", seed)
		}
		if !reflect.DeepEqual(res.Outcomes, again.Outcomes) {
			t.Fatalf("seed %d: outcomes diverged:\nfirst:  %v\nsecond: %v", seed, res.Outcomes, again.Outcomes)
		}
		if !reflect.DeepEqual(res.Signature, again.Signature) {
			t.Fatalf("seed %d: signature diverged:\nfirst:  %v\nsecond: %v", seed, res.Signature, again.Signature)
		}
	}
}

// TestSeedReplayIdentical reruns one seed several times and demands
// bit-identical schedules, outcome logs, and metric signatures — the
// property that makes "reproduce with -seed N" meaningful.
func TestSeedReplayIdentical(t *testing.T) {
	cfg := Config{Seed: 42, Ops: 40}
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Ops, res.Ops) {
			t.Fatalf("run %d: schedule diverged", i)
		}
		if !reflect.DeepEqual(first.Outcomes, res.Outcomes) {
			t.Fatalf("run %d: outcomes diverged:\nfirst: %v\n now:  %v", i, first.Outcomes, res.Outcomes)
		}
		if !reflect.DeepEqual(first.Signature, res.Signature) {
			t.Fatalf("run %d: signature diverged:\nfirst: %v\n now:  %v", i, first.Signature, res.Signature)
		}
	}
}

// TestInjectedViolationShrinks plants a double-commit bug, confirms
// the harness catches it, shrinks the trace, and replays the shrunk
// trace to the same failure.
func TestInjectedViolationShrinks(t *testing.T) {
	cfg := Config{Seed: 7, Ops: 15, Inject: "double-commit"}
	var res *Result
	var err error
	// Not every short schedule reaches an id%5==3 bump call; scan a few
	// seeds for one that does.
	for seed := int64(1); seed <= 40; seed++ {
		cfg.Seed = seed
		res, err = Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			break
		}
	}
	if res.Violation == nil {
		t.Fatal("injected double-commit never detected across 40 seeds")
	}
	if res.Violation.Name != "double-commit" {
		t.Fatalf("wrong violation: %s", res.Violation)
	}
	t.Logf("violation at seed %d: %s", cfg.Seed, res.Violation)

	shrunk, err := Shrink(cfg, res.Ops, "double-commit")
	if err != nil {
		t.Fatal(err)
	}
	if len(shrunk) >= len(res.Ops) {
		t.Fatalf("shrink removed nothing: %d -> %d ops", len(res.Ops), len(shrunk))
	}
	t.Logf("shrunk %d ops -> %d:\n%s", len(res.Ops), len(shrunk), FormatTrace(cfg.Seed, shrunk))

	replayed, err := Replay(cfg, shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Violation == nil || replayed.Violation.Name != "double-commit" {
		t.Fatalf("shrunk trace does not reproduce the failure: %v", replayed.Violation)
	}
}

// TestRetryCountersIdenticalAcrossRuns is the regression for
// deterministic retry jitter: two chaos runs of the identical schedule
// — the work procedure's home machine crashed under live traffic, so
// calls must time out and retry — produce identical retry, timeout,
// and rebind counters. This holds only because every cluster's
// simulated network starts its retry-jitter source at the same seed.
func TestRetryCountersIdenticalAcrossRuns(t *testing.T) {
	cfg := Config{Seed: 11, Hosts: 3}
	ops := []Op{
		{Kind: OpCrash, Host: "h1"},
		{Kind: OpWork, ID: workIDBase + 1},
		{Kind: OpWork, ID: workIDBase + 2},
		{Kind: OpRestore, Host: "h1"},
		{Kind: OpSettle, N: 10},
	}
	first, err := Replay(cfg, ops)
	if err != nil {
		t.Fatal(err)
	}
	if first.Violation != nil {
		t.Fatalf("unexpected violation: %s", first.Violation)
	}
	if first.Signature["schooner.client.retries"] == 0 {
		t.Fatalf("schedule produced no retries; signature %v", first.Signature)
	}
	second, err := Replay(cfg, ops)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{
		"schooner.client.retries",
		"schooner.client.timeouts",
		"schooner.client.rebinds",
		"dst.calls.ok",
		"dst.calls.fail",
	} {
		if first.Signature[k] != second.Signature[k] {
			t.Errorf("%s diverged across identical-seed runs: %d then %d",
				k, first.Signature[k], second.Signature[k])
		}
	}
}

// TestVirtualTimeNotWallTime pins down the economics of the harness:
// a scenario covering seconds of simulated time — retries, backoffs,
// deadline expiries, health probe periods — must finish in far less
// real time than it simulates.
func TestVirtualTimeNotWallTime(t *testing.T) {
	res, err := Run(Config{Seed: 3, Ops: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %s", res.Violation)
	}
	if res.VirtualElapsed < time.Second {
		t.Fatalf("scenario covered only %v of virtual time; expected over a second", res.VirtualElapsed)
	}
	if res.RealElapsed > res.VirtualElapsed {
		t.Fatalf("real time %v exceeded virtual time %v: something slept on the wall clock", res.RealElapsed, res.VirtualElapsed)
	}
}

// TestSeriesReplayIdentical runs the same schedule twice with the
// windowed sampler on and demands byte-identical series JSON — the
// property that lets a chaos report from a DST run be regenerated
// from nothing but the seed.
func TestSeriesReplayIdentical(t *testing.T) {
	cfg := Config{Seed: 42, Ops: 40, Hosts: 3, SeriesInterval: 50 * time.Millisecond}
	ops := Generate(cfg.Seed, cfg.Ops, workerHosts(cfg.Hosts))
	first, err := Replay(cfg, ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Series.Windows) == 0 {
		t.Fatal("sampler produced no windows")
	}
	// Nothing is held back from the comparison: the heartbeat families,
	// which tick on through convergence and into the final window, are
	// in the series like every other counter.
	var sampled, beats int64
	for _, w := range first.Series.Windows {
		sampled += w.Counters["schooner.client.calls"]
		beats += w.Counters["schooner.manager.heartbeats"]
	}
	if sampled == 0 || beats == 0 {
		t.Fatalf("windows carry %d client calls and %d heartbeats:\n%s", sampled, beats, first.Series.Format())
	}
	firstJSON, err := first.Series.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := Replay(cfg, ops)
		if err != nil {
			t.Fatal(err)
		}
		resJSON, err := res.Series.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(firstJSON, resJSON) {
			t.Fatalf("run %d: series diverged:\nfirst:\n%s\nnow:\n%s",
				i, first.Series.Format(), res.Series.Format())
		}
	}
}

// TestSeriesOffByDefault confirms a plain run allocates no sampler
// and returns an empty series.
func TestSeriesOffByDefault(t *testing.T) {
	res, err := Run(Config{Seed: 3, Ops: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series.Windows) != 0 {
		t.Fatalf("series sampled without SeriesInterval: %d windows", len(res.Series.Windows))
	}
}

// TestProfileReplayIdentical is the determinism contract of the
// attribution plane: two runs of the same seed with profiling on must
// encode byte-identical critical-path profiles, because every span
// timestamp reads the virtual clock and the capture happens at the
// convergence check, before the schedule-dependent teardown tail.
func TestProfileReplayIdentical(t *testing.T) {
	cfg := Config{Seed: 7, Ops: 30, Profile: true}
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Violation != nil {
		t.Fatalf("unexpected violation: %s", first.Violation)
	}
	if first.Profile == nil || first.Profile.Spans == 0 {
		t.Fatalf("profiling on but no spans captured: %+v", first.Profile)
	}
	if first.Profile.Total.CriticalPath <= 0 {
		t.Fatalf("empty critical path:\n%s", first.Profile.Format())
	}
	firstJSON, err := first.Profile.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Profile == nil {
			t.Fatalf("run %d: no profile", i)
		}
		if resJSON, err := res.Profile.EncodeJSON(); err != nil || !bytes.Equal(firstJSON, resJSON) {
			t.Fatalf("run %d: profile diverged:\nfirst:\n%s\nnow:\n%s",
				i, first.Profile.Format(), res.Profile.Format())
		}
	}
}

// TestProfileOffByDefault confirms a plain run installs no span
// recorder and returns no profile.
func TestProfileOffByDefault(t *testing.T) {
	res, err := Run(Config{Seed: 3, Ops: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile != nil {
		t.Fatalf("profile captured without Config.Profile: %d spans", res.Profile.Spans)
	}
}

// TestBatchOpsReachServers checks DST drives the batch path production
// takes: a clean run whose schedule includes batch ops has envelopes
// served by the machines' Servers, not just sent.
func TestBatchOpsReachServers(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		res, err := Run(Config{Seed: seed, Ops: 30})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Violation != nil || !slices.ContainsFunc(res.Ops, func(op Op) bool { return op.Kind == OpBatch }) {
			continue
		}
		if got := res.Metrics.Counters["schooner.server.batches"]; got == 0 {
			t.Fatalf("seed %d ran batch ops, but no Server served an envelope", seed)
		}
		return
	}
	t.Fatal("no clean run with a batch op in seeds 1-20")
}

// TestViolationDumpCarriesSeriesTail: a violation's flight dump is
// taken while the run's sampler is still installed, so the post-mortem
// shows the windows before the failure, exactly once.
func TestViolationDumpCarriesSeriesTail(t *testing.T) {
	res, err := Run(Config{Seed: 1, Ops: 60, Inject: "double-commit", SeriesInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("injected double-commit not detected")
	}
	if n := strings.Count(res.FlightDump, "-- series tail --"); n != 1 {
		t.Errorf("flight dump has %d series tail sections, want 1:\n%s", n, res.FlightDump)
	}
}
