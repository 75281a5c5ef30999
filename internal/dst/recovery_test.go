package dst

import (
	"reflect"
	"strings"
	"testing"
)

// replayClean runs a scripted schedule and fails the test on any error
// or invariant violation, returning the result for assertions.
func replayClean(t *testing.T, cfg Config, ops []Op) *Result {
	t.Helper()
	res, err := Replay(cfg, ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %s\n%s", res.Violation, FormatTrace(cfg.Seed, ops))
	}
	return res
}

// TestCheckpointRestoreUnderDST is the scripted stateful-failover
// scenario: kill the host of the stateful accumulator mid-workload
// after an acked checkpoint. The cluster must converge with the state
// restored — failover_restored_stateful increments and
// failover_skipped_stateful stays flat — and the whole run must replay
// bit-identically from the single seed.
func TestCheckpointRestoreUnderDST(t *testing.T) {
	cfg := Config{Seed: 101, Hosts: 3}
	ops := []Op{
		{Kind: OpAcc, ID: accIDBase + 1},
		{Kind: OpAcc, ID: accIDBase + 2},
		{Kind: OpCheckpointNow},
		{Kind: OpAcc, ID: accIDBase + 3},
		{Kind: OpCrash, Host: "h2"}, // the accumulator's home machine
		{Kind: OpSettle, N: 20},     // health declares h2 dead; failover restores
		{Kind: OpAcc, ID: accIDBase + 4},
		{Kind: OpRestore, Host: "h2"},
		{Kind: OpSettle, N: 10},
	}
	res := replayClean(t, cfg, ops)
	if n := res.Signature["schooner.manager.failover_restored_stateful"]; n < 1 {
		t.Errorf("stateful restore never happened; signature %v", res.Signature)
	}
	if n := res.Signature["schooner.manager.failover_skipped_stateful"]; n != 0 {
		t.Errorf("%d stateful failovers skipped despite an acked checkpoint", n)
	}
	again := replayClean(t, cfg, ops)
	if !reflect.DeepEqual(res.Signature, again.Signature) {
		t.Errorf("signature diverged across identical runs:\nfirst:  %v\nsecond: %v", res.Signature, again.Signature)
	}
	if !reflect.DeepEqual(res.Outcomes, again.Outcomes) {
		t.Errorf("outcomes diverged across identical runs:\nfirst:  %v\nsecond: %v", res.Outcomes, again.Outcomes)
	}
}

// TestManagerCrashRecoveryUnderDST is the scripted control-plane crash
// scenario: the Manager dies abruptly mid-workload and restarts from
// its journal. Cached call paths keep working during the outage, the
// recovered name database must match the pre-crash snapshot (checked
// inside OpManagerRecover), and administration works again afterward.
func TestManagerCrashRecoveryUnderDST(t *testing.T) {
	cfg := Config{Seed: 103, Hosts: 3}
	ops := []Op{
		{Kind: OpSpawnLine, Line: 0},
		{Kind: OpStartProc, Line: 0, Host: "h1"},
		{Kind: OpCall, Line: 0, N: 2, ID: 1},
		{Kind: OpCheckpointNow},
		{Kind: OpManagerCrash},
		{Kind: OpCall, Line: 0, N: 1, ID: 3}, // cached binding, no Manager needed
		{Kind: OpManagerRecover},
		{Kind: OpCall, Line: 0, N: 1, ID: 4},
		{Kind: OpMove, Line: 0, Host: "h3"}, // post-recovery administration
	}
	res := replayClean(t, cfg, ops)
	if n := res.Signature["schooner.manager.recoveries"]; n != 1 {
		t.Errorf("got %d recoveries, want 1; signature %v", n, res.Signature)
	}
	if n := res.Signature["schooner.manager.readopted"]; n < 2 {
		t.Errorf("recovery re-adopted only %d processes", n)
	}
	if !strings.HasSuffix(res.Outcomes[5], "ok=1/1") {
		t.Errorf("cached call during Manager outage did not succeed: %q", res.Outcomes[5])
	}
	again := replayClean(t, cfg, ops)
	if !reflect.DeepEqual(res.Signature, again.Signature) {
		t.Errorf("signature diverged across identical runs:\nfirst:  %v\nsecond: %v", res.Signature, again.Signature)
	}
}

// TestStandbyTakeoverUnderDST is the scripted leader-kill scenario with
// a warm standby: the leader Manager dies mid-workload, the standby
// detects the missed heartbeats, promotes itself from its mirrored
// journal, and clients reattach — the run converges without the leader
// ever coming back.
func TestStandbyTakeoverUnderDST(t *testing.T) {
	cfg := Config{Seed: 202, Hosts: 3, Standby: true}
	ops := []Op{
		{Kind: OpAcc, ID: accIDBase + 1},
		{Kind: OpWork, ID: workIDBase + 1},
		{Kind: OpCheckpointNow},
		{Kind: OpSettle, N: 10}, // let the standby's journal tail catch up
		{Kind: OpManagerCrash},
		{Kind: OpSettle, N: 30}, // heartbeats miss; the standby takes over
		{Kind: OpWork, ID: workIDBase + 2},
		{Kind: OpAcc, ID: accIDBase + 2},
	}
	res := replayClean(t, cfg, ops)
	if n := res.Signature["schooner.manager.standby_takeovers"]; n != 1 {
		t.Errorf("got %d takeovers, want 1; signature %v", n, res.Signature)
	}
	if n := res.Signature["schooner.client.reattaches"]; n < 1 {
		t.Errorf("no client ever reattached to the promoted Manager; signature %v", res.Signature)
	}
	again := replayClean(t, cfg, ops)
	if !reflect.DeepEqual(res.Signature, again.Signature) {
		t.Errorf("signature diverged across identical runs:\nfirst:  %v\nsecond: %v", res.Signature, again.Signature)
	}
}

// TestStandbyConvergeWaitsForPromotedManager is the regression for a
// harness race: seed 194 crashes the leader late enough that the final
// convergence check found the standby promoted (TookOver) while its
// Manager was still replaying the journal and pinging processes, and
// reported a false "no-takeover". The check waits for the Manager.
func TestStandbyConvergeWaitsForPromotedManager(t *testing.T) {
	res, err := Run(Config{Seed: 194, Ops: 200, Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("seed 194: %s\n%s", res.Violation, FormatTrace(194, res.Ops))
	}
	if n := res.Signature["schooner.manager.standby_takeovers"]; n != 1 {
		t.Errorf("got %d takeovers, want 1", n)
	}
}
