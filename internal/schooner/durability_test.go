package schooner

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"npss/internal/flight"
	"npss/internal/machine"
	"npss/internal/trace"
	"npss/internal/uts"
	"npss/internal/wal"
	"npss/internal/wire"
)

// durableDeployment is a deployment whose Manager journals to a WAL
// backend (in memory unless the test supplies one). The backend
// outlives Manager crashes, so a recovered incarnation replays what
// its predecessor wrote.
type durableDeployment struct {
	*deployment
	backend wal.Backend
}

func newDurableDeployment(t *testing.T, mgrHost string, hosts map[string]*machine.Arch) *durableDeployment {
	t.Helper()
	return newDurableDeploymentOn(t, wal.NewMemBackend(), mgrHost, hosts)
}

func newDurableDeploymentOn(t *testing.T, backend wal.Backend, mgrHost string, hosts map[string]*machine.Arch) *durableDeployment {
	t.Helper()
	d := newWallRig(t, mgrHost, hosts)
	log, err := wal.Open(backend, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := StartManagerConfig(d.tr, mgrHost, ManagerConfig{Journal: log})
	if err != nil {
		t.Fatal(err)
	}
	d.mgr = mgr
	d.startServers(t, hosts)
	return &durableDeployment{deployment: d, backend: backend}
}

// recoverManager crashes nothing: it opens a fresh log over the shared
// backend (repairing any torn tail) and starts a recovered Manager on
// the same host. The caller must have crashed the previous one.
func (dd *durableDeployment) recoverManager(t *testing.T) *Manager {
	t.Helper()
	log, err := wal.Open(dd.backend, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := StartManagerConfig(dd.tr, dd.mgrHost, ManagerConfig{Journal: log, Recover: true})
	if err != nil {
		t.Fatal(err)
	}
	dd.mgr = m
	return m
}

// procAddr finds the address of a line's process by path (white-box).
func procAddr(m *Manager, lineID uint32, path string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ln := m.shared
	if lineID != 0 {
		ln = m.lines[lineID]
	}
	if ln == nil {
		return ""
	}
	for _, p := range ln.processes {
		if p.path == path {
			return p.addr
		}
	}
	return ""
}

// TestManagerCrashRecovery is the core durability round trip: the
// Manager crashes with lines, processes, and shared procedures live;
// a -recover restart rebuilds an identical name database from the
// journal, re-adopts the surviving processes, and the client's line
// keeps working through reattach.
func TestManagerCrashRecovery(t *testing.T) {
	dd := newDurableDeployment(t, "avs-sparc", ieeeHosts())
	dd.reg.MustRegister(adderProgram("/npss/adder"))
	dd.reg.MustRegister(counterProgram("/npss/counter"))

	ln, err := dd.client("rs6000").ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	if err := ln.StartShared("/npss/counter", "rs6000"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	ln.Import(uts.MustParseProc(`import next prog("n" res integer)`))
	for i := 1; i <= 3; i++ {
		out, err := ln.Call("next")
		if err != nil || out[0].I != int64(i) {
			t.Fatalf("pre-crash next #%d: %v %v", i, out, err)
		}
	}
	preLine := dd.mgr.NameBindings(ln.ID())
	preShared := dd.mgr.NameBindings(0)
	readoptedBefore := trace.Get("schooner.manager.readopted")

	dd.mgr.Crash()
	m2 := dd.recoverManager(t)

	if got := m2.NameBindings(ln.ID()); !reflect.DeepEqual(got, preLine) {
		t.Errorf("recovered line DB = %v, want %v", got, preLine)
	}
	if got := m2.NameBindings(0); !reflect.DeepEqual(got, preShared) {
		t.Errorf("recovered shared DB = %v, want %v", got, preShared)
	}
	if got := trace.Get("schooner.manager.readopted"); got < readoptedBefore+2 {
		t.Errorf("readopted = %d, want at least 2 more than %d", got, readoptedBefore)
	}
	// The line's Manager connection died with the crash; the next
	// manager-bound operation reattaches transparently. The counter
	// process itself never died, so its state is intact.
	ln.FlushCache()
	out, err := ln.Call("next")
	if err != nil {
		t.Fatalf("post-recovery call: %v", err)
	}
	if out[0].I != 4 {
		t.Errorf("post-recovery next = %d, want 4 (state preserved across manager crash)", out[0].I)
	}
	if err := ln.IQuit(); err != nil {
		t.Errorf("IQuit after recovery: %v", err)
	}
	if m2.LineCount() != 0 {
		t.Errorf("line survived IQuit at recovered manager")
	}
}

// TestRecoveryFailsOverDeadProcesses: a process that died with its
// host while the Manager was down is failed over during recovery, not
// re-adopted.
func TestRecoveryFailsOverDeadProcesses(t *testing.T) {
	dd := newDurableDeployment(t, "avs-sparc", ieeeHosts())
	dd.reg.MustRegister(adderProgram("/npss/adder"))
	ln, err := dd.client("avs-sparc").ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	dd.mgr.Crash()
	// The process's host dies while no Manager is watching.
	dd.net.SetHostDown("sgi-lerc", true)
	m2 := dd.recoverManager(t)
	bindings := m2.NameBindings(ln.ID())
	if len(bindings) == 0 {
		t.Fatal("no bindings after recovery")
	}
	for name, host := range bindings {
		if host == "sgi-lerc" {
			t.Errorf("%q still mapped to the dead host after recovery", name)
		}
	}
}

// TestCheckpointRestoreFailover is the stateful-failover acceptance
// path at the package level: a checkpointed counter's host dies, the
// health monitor restores the counter elsewhere from the last acked
// checkpoint, and the value stays monotonic.
func TestCheckpointRestoreFailover(t *testing.T) {
	dd := newDurableDeployment(t, "avs-sparc", ieeeHosts())
	dd.reg.MustRegister(counterProgram("/npss/counter"))
	ln, err := dd.clientWith("avs-sparc", CallPolicy{Timeout: 100 * time.Millisecond, MaxRetries: 30,
		Backoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond}).ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/counter", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import next prog("n" res integer)`))
	for i := 1; i <= 5; i++ {
		if _, err := ln.Call("next"); err != nil {
			t.Fatal(err)
		}
	}
	if snaps, fails := dd.mgr.CheckpointNow(); snaps != 1 || fails != 0 {
		t.Fatalf("CheckpointNow = %d snapshots, %d failures", snaps, fails)
	}
	// Two more bumps after the checkpoint: restore may legally lose
	// these (bounded staleness), but never the checkpointed 5.
	for i := 0; i < 2; i++ {
		if _, err := ln.Call("next"); err != nil {
			t.Fatal(err)
		}
	}

	restoredBefore := trace.Get("schooner.manager.failover_restored_stateful")
	skippedBefore := trace.Get("schooner.manager.failover_skipped_stateful")
	dd.mgr.StartHealth(HealthPolicy{Interval: 5 * time.Millisecond, Threshold: 2, PingTimeout: 50 * time.Millisecond})
	dd.net.SetHostDown("sgi-lerc", true)

	deadline := time.Now().Add(5 * time.Second)
	for trace.Get("schooner.manager.failover_restored_stateful") == restoredBefore {
		if time.Now().After(deadline) {
			t.Fatal("stateful restore never happened")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := trace.Get("schooner.manager.failover_skipped_stateful"); got != skippedBefore {
		t.Errorf("failover_skipped_stateful moved %d -> %d during a restorable failover", skippedBefore, got)
	}
	out, err := ln.Call("next")
	if err != nil {
		t.Fatalf("call after restore: %v", err)
	}
	// Checkpoint held 5; the restored counter's next bump must be ≥ 6.
	if out[0].I < 6 {
		t.Errorf("restored counter = %d, want >= 6 (never older than the last acked checkpoint)", out[0].I)
	}
	ledger := dd.mgr.RestoreLedger()
	if len(ledger) != 1 {
		t.Fatalf("restore ledger = %v, want one entry", ledger)
	}
	for addr, n := range ledger {
		if n != 1 {
			t.Errorf("instance %s restored %d times, want exactly once", addr, n)
		}
	}
}

// TestFailoverSkipIsLoud: without a checkpoint the stateful proc is
// still skipped, but now with a flight-recorder event naming it.
func TestFailoverSkipIsLoud(t *testing.T) {
	prev := flight.Swap(nil)
	defer flight.Swap(prev)
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(counterProgram("/npss/counter"))
	ln, err := d.client("avs-sparc").ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/counter", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	skippedBefore := trace.Get("schooner.manager.failover_skipped_stateful")
	d.mgr.StartHealth(HealthPolicy{Interval: 5 * time.Millisecond, Threshold: 2, PingTimeout: 50 * time.Millisecond})
	d.net.SetHostDown("sgi-lerc", true)
	deadline := time.Now().Add(5 * time.Second)
	for trace.Get("schooner.manager.failover_skipped_stateful") == skippedBefore {
		if time.Now().After(deadline) {
			t.Fatal("skip never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	found := false
	for _, e := range flight.Default().Events() {
		if e.Kind == flight.KindFailoverSkip && e.Name == "/npss/counter" {
			found = true
			break
		}
	}
	if !found {
		t.Error("no KindFailoverSkip flight event names the lost procedure")
	}
}

// TestJournalTailStreams: a KJournalTail subscriber receives the full
// snapshot and then live appends, in order.
func TestJournalTailStreams(t *testing.T) {
	dd := newDurableDeployment(t, "avs-sparc", ieeeHosts())
	dd.reg.MustRegister(adderProgram("/npss/adder"))
	ln, err := dd.client("avs-sparc").ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}

	conn, err := dd.tr.Dial("rs6000", "avs-sparc:"+ManagerPort)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(&wire.Message{Kind: wire.KJournalTail}); err != nil {
		t.Fatal(err)
	}
	// Snapshot: the line registration plus the install.
	var last uint64
	for i := 0; i < 2; i++ {
		m, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind != wire.KOK || len(m.Data) < 8 {
			t.Fatalf("entry %d = %v", i, m)
		}
		seq := binary.BigEndian.Uint64(m.Data)
		if seq <= last {
			t.Fatalf("sequence not increasing: %d then %d", last, seq)
		}
		last = seq
	}
	// A live mutation streams to the open subscription.
	ln2, err := dd.client("rs6000").ContactSchx("live")
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.IQuit()
	m, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != wire.KOK {
		t.Fatalf("live entry = %v", m)
	}
}

// TestStandbyTakeover: the warm standby mirrors the leader's journal,
// detects its death, promotes itself, and the client line recovers by
// reattaching to the standby host.
func TestStandbyTakeover(t *testing.T) {
	dd := newDurableDeployment(t, "avs-sparc", ieeeHosts())
	dd.reg.MustRegister(counterProgram("/npss/counter"))

	standbyLog, err := wal.Open(wal.NewMemBackend(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sb := StartStandby(dd.tr, "rs6000", "avs-sparc", standbyLog, StandbyPolicy{
		HeartbeatInterval: 5 * time.Millisecond,
		Threshold:         2,
		PingTimeout:       50 * time.Millisecond,
		Health:            HealthPolicy{Interval: 5 * time.Millisecond, Threshold: 2, PingTimeout: 50 * time.Millisecond},
	})
	t.Cleanup(func() {
		sb.Stop()
		if m := sb.Manager(); m != nil {
			m.Stop()
		}
	})

	c := dd.clientWith("sgi-lerc", CallPolicy{Timeout: 100 * time.Millisecond, MaxRetries: 30,
		Backoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond})
	c.Managers = []string{"rs6000"}
	ln, err := c.ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.StartRemote("/npss/counter", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import next prog("n" res integer)`))
	for i := 1; i <= 4; i++ {
		if _, err := ln.Call("next"); err != nil {
			t.Fatal(err)
		}
	}
	// Let the mirror catch up with the journal before the crash.
	leaderSeq := dd.mgr.JournalSeq()
	deadline := time.Now().Add(5 * time.Second)
	for standbyLog.LastSeq() < leaderSeq {
		if time.Now().After(deadline) {
			t.Fatalf("standby mirror at %d, leader at %d", standbyLog.LastSeq(), leaderSeq)
		}
		time.Sleep(5 * time.Millisecond)
	}

	dd.mgr.Crash()
	for !sb.TookOver() || sb.Manager() == nil {
		if time.Now().After(deadline) {
			t.Fatal("standby never took over")
		}
		time.Sleep(5 * time.Millisecond)
	}
	m2 := sb.Manager()
	if got := m2.NameBindings(ln.ID()); len(got) == 0 {
		t.Fatal("promoted manager has no bindings for the line")
	}
	// A manager-bound operation reattaches the line to the standby; the
	// counter process survived, so its state carries over.
	ln.FlushCache()
	out, err := ln.Call("next")
	if err != nil {
		t.Fatalf("call after takeover: %v", err)
	}
	if out[0].I != 5 {
		t.Errorf("counter after takeover = %d, want 5", out[0].I)
	}
	if err := ln.IQuit(); err != nil {
		t.Errorf("IQuit after takeover: %v", err)
	}
}

// TestStateTransferFaultPaths covers the KStateGet/KStatePut error
// surface the restore path depends on: truncated payloads, state
// installs against procedures with no state clause, and dead hosts
// mid-transfer.
func TestStateTransferFaultPaths(t *testing.T) {
	dd := newDurableDeployment(t, "avs-sparc", ieeeHosts())
	dd.reg.MustRegister(adderProgram("/npss/adder"))
	dd.reg.MustRegister(counterProgram("/npss/counter"))
	ln, err := dd.client("avs-sparc").ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	if err := ln.StartRemote("/npss/counter", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	counterAddr := procAddr(dd.mgr, ln.ID(), "/npss/counter")
	adderAddr := procAddr(dd.mgr, ln.ID(), "/npss/adder")
	if counterAddr == "" || adderAddr == "" {
		t.Fatal("process addresses not found")
	}

	roundTrip := func(addr string, req *wire.Message) *wire.Message {
		t.Helper()
		conn, err := dd.tr.Dial("avs-sparc", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := conn.Send(req); err != nil {
			t.Fatal(err)
		}
		resp, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Baseline: a real state capture succeeds.
	ok := roundTrip(counterAddr, &wire.Message{Kind: wire.KStateGet, Name: "next"})
	if ok.Kind != wire.KOK {
		t.Fatalf("StateGet = %v", ok)
	}
	// Truncated state payload: the install must fail loudly, not
	// install garbage.
	if len(ok.Data) < 2 {
		t.Fatalf("state payload too small to truncate: %d bytes", len(ok.Data))
	}
	resp := roundTrip(counterAddr, &wire.Message{Kind: wire.KStatePut, Name: "next", Data: ok.Data[:len(ok.Data)-1]})
	if resp.Kind != wire.KError {
		t.Errorf("truncated StatePut accepted: %v", resp)
	}
	// State-clause mismatch: installing counter state into a procedure
	// that declares no state.
	resp = roundTrip(adderAddr, &wire.Message{Kind: wire.KStatePut, Name: "add", Data: ok.Data})
	if resp.Kind != wire.KError {
		t.Errorf("StatePut against stateless procedure accepted: %v", resp)
	}
	// StateGet for an unknown procedure.
	resp = roundTrip(counterAddr, &wire.Message{Kind: wire.KStateGet, Name: "nonesuch"})
	if resp.Kind != wire.KError {
		t.Errorf("StateGet for unknown procedure = %v", resp)
	}

	// Dead target host mid-restore: capture and install both fail with
	// errors rather than hanging.
	state, err := dd.mgr.captureState(&remoteProc{
		addr:    counterAddr,
		exports: []*uts.ProcSpec{uts.MustParseProc(`export next prog("n" res integer) state("count" integer)`)},
	})
	if err != nil || len(state) != 1 {
		t.Fatalf("captureState baseline: %v %v", state, err)
	}
	dd.net.SetHostDown("sgi-lerc", true)
	if _, err := dd.mgr.captureState(&remoteProc{
		addr:    counterAddr,
		exports: []*uts.ProcSpec{uts.MustParseProc(`export next prog("n" res integer) state("count" integer)`)},
	}); err == nil {
		t.Error("captureState against a dead host succeeded")
	}
	if err := dd.mgr.installState(&remoteProc{addr: counterAddr}, state); err == nil {
		t.Error("installState against a dead host succeeded")
	}
	// CheckpointNow surfaces the unreachable process as a failure.
	if _, fails := dd.mgr.CheckpointNow(); fails == 0 {
		t.Error("CheckpointNow counted no failure for the dead host")
	}
}

// TestCheckpointLoopRunsOnPackageClock: the periodic sweep ticks and
// journals without any real-time dependency beyond the interval.
func TestCheckpointLoopRunsOnPackageClock(t *testing.T) {
	dd := newDurableDeployment(t, "avs-sparc", ieeeHosts())
	dd.reg.MustRegister(counterProgram("/npss/counter"))
	ln, err := dd.client("avs-sparc").ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/counter", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import next prog("n" res integer)`))
	if _, err := ln.Call("next"); err != nil {
		t.Fatal(err)
	}
	before := trace.Get("schooner.manager.checkpoints")
	dd.mgr.StartCheckpoints(5 * time.Millisecond)
	defer dd.mgr.StopCheckpoints()
	deadline := time.Now().Add(5 * time.Second)
	for trace.Get("schooner.manager.checkpoints") < before+2 {
		if time.Now().After(deadline) {
			t.Fatal("checkpoint loop never swept twice")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startJournaled starts a Manager on a deployment's Manager host that
// journals to backend, recovering from what is there when recover is
// set. The caller has stopped or crashed the Manager before it.
func startJournaled(t *testing.T, d *deployment, backend wal.Backend, recover bool) *Manager {
	t.Helper()
	log, err := wal.Open(backend, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := StartManagerConfig(d.tr, d.mgrHost, ManagerConfig{Journal: log, Recover: recover})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// addLine opens a line on c, starts the adder on sgi-lerc and binds it
// with one call.
func addLine(t *testing.T, c *Client) *Line {
	t.Helper()
	ln, err := c.ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	if _, err := ln.Call("add", uts.DoubleVal(1), uts.DoubleVal(1)); err != nil {
		t.Fatal(err)
	}
	return ln
}

// twoAdds issues two calls of ln at once, with no binding cached, so
// that both find the line's Manager connection dead together, and
// requires both to succeed.
func twoAdds(t *testing.T, ln *Line) {
	t.Helper()
	ln.FlushCache()
	pends := []*Pending{ln.Go("add", uts.DoubleVal(1), uts.DoubleVal(2)), ln.Go("add", uts.DoubleVal(3), uts.DoubleVal(4))}
	for i, p := range pends {
		out, err := p.Wait()
		if err != nil {
			t.Errorf("call %d after the Manager came back: %v", i, err)
		} else if want := float64(4*i + 3); out[0].F != want {
			t.Errorf("call %d = %g, want %g", i, out[0].F, want)
		}
	}
}

// TestVirtualConcurrentReattachKeepsLine: two calls that find the
// line's Manager connection dead at once, after a Manager crash and
// recovery, re-attach the line over one connection. A second
// connection dialed and thrown away reads, to the recovered Manager,
// as the module failing: it would quit the line under both calls.
func TestVirtualConcurrentReattachKeepsLine(t *testing.T) {
	t.Parallel()
	d, _ := newVirtualDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	backend := wal.NewMemBackend()
	d.mgr.Stop()
	d.mgr = startJournaled(t, d, backend, false)
	ln := addLine(t, d.client("rs6000"))
	defer ln.IQuit()

	d.mgr.Crash()
	d.mgr = startJournaled(t, d, backend, true)
	twoAdds(t, ln)
	if n := d.mgr.LineCount(); n != 1 {
		t.Errorf("recovered Manager holds %d lines, want 1", n)
	}
}

// TestVirtualConcurrentReattachAfterTakeover is the same race against a
// standby that took over from a crashed leader on another host.
func TestVirtualConcurrentReattachAfterTakeover(t *testing.T) {
	t.Parallel()
	d, v := newVirtualDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	d.mgr.Stop()
	d.mgr = startJournaled(t, d, wal.NewMemBackend(), false)
	standbyLog, err := wal.Open(wal.NewMemBackend(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sb := StartStandby(d.tr, "rs6000", "avs-sparc", standbyLog, StandbyPolicy{
		HeartbeatInterval: 5 * time.Millisecond,
		Threshold:         2,
		PingTimeout:       50 * time.Millisecond,
	})
	t.Cleanup(func() {
		sb.Stop()
		if m := sb.Manager(); m != nil {
			m.Stop()
		}
	})
	c := d.client("sgi-lerc")
	c.Managers = []string{"rs6000"}
	ln := addLine(t, c)
	defer ln.IQuit()
	for i := 0; standbyLog.LastSeq() < d.mgr.JournalSeq(); i++ {
		if i == 1000 {
			t.Fatalf("standby mirror at %d, leader at %d", standbyLog.LastSeq(), d.mgr.JournalSeq())
		}
		v.Sleep(5 * time.Millisecond)
	}

	d.mgr.Crash()
	for i := 0; !sb.TookOver() || sb.Manager() == nil; i++ {
		if i == 1000 {
			t.Fatal("standby never took over")
		}
		v.Sleep(5 * time.Millisecond)
	}
	twoAdds(t, ln)
	if n := sb.Manager().LineCount(); n != 1 {
		t.Errorf("promoted Manager holds %d lines, want 1", n)
	}
}

// TestVirtualUnreachableManagerIsStale: a lookup that cannot re-attach
// the line — its Manager crashed and nobody took over — is retried like
// any stale failure, until the call's retry budget runs out.
func TestVirtualUnreachableManagerIsStale(t *testing.T) {
	d, _ := newVirtualDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	pol := CallPolicy{Timeout: time.Second, MaxRetries: 3, Backoff: 10 * time.Millisecond, MaxBackoff: 10 * time.Millisecond}
	ln := addLine(t, d.clientWith("rs6000", pol))
	defer ln.IQuit()

	d.mgr.Crash()
	ln.FlushCache()
	before := trace.Get("schooner.client.retries")
	_, err := ln.Call("add", uts.DoubleVal(1), uts.DoubleVal(2))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("failed after %d attempts", pol.MaxRetries+1)) {
		t.Fatalf("call with no Manager = %v, want the retries-exhausted error", err)
	}
	if got := trace.Get("schooner.client.retries") - before; got != int64(pol.MaxRetries) {
		t.Errorf("retries rose by %d, want %d", got, pol.MaxRetries)
	}
}
