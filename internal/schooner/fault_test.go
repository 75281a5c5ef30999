package schooner

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"npss/internal/netsim"
	"npss/internal/trace"
	"npss/internal/uts"
	"npss/internal/wire"
)

// TestIsStaleWrapped is the regression for the errors.As fix: a stale
// error that callers wrapped with context must still trigger the
// rebind path.
func TestIsStaleWrapped(t *testing.T) {
	direct := &staleError{errors.New("binding gone")}
	if !isStale(direct) {
		t.Error("direct stale error not recognized")
	}
	wrapped := fmt.Errorf("call to %q failed: %w", "add", direct)
	if !isStale(wrapped) {
		t.Error("wrapped stale error not recognized — rebind would be skipped")
	}
	doubly := fmt.Errorf("line 3: %w", wrapped)
	if !isStale(doubly) {
		t.Error("doubly wrapped stale error not recognized")
	}
	if isStale(errors.New("plain failure")) {
		t.Error("plain error misclassified as stale")
	}
	if isStale(nil) {
		t.Error("nil misclassified as stale")
	}
}

// TestReplyError pins the one answering rule: KOK is nil, a KError is
// its text — stale only for the terminated sentinel — and any other
// kind is a protocol error, never a success.
func TestReplyError(t *testing.T) {
	for _, tc := range []struct {
		name    string
		resp    *wire.Message
		want    string // "" for nil
		isStale bool
	}{
		{"ok", &wire.Message{Kind: wire.KOK, Data: []byte{1}}, "", false},
		{"error", &wire.Message{Kind: wire.KError, Err: "schooner: no procedure"}, "schooner: no procedure", false},
		{"sentinel", &wire.Message{Kind: wire.KError, Err: ErrProcessTerminated}, ErrProcessTerminated, true},
		{"unexpected kind", &wire.Message{Kind: wire.KCall, Err: "ignored"}, "schooner: unexpected Call reply", false},
	} {
		err := replyError(tc.resp)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.want || isStale(err) != tc.isStale {
			t.Errorf("%s: replyError = %q (stale %v), want %q (stale %v)", tc.name, got, isStale(err), tc.want, tc.isStale)
		}
	}
}

// trapProgram exports trap, which calls fn then returns its argument —
// used to kill the host between the request and the reply.
func trapProgram(path string, fn func()) *Program {
	return &Program{
		Path:     path,
		Language: LangC,
		Build: func() (*Instance, error) {
			p := &BoundProc{
				Spec: uts.MustParseProc(`export trap prog("x" val double, "y" res double)`),
				Fn: func(in []uts.Value) ([]uts.Value, error) {
					fn()
					return []uts.Value{uts.DoubleVal(in[0].F)}, nil
				},
			}
			return NewInstance(p)
		},
	}
}

// TestCallDeadlineHostDownAfterSend is the never-hang regression: the
// host dies after the request is sent but before the reply arrives.
// Without a deadline the client would block in Recv forever; with the
// policy it must return an error within the retry budget.
func TestCallDeadlineHostDownAfterSend(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.net.SetFaultSeed(61)
	d.reg.MustRegister(trapProgram("/npss/trap", func() {
		d.net.SetHostDown("sgi-lerc", true)
	}))
	ln, err := d.clientWith("avs-sparc", CallPolicy{
		Timeout:    150 * time.Millisecond,
		MaxRetries: 2,
		Backoff:    time.Millisecond,
		MaxBackoff: 5 * time.Millisecond,
	}).ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/trap", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import trap prog("x" val double, "y" res double)`))

	timeoutsBefore := trace.Get("schooner.client.timeouts")
	start := time.Now()
	_, err = ln.Call("trap", uts.DoubleVal(1))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call survived its host dying mid-call")
	}
	// One timed-out attempt plus two fast-failing retries with small
	// backoffs: well under a second, and categorically not a hang.
	if elapsed > 2*time.Second {
		t.Fatalf("call took %v, deadline not enforced", elapsed)
	}
	if got := trace.Get("schooner.client.timeouts"); got == timeoutsBefore {
		t.Error("receive timeout not counted")
	}
}

// TestCallRetriesThroughLoss checks that calls ride out probabilistic
// message loss: with 30% of messages dropped on the wire, every call
// still completes via timeout-and-retry, and the retry counters tick.
func TestCallRetriesThroughLoss(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	ln, err := d.clientWith("avs-sparc", CallPolicy{
		Timeout:    50 * time.Millisecond,
		MaxRetries: 30,
		Backoff:    time.Millisecond,
		MaxBackoff: 5 * time.Millisecond,
	}).ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	// Bind once over a clean wire, then degrade the link.
	if _, err := ln.Call("add", uts.DoubleVal(0), uts.DoubleVal(0)); err != nil {
		t.Fatal(err)
	}
	d.net.SetFaultSeed(17)
	d.net.SetLinkFlaky("avs-sparc", "sgi-lerc", netsim.FaultSpec{LossProb: 0.3})

	retriesBefore := trace.Get("schooner.client.retries")
	for i := 0; i < 10; i++ {
		out, err := ln.Call("add", uts.DoubleVal(float64(i)), uts.DoubleVal(1))
		if err != nil {
			t.Fatalf("call %d failed despite retry budget: %v", i, err)
		}
		if out[0].F != float64(i+1) {
			t.Fatalf("call %d = %g", i, out[0].F)
		}
	}
	if d.net.TotalDropped() == 0 {
		t.Error("fault injection dropped nothing at 30% loss")
	}
	if trace.Get("schooner.client.retries") == retriesBefore {
		t.Error("no retries counted while messages were being dropped")
	}
}

// TestHealthFailoverStateless is the recovery integration test at the
// schooner level: the Manager's health monitor detects a dead machine,
// restarts its stateless process elsewhere, repoints the name DB, and
// a client call in flight recovers through the ordinary stale-cache
// rebind — while a stateful process on the same machine is left alone.
func TestHealthFailoverStateless(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	d.reg.MustRegister(counterProgram("/npss/counter"))

	// A generous retry budget for the stateless adder's line: the first
	// attempts fail fast against the dead machine while the monitor
	// detects it (2 sweeps of 5ms) and respawns; a later attempt's
	// re-ask finds the new home. The stateful counter's line gives up
	// after one retry.
	ln, err := d.clientWith("avs-sparc", CallPolicy{
		Timeout:    100 * time.Millisecond,
		MaxRetries: 30,
		Backoff:    2 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
	}).ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	counter, err := d.clientWith("avs-sparc", CallPolicy{
		Timeout:    100 * time.Millisecond,
		MaxRetries: 1,
		Backoff:    time.Millisecond,
		MaxBackoff: 2 * time.Millisecond,
	}).ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	defer counter.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	if err := counter.StartRemote("/npss/counter", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	counter.Import(uts.MustParseProc(`import next prog("n" res integer)`))
	if _, err := ln.Call("add", uts.DoubleVal(1), uts.DoubleVal(1)); err != nil {
		t.Fatal(err)
	}

	d.mgr.StartHealth(HealthPolicy{
		Interval:    5 * time.Millisecond,
		Threshold:   2,
		PingTimeout: 50 * time.Millisecond,
	})
	failoversBefore := trace.Get("schooner.manager.failovers")
	skippedBefore := trace.Get("schooner.manager.failover_skipped_stateful")

	d.net.SetHostDown("sgi-lerc", true)

	out, err := ln.Call("add", uts.DoubleVal(20), uts.DoubleVal(22))
	if err != nil {
		t.Fatalf("call did not recover through failover: %v", err)
	}
	if out[0].F != 42 {
		t.Fatalf("recovered call = %g", out[0].F)
	}
	if got := trace.Get("schooner.manager.failovers"); got == failoversBefore {
		t.Error("no failover counted")
	}
	if got := trace.Get("schooner.manager.failover_skipped_stateful"); got == skippedBefore {
		t.Error("stateful process not reported as skipped")
	}
	health := d.mgr.HostHealth()
	if alive, ok := health["sgi-lerc"]; !ok || alive {
		t.Errorf("monitor reports sgi-lerc health %v/%v, want dead", alive, ok)
	}
	// The stateful counter must NOT have been failed over: its calls
	// keep failing while the machine is down.
	if _, err := counter.Call("next"); err == nil {
		t.Error("stateful procedure answered from beyond the grave")
	}
}

// TestHealthRecovery checks the up transition: a machine that comes
// back is re-marked alive.
func TestHealthRecovery(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.mgr.StartHealth(HealthPolicy{
		Interval:    5 * time.Millisecond,
		Threshold:   2,
		PingTimeout: 50 * time.Millisecond,
	})
	upBefore := trace.Get("schooner.manager.hostup")
	d.net.SetHostDown("rs6000", true)
	deadline := time.Now().Add(2 * time.Second)
	declaredDead := false
	for time.Now().Before(deadline) {
		if alive, probed := d.mgr.HostHealth()["rs6000"]; probed && !alive {
			declaredDead = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !declaredDead {
		t.Fatal("rs6000 never declared dead")
	}
	d.net.SetHostDown("rs6000", false)
	for time.Now().Before(deadline) {
		if d.mgr.HostHealth()["rs6000"] {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !d.mgr.HostHealth()["rs6000"] {
		t.Fatal("rs6000 never recovered")
	}
	if trace.Get("schooner.manager.hostup") == upBefore {
		t.Error("recovery transition not counted")
	}
}
