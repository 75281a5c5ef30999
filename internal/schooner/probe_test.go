package schooner

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"npss/internal/netsim"
	"npss/internal/vclock"
	"npss/internal/wal"
	"npss/internal/wire"
)

// dialCounter counts the dials made through it.
type dialCounter struct {
	Transport
	dials atomic.Int64
}

func (t *dialCounter) Dial(from, addr string) (wire.Conn, error) {
	t.dials.Add(1)
	return t.Transport.Dial(from, addr)
}

// healthProbed replaces the deployment's Manager with one that dials
// through a counter and starts its health monitor at interval, each
// probe bounded by pingTimeout (zero: the policy default), then sleeps
// to halfway between its first and second sweeps: every machine probed
// once and, with nothing down, holding a kept connection.
func healthProbed(t *testing.T, d *deployment, v *vclock.Virtual, interval, pingTimeout time.Duration) *dialCounter {
	t.Helper()
	d.mgr.Stop()
	dc := &dialCounter{Transport: d.tr}
	mgr, err := StartManager(dc, d.mgrHost)
	if err != nil {
		t.Fatal(err)
	}
	d.mgr = mgr
	mgr.StartHealth(HealthPolicy{Interval: interval, Threshold: 2, PingTimeout: pingTimeout})
	v.Sleep(interval + interval/2)
	return dc
}

// sweepsUntil sleeps one health interval at a time, each wake halfway
// between two sweeps, until ok holds, and reports how many sweeps that
// took; -1 if it did not hold within limit sweeps.
func sweepsUntil(v *vclock.Virtual, interval time.Duration, limit int, ok func() bool) int {
	for n := 1; n <= limit; n++ {
		v.Sleep(interval)
		if ok() {
			return n
		}
	}
	return -1
}

// TestVirtualHealthSweepHandoffs pins what a health sweep of a quiet
// cluster costs in hand-offs, by equality. The first sweep dials each
// Server once and starts its serve goroutine; every later sweep pings
// over those kept connections, so it dials nothing and starts nothing.
// A sweep is one turn of the loop's ticker plus, per probe, two turns
// of the loop (woken by the pong, then slept to its arrival) and two of
// the Server's serve goroutine (the same for the ping): 1+2k loop turns
// and 2k serve turns for k machines.
func TestVirtualHealthSweepHandoffs(t *testing.T) {
	d, v := newVirtualDeployment(t, "avs-sparc", ieeeHosts())
	const interval = 10 * time.Millisecond
	k := len(d.servers)
	dc := healthProbed(t, d, v, interval, 0)
	if got := dc.dials.Load(); got != int64(k) {
		t.Errorf("first sweep dialed %d times, want %d", got, k)
	}
	const n = 100
	turns0, starts0 := v.Handoffs()
	v.Sleep(n * interval)
	turns1, starts1 := v.Handoffs()
	want := map[string]int{
		"driver":                      1,
		"schooner.Manager.healthLoop": n * (1 + 2*k),
		"schooner.Server.serve":       n * 2 * k,
	}
	if got := handoffDelta(turns0, turns1); !reflect.DeepEqual(got, want) {
		t.Errorf("%d sweeps of %d machines: turns %v, want %v", n, k, got, want)
	}
	if got := handoffDelta(starts0, starts1); len(got) != 0 {
		t.Errorf("%d sweeps of %d machines: goroutine starts %v, want none", n, k, got)
	}
	if got := dc.dials.Load(); got != int64(k) {
		t.Errorf("%d sweeps dialed %d times, want only the first sweep's %d", n+1, got, k)
	}
	for host, up := range d.mgr.HostHealth() {
		if !up {
			t.Errorf("%s reported down on a quiet cluster", host)
		}
	}
}

// TestVirtualStandbyHeartbeatHandoffs pins what a standby's heartbeat
// of a quiet leader costs in hand-offs, by equality. The first
// heartbeat dials the leader; every later one pings over that kept
// connection: one turn of the loop's ticker, two of the loop for the
// pong (woken by it, then slept to its arrival) and two of the leader
// Manager's serve goroutine for the ping. The journal tail, with
// nothing to mirror, stays parked, and nothing starts a goroutine.
func TestVirtualStandbyHeartbeatHandoffs(t *testing.T) {
	d, v := newVirtualDeployment(t, "avs-sparc", ieeeHosts())
	d.mgr.Stop()
	d.mgr = startJournaled(t, d, wal.NewMemBackend(), false)
	standbyLog, err := wal.Open(wal.NewMemBackend(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const interval, n = 10 * time.Millisecond, 100
	sb := StartStandby(d.tr, "rs6000", "avs-sparc", standbyLog, StandbyPolicy{HeartbeatInterval: interval})
	t.Cleanup(sb.Stop)
	v.Sleep(interval + interval/2)
	turns0, starts0 := v.Handoffs()
	v.Sleep(n * interval)
	turns1, starts1 := v.Handoffs()
	want := map[string]int{
		"driver":                         1,
		"schooner.Standby.heartbeatLoop": 3 * n,
		"schooner.Manager.serve":         2 * n,
	}
	if got := handoffDelta(turns0, turns1); !reflect.DeepEqual(got, want) {
		t.Errorf("%d heartbeats: turns %v, want %v", n, got, want)
	}
	if got := handoffDelta(starts0, starts1); len(got) != 0 {
		t.Errorf("%d heartbeats: goroutine starts %v, want none", n, got)
	}
	if sb.TookOver() {
		t.Error("standby took over from a live leader")
	}
}

// TestStoppedServerAnswersNoPing: a Server stopped under a kept probe
// connection is declared down within Threshold sweeps. The probe does
// not dial, so no closed listener refuses it: the Server closes the
// connection itself when it stops.
func TestStoppedServerAnswersNoPing(t *testing.T) {
	d, v := newVirtualDeployment(t, "avs-sparc", ieeeHosts())
	const interval = 10 * time.Millisecond
	healthProbed(t, d, v, interval, 0)
	if up := d.mgr.HostHealth()["rs6000"]; !up {
		t.Fatal("rs6000 not up after the first sweep")
	}
	d.servers["rs6000"].Stop()
	if n := sweepsUntil(v, interval, 10, func() bool { return !d.mgr.HostHealth()["rs6000"] }); n != 2 {
		t.Errorf("stopped Server declared down after %d sweeps, want Threshold = 2", n)
	}
}

// TestHealthHealsAfterFault: a machine cut off — down, behind a down
// link, or behind a link that loses every message — is declared down
// after Threshold sweeps and back up on the first sweep after the fault
// heals: the failure closed the kept connection, so that sweep dials
// afresh. Across a down path a probe's send fails at once, so those
// rows keep the default PingTimeout, which no sweep could wait out;
// across the lossy link a probe times out, bounded by a quarter of the
// interval so that its verdict lands within the sweep, and must drop
// its connection all the same.
func TestHealthHealsAfterFault(t *testing.T) {
	const interval = 10 * time.Millisecond
	for _, fault := range []struct {
		name        string
		pingTimeout time.Duration
		set         func(d *deployment, down bool)
	}{
		{"host", 0, func(d *deployment, down bool) { d.net.SetHostDown("rs6000", down) }},
		{"link", 0, func(d *deployment, down bool) { d.net.SetLinkDown("avs-sparc", "rs6000", down) }},
		{"loss", interval / 4, func(d *deployment, down bool) {
			spec := netsim.FaultSpec{}
			if down {
				spec.LossProb = 1
			}
			d.net.SetLinkFlaky("avs-sparc", "rs6000", spec)
		}},
	} {
		t.Run(fault.name, func(t *testing.T) {
			d, v := newVirtualDeployment(t, "avs-sparc", ieeeHosts())
			dc := healthProbed(t, d, v, interval, fault.pingTimeout)
			dials := dc.dials.Load()
			fault.set(d, true)
			if n := sweepsUntil(v, interval, 10, func() bool { return !d.mgr.HostHealth()["rs6000"] }); n != 2 {
				t.Errorf("rs6000 declared down after %d sweeps, want 2", n)
			}
			fault.set(d, false)
			if n := sweepsUntil(v, interval, 10, func() bool { return d.mgr.HostHealth()["rs6000"] }); n != 1 {
				t.Errorf("rs6000 back up after %d sweeps, want 1", n)
			}
			// The first failure closed the kept connection; the failed
			// sweep after it dialed into the fault and the healed one
			// dialed afresh.
			if got := dc.dials.Load() - dials; got != 2 {
				t.Errorf("%d dials across the fault, want 2", got)
			}
		})
	}
}

// TestVirtualStandbyTakesOverStoppedLeader: a leader Manager stopped —
// not crashed — closes the standby's kept heartbeat connection with
// every other it serves, and the standby takes over after Threshold
// missed heartbeats. It does so with health monitoring on or off (a
// negative Interval), and only with it on does the promoted Manager
// run a health monitor.
func TestVirtualStandbyTakesOverStoppedLeader(t *testing.T) {
	// A health loop whose ticks never move forward holds the virtual
	// clock still: the watchdog turns that hang into a failure.
	hang := time.AfterFunc(time.Minute, func() { panic("standby takeover did not finish") })
	defer hang.Stop()
	for _, tc := range []struct {
		name   string
		health HealthPolicy
	}{{"health-on", HealthPolicy{}}, {"health-off", HealthPolicy{Interval: -1}}} {
		t.Run(tc.name, func(t *testing.T) {
			d, v := newVirtualDeployment(t, "avs-sparc", ieeeHosts())
			d.mgr.Stop()
			d.mgr = startJournaled(t, d, wal.NewMemBackend(), false)
			standbyLog, err := wal.Open(wal.NewMemBackend(), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			const interval = 10 * time.Millisecond
			sb := StartStandby(d.tr, "rs6000", "avs-sparc", standbyLog, StandbyPolicy{
				HeartbeatInterval: interval, Threshold: 2, Health: tc.health,
			})
			t.Cleanup(func() {
				sb.Stop()
				if m := sb.Manager(); m != nil {
					m.Stop()
				}
			})
			v.Sleep(interval + interval/2)
			if sb.TookOver() {
				t.Fatal("standby took over from a live leader")
			}
			d.mgr.Stop()
			if n := sweepsUntil(v, interval, 10, sb.TookOver); n != 2 {
				t.Fatalf("standby took over after %d heartbeats of a stopped leader, want Threshold = 2", n)
			}
			if sweepsUntil(v, interval, 10, func() bool { return sb.Manager() != nil }) < 0 {
				t.Fatal("standby promoted itself but started no Manager")
			}
			if on := sb.Manager().HostHealth() != nil; on != (tc.health.Interval >= 0) {
				t.Errorf("promoted Manager runs a health monitor: %v, want %v", on, !on)
			}
		})
	}
}
