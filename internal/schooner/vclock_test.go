package schooner

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"npss/internal/machine"
	"npss/internal/netsim"
	"npss/internal/trace"
	"npss/internal/uts"
	"npss/internal/vclock"
	"npss/internal/wire"
)

// newVirtualDeployment builds a deployment whose network keeps time on
// a virtual clock. Every component reads its clock from the network it
// is built on, so none ever arms a wall-clock timer, and the deployment
// shares no clock with any other in the process.
func newVirtualDeployment(t *testing.T, mgrHost string, hosts map[string]*machine.Arch) (*deployment, *vclock.Virtual) {
	t.Helper()
	v := vclock.NewVirtual()
	n := netsim.New()
	n.SetClock(v)
	n.SetTimeScale(1.0)
	for name, arch := range hosts {
		n.MustAddHost(name, arch)
	}
	tr := NewSimTransport(n)
	reg := NewRegistry()
	mgr, err := StartManager(tr, mgrHost)
	if err != nil {
		v.Stop()
		t.Fatal(err)
	}
	d := &deployment{
		net: n, tr: tr, reg: reg, mgr: mgr, mgrHost: mgrHost,
		servers: make(map[string]*Server), clientBy: make(map[string]*Client),
	}
	for name := range hosts {
		srv, err := StartServer(tr, name, reg)
		if err != nil {
			t.Fatal(err)
		}
		d.servers[name] = srv
	}
	t.Cleanup(func() {
		// Dependency order: runtime first (the prober and any pending
		// sleeps are on the virtual clock, which must still be running),
		// then the clock — Stop returns once every goroutine of the
		// deployment has, or names the one that has not.
		d.mgr.Stop()
		for _, s := range d.servers {
			s.Stop()
		}
		if err := v.Stop(); err != nil {
			t.Error(err)
		}
	})
	return d, v
}

// napProgram exports nap, which sleeps d on clock c before answering —
// virtual seconds when c is the deployment's virtual clock.
func napProgram(c vclock.Clock, path string, d time.Duration) *Program {
	return &Program{
		Path:     path,
		Language: LangC,
		Build: func() (*Instance, error) {
			p := &BoundProc{
				Spec: uts.MustParseProc(`export nap prog("x" val double, "y" res double)`),
				Fn: func(in []uts.Value) ([]uts.Value, error) {
					c.Sleep(d)
					return []uts.Value{uts.DoubleVal(in[0].F * 2)}, nil
				},
			}
			return NewInstance(p)
		},
	}
}

// deadlineScript stands up a virtual deployment and makes one call
// with a 30-second deadline to a procedure that stalls two virtual
// minutes. It returns the virtual and the real time the call took, and
// its error.
func deadlineScript(t *testing.T) (virtualElapsed, realElapsed time.Duration, err error) {
	d, v := newVirtualDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(napProgram(v, "/npss/nap", 2*time.Minute))
	ln, err := d.clientWith("avs-sparc", CallPolicy{
		Timeout:    30 * time.Second,
		MaxRetries: -1, // single attempt: the timeout itself is under test
		Backoff:    time.Millisecond,
		MaxBackoff: time.Millisecond,
	}).ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/nap", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import nap prog("x" val double, "y" res double)`))
	virtualBefore := v.Elapsed()
	realStart := time.Now()
	_, err = ln.Call("nap", uts.DoubleVal(1))
	return v.Elapsed() - virtualBefore, time.Since(realStart), err
}

// TestVirtualCallDeadlineExpiry: a 30-second call deadline expires in
// virtual time with no real wait. The procedure stalls two virtual
// minutes against a 30-second timeout; the failure must arrive in far
// less real time than the deadline itself, which is only possible if
// the deadline timer runs on the virtual clock.
func TestVirtualCallDeadlineExpiry(t *testing.T) {
	t.Parallel()
	timeoutsBefore := trace.Get("schooner.client.timeouts")
	virtualElapsed, realElapsed, err := deadlineScript(t)
	if err == nil {
		t.Fatal("call survived a procedure stalled past its deadline")
	}
	if trace.Get("schooner.client.timeouts") == timeoutsBefore {
		t.Error("deadline expiry not counted as a timeout")
	}
	if virtualElapsed < 30*time.Second {
		t.Errorf("virtual clock advanced only %v, deadline should consume 30s", virtualElapsed)
	}
	if realElapsed >= 10*time.Second {
		t.Errorf("30s virtual deadline took %v of real time — something slept on the wall clock", realElapsed)
	}
}

// TestTwoClustersOneProcess: a wall-clock deployment and a
// virtual-clock deployment run calls at the same time in one process.
// Each component keeps the clock of the network it was built on, so
// the virtual side's deadline script takes exactly the virtual time,
// and fails with exactly the error, that it does alone — the wall-clock
// side neither joins its ledger nor waits on its timers — while every
// wall-clock call answers.
func TestTwoClustersOneProcess(t *testing.T) {
	t.Parallel()
	soloElapsed, _, soloErr := deadlineScript(t)
	if soloErr == nil {
		t.Fatal("solo run: call survived a procedure stalled past its deadline")
	}

	wall := newDeployment(t, "avs-sparc", ieeeHosts())
	wall.reg.MustRegister(adderProgram("/npss/adder"))
	ln, err := wall.client("avs-sparc").ContactSchx("wall")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	first, stop := make(chan struct{}), make(chan struct{})
	wallDone := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			out, err := ln.Call("add", uts.DoubleVal(float64(i)), uts.DoubleVal(1))
			if err != nil || out[0].F != float64(i+1) {
				wallDone <- fmt.Errorf("wall-clock call %d = %v, %v", i, out, err)
				return
			}
			if i == 0 {
				close(first)
			}
			select {
			case <-stop:
				wallDone <- nil
				return
			default:
			}
		}
	}()
	select {
	case <-first:
	case err := <-wallDone:
		t.Fatal(err)
	}

	elapsed, _, err := deadlineScript(t)
	close(stop)
	if werr := <-wallDone; werr != nil {
		t.Error(werr)
	}
	if elapsed != soloElapsed {
		t.Errorf("beside a wall-clock cluster the script took %v of virtual time, alone %v", elapsed, soloElapsed)
	}
	if err == nil || err.Error() != soloErr.Error() {
		t.Errorf("beside a wall-clock cluster the call failed with %v, alone with %v", err, soloErr)
	}
}

// TestVirtualHealthFailover drives the Manager's health prober purely
// by virtual-clock advancement: sweep intervals are whole virtual
// seconds, so the machine could only be declared dead (and its
// stateless process failed over) if the prober's ticker runs on the
// virtual clock.
func TestVirtualHealthFailover(t *testing.T) {
	t.Parallel()
	d, v := newVirtualDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	ln, err := d.clientWith("avs-sparc", CallPolicy{
		Timeout:    5 * time.Second,
		MaxRetries: 10,
		Backoff:    100 * time.Millisecond,
		MaxBackoff: 2 * time.Second,
	}).ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	if _, err := ln.Call("add", uts.DoubleVal(1), uts.DoubleVal(1)); err != nil {
		t.Fatal(err)
	}

	d.mgr.StartHealth(HealthPolicy{
		Interval:    2 * time.Second,
		Threshold:   2,
		PingTimeout: time.Second,
	})
	failoversBefore := trace.Get("schooner.manager.failovers")
	realStart := time.Now()
	virtualBefore := v.Elapsed()
	d.net.SetHostDown("sgi-lerc", true)

	// Wait for the prober's verdict by sleeping virtual half-seconds.
	declaredDead := false
	for i := 0; i < 240; i++ {
		if alive, probed := d.mgr.HostHealth()["sgi-lerc"]; probed && !alive {
			declaredDead = true
			break
		}
		v.Sleep(500 * time.Millisecond)
	}
	if !declaredDead {
		t.Fatal("sgi-lerc never declared dead under the virtual clock")
	}

	out, err := ln.Call("add", uts.DoubleVal(20), uts.DoubleVal(22))
	if err != nil {
		t.Fatalf("call did not recover through virtual-time failover: %v", err)
	}
	if out[0].F != 42 {
		t.Fatalf("recovered call = %g", out[0].F)
	}
	if trace.Get("schooner.manager.failovers") == failoversBefore {
		t.Error("no failover counted")
	}
	realElapsed := time.Since(realStart)
	virtualElapsed := v.Elapsed() - virtualBefore
	if virtualElapsed < 4*time.Second {
		t.Errorf("virtual clock advanced only %v; two 2s sweeps were required", virtualElapsed)
	}
	if realElapsed >= virtualElapsed {
		t.Errorf("real %v >= virtual %v: prober timing leaked onto the wall clock", realElapsed, virtualElapsed)
	}
}

// TestVirtualPendingWait: an asynchronous call whose procedure sleeps
// five virtual seconds completes under Pending.Wait without the caller
// spending five real seconds.
func TestVirtualPendingWait(t *testing.T) {
	t.Parallel()
	d, v := newVirtualDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(napProgram(v, "/npss/nap", 5*time.Second))
	ln, err := d.clientWith("avs-sparc", CallPolicy{
		Timeout:    time.Minute,
		MaxRetries: -1,
		Backoff:    time.Millisecond,
		MaxBackoff: time.Millisecond,
	}).ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/nap", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import nap prog("x" val double, "y" res double)`))

	virtualBefore := v.Elapsed()
	realStart := time.Now()
	p := ln.Go("nap", uts.DoubleVal(3.25))
	out, err := p.Wait()
	realElapsed := time.Since(realStart)
	virtualElapsed := v.Elapsed() - virtualBefore

	if err != nil {
		t.Fatalf("async nap failed: %v", err)
	}
	if out[0].F != 6.5 {
		t.Fatalf("nap(3.25) = %g, want 6.5", out[0].F)
	}
	if virtualElapsed < 5*time.Second {
		t.Errorf("virtual clock advanced only %v, procedure sleeps 5s", virtualElapsed)
	}
	if realElapsed >= 5*time.Second {
		t.Errorf("5s virtual nap took %v of real time", realElapsed)
	}
}

// jitterSample draws n backoff delays through a transport's jitter
// source, as a retrying call does.
func jitterSample(tr Transport, n int) []time.Duration {
	p := CallPolicy{Backoff: 8 * time.Millisecond, MaxBackoff: 64 * time.Millisecond}.withDefaults()
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = p.backoffFor(i%4, tr.Jitter())
	}
	return out
}

// TestNetworkSeedsRetryJitter is the regression for deterministic
// retry timing: each network carries its own seeded jitter source, so
// two identically built simulations draw identical backoff sequences
// without naming a seed, one SetFaultSeed pins the sequence, and a
// cluster's draws do not depend on another cluster drawing beside it.
func TestNetworkSeedsRetryJitter(t *testing.T) {
	t.Parallel()
	fresh := func() *SimTransport { return NewSimTransport(netsim.New()) }
	s1, s2 := jitterSample(fresh(), 8), jitterSample(fresh(), 8)
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("two fresh networks drew different jitter:\n%v\n%v", s1, s2)
	}

	seeded := func() *SimTransport {
		tr := fresh()
		tr.Net.SetFaultSeed(71)
		return tr
	}
	s3, s4 := jitterSample(seeded(), 8), jitterSample(seeded(), 8)
	if !reflect.DeepEqual(s3, s4) {
		t.Errorf("SetFaultSeed(71) drew different jitter:\n%v\n%v", s3, s4)
	}
	if reflect.DeepEqual(s1, s3) {
		t.Errorf("SetFaultSeed(71) drew the default sequence %v", s3)
	}

	// Each network's stream, drawn alone, then the two drawn in turn.
	var soloA, soloB [8]float64
	for i, a := 0, fresh(); i < len(soloA); i++ {
		soloA[i] = a.Jitter()
	}
	for i, b := 0, seeded(); i < len(soloB); i++ {
		soloB[i] = b.Jitter()
	}
	a, b := fresh(), seeded()
	for i := range soloA {
		if ga, gb := a.Jitter(), b.Jitter(); ga != soloA[i] || gb != soloB[i] {
			t.Fatalf("draw %d in turn on two networks gave %v and %v, alone %v and %v", i, ga, gb, soloA[i], soloB[i])
		}
	}
}

// muteTransport delivers what its connections send and loses every
// reply: the peer is there, takes the request, and is never heard from.
type muteTransport struct{ Transport }

type muteConn struct{ wire.Conn }

func (t muteTransport) Dial(from, addr string) (wire.Conn, error) {
	conn, err := t.Transport.Dial(from, addr)
	if err != nil {
		return nil, err
	}
	return muteConn{conn}, nil
}

func (c muteConn) Recv() (*wire.Message, error) {
	for {
		if _, err := c.Conn.Recv(); err != nil {
			return nil, err
		}
	}
}

// TestContactSchxDeadline: registration is bounded like every other
// round trip. Against Managers that accept the request and never answer,
// ContactSchx gives each the client's call deadline, walks on to the
// next, and returns a timeout — on the virtual clock, so the ten
// seconds cost none — leaving no connection open behind it.
//
// Not parallel: it counts registrations in the process-wide metric set
// exactly, and every other deployment's lines register there too.
func TestContactSchxDeadline(t *testing.T) {
	d, v := newVirtualDeployment(t, "avs-sparc", ieeeHosts())
	standby, err := StartManager(d.tr, "sgi-lerc")
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Stop()
	base := d.net.OpenConns()
	registered := trace.Get("schooner.manager.lines")

	c := &Client{Transport: muteTransport{d.tr}, Host: "rs6000",
		ManagerHost: "avs-sparc", Managers: []string{"sgi-lerc"},
		Policy: CallPolicy{Timeout: 5 * time.Second}}
	before := v.Elapsed()
	// Halfway through the first deadline, the ledger shows who waits:
	// the registering driver on its own connection, no receiver
	// goroutine beside it.
	ledger := v.NewSlot()
	v.Go("ledger-reader", func() {
		v.Sleep(2500 * time.Millisecond)
		ledger.Fill(v.Ledger())
	})
	_, err = c.ContactSchx("lost")
	if !errors.As(err, new(*timeoutError)) {
		t.Fatalf("ContactSchx against mute managers returned %v, want a timeout", err)
	}
	if got := v.Elapsed() - before; got != 10*time.Second {
		t.Errorf("gave up after %v of virtual time, want two 5s deadlines", got)
	}
	if got := trace.Get("schooner.manager.lines") - registered; got != 2 {
		t.Errorf("%d managers saw the registration, want both", got)
	}
	// The registering test goroutine, the clock's first participant, is
	// the one participant with a deadline. Beside it park only the two
	// Managers' and three Servers' accept loops and the first Manager's
	// serve goroutine for the registration: a bounded receive that started
	// a goroutine would add a site.
	const want = "at +2.5s; busy holders: ledger-reader × 1; parked: driver × 1 " +
		"schooner.Manager.acceptLoop × 2 schooner.Manager.serve × 1 " +
		"schooner.Server.acceptLoop × 3 (1 with deadlines, next in 2.5s)"
	if l, _ := ledger.Wait(0); l != want {
		t.Errorf("halfway through the first deadline the ledger reads\n\t%s\nwant\n\t%s", l, want)
	}
	// The Managers notice the hang-up on their next receive.
	v.Sleep(time.Second)
	if got := d.net.OpenConns(); got != base {
		t.Errorf("%d connection endpoints open after the failed registration, baseline %d", got, base)
	}
}

// TestOneShotDeadlines: every request the Manager makes on a
// connection of its own — a spawn, a state get and put, a readopt ping,
// a shutdown — and an Observe query give up on a peer that takes the
// request and never answers after exactly rpcTimeout, with a stale
// timeout, and leave no connection open behind them. The peer listens
// as the Server of a machine of its own, so a spawn reaches it too.
// readoptProcesses and shutdownProcess drop their error: the readopt
// row instead sees its victim — stateful, with no checkpoint — skipped
// by the failover path, and both rows are held to the deadline's time.
func TestOneShotDeadlines(t *testing.T) {
	d, v := newVirtualDeployment(t, "avs-sparc", ieeeHosts())
	d.net.MustAddHost("mute", machine.SGI)
	l, err := d.tr.Listen("mute", ServerPort)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	v.Go("mute.acceptLoop", func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			v.Go("mute.serve", func() {
				defer conn.Close()
				for {
					if _, err := conn.Recv(); err != nil {
						return
					}
				}
			})
		}
	})
	m, peer := d.mgr, l.Addr()
	proc := &remoteProc{addr: peer, exports: []*uts.ProcSpec{
		uts.MustParseProc(`export next prog("n" res integer) state("count" integer)`)}}
	for _, tc := range []struct {
		site  string
		quiet bool // the site drops its error
		ask   func() error
	}{
		{"spawn", false, func() error { _, err, _ := m.spawnOnce("mute", "/npss/adder", trace.SpanContext{}); return err }},
		{"state get", false, func() error { _, err := m.captureState(proc); return err }},
		{"state put", false, func() error { return m.installState(proc, map[string][]byte{"next": {0}}) }},
		{"readopt ping", true, func() error {
			m.mu.Lock()
			m.shared.processes[peer] = proc
			m.mu.Unlock()
			defer func() {
				m.mu.Lock()
				delete(m.shared.processes, peer)
				m.mu.Unlock()
			}()
			skipped := trace.Get("schooner.manager.failover_skipped_stateful")
			m.readoptProcesses()
			if trace.Get("schooner.manager.failover_skipped_stateful")-skipped != 1 {
				return errors.New("the mute process was not failed over")
			}
			return nil
		}},
		{"shutdown", true, func() error { m.shutdownProcess(proc); return nil }},
		{"Observe", false, func() error { _, err := Observe(d.tr, "avs-sparc", peer, "status"); return err }},
	} {
		base := d.net.OpenConns()
		before := v.Elapsed()
		err := tc.ask()
		if got := v.Elapsed() - before; got != rpcTimeout {
			t.Errorf("%s gave up after %v, want rpcTimeout = %v", tc.site, got, rpcTimeout)
		}
		if tc.quiet && err != nil {
			t.Errorf("%s of a mute peer: %v", tc.site, err)
		} else if !tc.quiet && (!isStale(err) || !errors.As(err, new(*timeoutError))) {
			t.Errorf("%s of a mute peer returned %v, want a stale timeout", tc.site, err)
		}
		// The peer notices the hang-up on its next receive.
		v.Sleep(time.Second)
		if got := d.net.OpenConns(); got != base {
			t.Errorf("%s: %d connection endpoints open afterwards, baseline %d", tc.site, got, base)
		}
	}
}

// TestStartRemoteSurvivesLostSpawn: one lost spawn message must cost
// the Manager one spawn retry, not fail the client's StartRemote. The
// client waits on the Manager with a 250 ms deadline, far shorter than
// the Manager's 3 s spawn round trip, so StartRemote's wait has to
// cover the Manager's whole spawn budget. Fault seed 1 drops exactly
// one message on the Manager-to-server link.
func TestStartRemoteSurvivesLostSpawn(t *testing.T) {
	d, _ := newVirtualDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	ln, err := d.clientWith("avs-sparc", CallPolicy{
		Timeout:    250 * time.Millisecond,
		MaxRetries: 2,
		Backoff:    10 * time.Millisecond,
		MaxBackoff: time.Second,
	}).ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	d.net.SetFaultSeed(1)
	d.net.SetLinkFlaky("avs-sparc", "sgi-lerc", netsim.FaultSpec{LossProb: 0.5})
	retriesBefore := trace.Get("schooner.manager.spawn_retries")
	err = ln.StartRemote("/npss/adder", "sgi-lerc")
	if n := d.net.TotalDropped(); n != 1 {
		t.Fatalf("fault seed 1 dropped %d messages, want exactly one", n)
	}
	if err != nil {
		t.Fatalf("StartRemote failed on one lost spawn message: %v", err)
	}
	if n := trace.Get("schooner.manager.spawn_retries") - retriesBefore; n != 1 {
		t.Errorf("spawn retries = %d, want 1", n)
	}
	d.net.SetLinkFlaky("avs-sparc", "sgi-lerc", netsim.FaultSpec{})
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	out, err := ln.Call("add", uts.DoubleVal(2), uts.DoubleVal(3))
	if err != nil || out[0].F != 5 {
		t.Fatalf("add after the respawn = %v, %v", out, err)
	}
}

// TestVirtualOneConnectionAnswersInRequestOrder pins the procedure
// process's discipline: it answers the requests on one connection one
// at a time, on the goroutine that read them. Four goroutines of one
// line call a procedure that sleeps ten virtual seconds, sending a
// millisecond apart; each gets its own answer, the k-th after k+1 naps,
// in the order they sent. Meanwhile a second line's call to another
// process completes in one round trip, without waiting for any nap.
func TestVirtualOneConnectionAnswersInRequestOrder(t *testing.T) {
	t.Parallel()
	const nap, callers = 10 * time.Second, 4
	d, v := newVirtualDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(napProgram(v, "/npss/nap", nap))
	d.reg.MustRegister(adderProgram("/npss/adder"))
	policy := CallPolicy{
		Timeout:    time.Duration(callers+2) * nap,
		MaxRetries: -1,
		Backoff:    time.Millisecond,
		MaxBackoff: time.Millisecond,
	}
	c := d.clientWith("avs-sparc", policy)
	slow, err := c.ContactSchx("slow")
	if err != nil {
		t.Fatal(err)
	}
	defer slow.IQuit()
	fast, err := c.ContactSchx("fast")
	if err != nil {
		t.Fatal(err)
	}
	defer fast.IQuit()
	if err := slow.StartRemote("/npss/nap", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	if err := fast.StartRemote("/npss/adder", "rs6000"); err != nil {
		t.Fatal(err)
	}
	slow.Import(uts.MustParseProc(`import nap prog("x" val double, "y" res double)`))
	fast.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	// Bind both lines, so that what follows is calls alone.
	if _, err := slow.Call("nap", uts.DoubleVal(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := fast.Call("add", uts.DoubleVal(0), uts.DoubleVal(0)); err != nil {
		t.Fatal(err)
	}

	type answer struct {
		k   int
		y   float64
		at  time.Duration
		err error
	}
	answers := vclock.NewQueue[answer](v)
	start := v.Elapsed()
	for k := 0; k < callers; k++ {
		v.Go("test.caller", func() {
			out, err := slow.Call("nap", uts.DoubleVal(float64(k)))
			a := answer{k: k, at: v.Elapsed() - start, err: err}
			if err == nil {
				a.y = out[0].F
			}
			answers.Push(a)
		})
		v.Sleep(time.Millisecond)
	}

	before := v.Elapsed()
	if out, err := fast.Call("add", uts.DoubleVal(1), uts.DoubleVal(2)); err != nil || out[0].F != 3 {
		t.Fatalf("add(1, 2) beside the naps = %v, %v", out, err)
	}
	if took := v.Elapsed() - before; took >= nap {
		t.Errorf("a call to another process took %v, waiting behind a %v nap", took, nap)
	}

	for i := 0; i < callers; i++ {
		a, ok := answers.Pop()
		if !ok {
			t.Fatal("answer queue closed")
		}
		if a.err != nil {
			t.Fatalf("caller %d: %v", a.k, a.err)
		}
		if a.k != i {
			t.Errorf("answer %d went to caller %d: not request order", i, a.k)
		}
		if a.y != 2*float64(a.k) {
			t.Errorf("caller %d got nap(%d) = %g, want %d", a.k, a.k, a.y, 2*a.k)
		}
		if lo, hi := time.Duration(a.k+1)*nap, time.Duration(a.k+2)*nap; a.at < lo || a.at >= hi {
			t.Errorf("caller %d answered after %v, want within [%v, %v): behind %d naps", a.k, a.at, lo, hi, a.k)
		}
	}
}

// brokenConn delivers a ping per Recv, up to three, then fails; every
// Send fails.
type brokenConn struct {
	recvs, sends int
	closed       bool
}

func (c *brokenConn) Recv() (*wire.Message, error) {
	if c.recvs == 3 {
		return nil, errors.New("connection reset")
	}
	c.recvs++
	return &wire.Message{Kind: wire.KPing, Seq: uint32(c.recvs)}, nil
}

func (c *brokenConn) Send(*wire.Message) error {
	c.sends++
	return errors.New("broken pipe")
}

func (c *brokenConn) Close() error {
	c.closed = true
	return nil
}

func (c *brokenConn) SetReadDeadline(time.Time) error { return nil }

func (c *brokenConn) RemoteLabel() string { return "broken" }

// TestServeReturnsWhenReplyFails: a procedure process stops serving a
// connection whose reply cannot be sent, as a Server does, instead of
// reading the requests behind it.
func TestServeReturnsWhenReplyFails(t *testing.T) {
	c := &brokenConn{}
	p := &process{done: make(chan struct{})}
	(&connSet{}).serve(c, p.handle, nil)
	if c.recvs != 1 || c.sends != 1 || !c.closed {
		t.Errorf("serve read %d requests and sent %d replies (closed %v), want 1 and 1 and the connection closed",
			c.recvs, c.sends, c.closed)
	}
}

// TestVirtualCallHandoffs pins what a call costs in hand-offs on the
// virtual clock, by equality: the turns each site takes (one per
// wake-up) and the goroutines it starts. The caller reads its own
// reply, so a warm call is two turns of the caller's and two of the
// process's: each parks once for its message to be queued and once
// for it to arrive. Go adds a goroutine, whose first turn is one more,
// and the driver's wake-up when it completes. A warm two-call
// CallBatch to one host costs what a warm call does: its caller sends
// the envelope and reads the reply itself, so the driver parks once
// for the envelope to be queued and once for the reply, the Server
// takes two turns, and no goroutine starts.
func TestVirtualCallHandoffs(t *testing.T) {
	d, v := newVirtualDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	cl := d.client("avs-sparc")
	defer cl.Close()
	ln, err := cl.ContactSchx("ledger")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	call := func() {
		if out, err := ln.Call("add", uts.DoubleVal(1), uts.DoubleVal(2)); err != nil || out[0].F != 3 {
			t.Fatalf("add(1, 2) = %v, %v", out, err)
		}
	}
	batch := func() {
		pends := cl.CallBatch([]CrossCall{
			{Line: ln, Name: "add", Args: []uts.Value{uts.DoubleVal(1), uts.DoubleVal(2)}},
			{Line: ln, Name: "add", Args: []uts.Value{uts.DoubleVal(3), uts.DoubleVal(4)}},
		})
		for i, p := range pends {
			if out, err := p.Wait(); err != nil || out[0].F != float64(4*i+3) {
				t.Fatalf("batched add %d = %v, %v", i, out, err)
			}
		}
	}
	call()  // bind
	batch() // dial the Server connection
	const n = 1000
	for _, c := range []struct {
		name          string
		op            func()
		turns, starts map[string]int
	}{
		{"warm call", call,
			map[string]int{"driver": 2 * n, "schooner.process.serve": 2 * n},
			map[string]int{}},
		{"Go().Wait()", func() {
			if out, err := ln.Go("add", uts.DoubleVal(1), uts.DoubleVal(2)).Wait(); err != nil || out[0].F != 3 {
				t.Fatalf("add(1, 2) = %v, %v", out, err)
			}
		},
			map[string]int{"driver": n, "schooner.Line.Go": 3 * n, "schooner.process.serve": 2 * n},
			map[string]int{"schooner.Line.Go": n}},
		{"flushed call", func() { ln.FlushCache(); call() },
			map[string]int{"driver": 4 * n, "schooner.Manager.serve": 2 * n,
				"schooner.process.acceptLoop": n, "schooner.process.serve": 3 * n},
			map[string]int{"schooner.process.serve": n}},
		{"warm two-call CallBatch", batch,
			map[string]int{"driver": 2 * n, "schooner.Server.serve": 2 * n},
			map[string]int{}},
	} {
		turns0, starts0 := v.Handoffs()
		for i := 0; i < n; i++ {
			c.op()
		}
		turns1, starts1 := v.Handoffs()
		if got := handoffDelta(turns0, turns1); !reflect.DeepEqual(got, c.turns) {
			t.Errorf("%s ×%d: turns %v, want %v", c.name, n, got, c.turns)
		}
		if got := handoffDelta(starts0, starts1); !reflect.DeepEqual(got, c.starts) {
			t.Errorf("%s ×%d: goroutine starts %v, want %v", c.name, n, got, c.starts)
		}
	}
}

// TestVirtualBatchOverlapsEnvelopes: a CallBatch to two machines puts
// both envelopes on the wire before it reads either reply, so on
// links with different delays it takes the slower machine's round
// trip, not the sum of the two, whichever machine's envelope comes
// first, and it starts no goroutine to do so.
func TestVirtualBatchOverlapsEnvelopes(t *testing.T) {
	d, v := newVirtualDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	d.net.SetLink("avs-sparc", "sgi-lerc", netsim.LinkSpec{Name: "near", Latency: 10 * time.Millisecond})
	d.net.SetLink("avs-sparc", "rs6000", netsim.LinkSpec{Name: "far", Latency: 35 * time.Millisecond})
	cl := d.client("avs-sparc")
	defer cl.Close()
	line := func(module, machine string) *Line {
		ln, err := cl.ContactSchx(module)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.IQuit() })
		if err := ln.StartRemote("/npss/adder", machine); err != nil {
			t.Fatal(err)
		}
		ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
		return ln
	}
	near, far := line("near", "sgi-lerc"), line("far", "rs6000")
	add := func(ln *Line, a float64) CrossCall {
		return CrossCall{Line: ln, Name: "add", Args: []uts.Value{uts.DoubleVal(a), uts.DoubleVal(1)}}
	}
	// batch runs the calls as one CallBatch and returns the virtual
	// time it took and the goroutines it started.
	batch := func(calls ...CrossCall) (time.Duration, map[string]int) {
		_, starts0 := v.Handoffs()
		start := v.Now()
		pends := cl.CallBatch(calls)
		took := v.Since(start)
		_, starts1 := v.Handoffs()
		for i, p := range pends {
			if out, err := p.Wait(); err != nil || out[0].F != calls[i].Args[0].F+1 {
				t.Fatalf("batch member %d = %v, %v", i, out, err)
			}
		}
		return took, handoffDelta(starts0, starts1)
	}
	// Bind both lines and dial both Servers.
	batch(add(near, 0), add(near, 1), add(far, 2), add(far, 3))

	tNear, _ := batch(add(near, 0), add(near, 1))
	tFar, _ := batch(add(far, 2), add(far, 3))
	if tNear >= tFar {
		t.Fatalf("one envelope: near %v, far %v; want the far link slower", tNear, tFar)
	}
	for _, order := range [][]CrossCall{
		{add(near, 0), add(far, 2), add(near, 1), add(far, 3)},
		{add(far, 2), add(near, 0), add(far, 3), add(near, 1)},
	} {
		took, starts := batch(order...)
		if took != tFar {
			t.Errorf("envelopes to both machines, %s first: %v, want the far round trip %v (the sum would be %v)",
				order[0].Line.Module(), took, tFar, tNear+tFar)
		}
		if len(starts) != 0 {
			t.Errorf("envelopes to both machines, %s first: started goroutines %v, want none", order[0].Line.Module(), starts)
		}
	}
}

// handoffDelta is after minus before, by site, without the zeros.
func handoffDelta(before, after map[string]int) map[string]int {
	d := make(map[string]int)
	for site, k := range after {
		if k -= before[site]; k != 0 {
			d[site] = k
		}
	}
	return d
}

// TestDemuxHandoffOnTimeout: the caller holding a shared connection's
// receive side times out while another caller waits. The receive side
// passes to the waiting caller, which reads past the first caller's
// late reply to its own, and the connection stays alive for the next
// request.
func TestDemuxHandoffOnTimeout(t *testing.T) {
	v, g := scriptedDemux(t, func(v *vclock.Virtual, srv wire.Conn) {
		first, _ := srv.Recv()
		second, _ := srv.Recv()
		v.Sleep(time.Second) // past the first caller's deadline
		pong(srv, first)
		pong(srv, second)
	})
	first := askAsync(v, g, 100*time.Millisecond) // takes the receive side
	second := askAsync(v, g, 10*time.Second)      // waits behind it
	if r := outcomeOf(first); !errors.As(r.err, new(*timeoutError)) {
		t.Fatalf("first caller = %v, %v; want a timeout", r.m, r.err)
	}
	if r := outcomeOf(second); r.err != nil || r.m.Kind != wire.KOK || r.m.Seq != 2 {
		t.Fatalf("second caller = %v, %v; want its pong, seq 2", r.m, r.err)
	}
	if g.dead() {
		t.Fatal("a timeout killed the shared connection")
	}
	if m, err := g.exchange(&wire.Message{Kind: wire.KPing}, time.Second); err != nil || m.Seq != 3 {
		t.Fatalf("the next request = %v, %v; want its pong, seq 3", m, err)
	}
}

// TestDemuxHandoffAtCommonDeadline: two callers time out at the same
// instant. The holder of the receive side hands it to the other, whose
// wait has already ended; that caller must pass it on, or the next
// request would wait for a reader that never comes.
func TestDemuxHandoffAtCommonDeadline(t *testing.T) {
	v, g := scriptedDemux(t, func(v *vclock.Virtual, srv wire.Conn) {
		srv.Recv() // neither is answered
		srv.Recv()
	})
	first := askAsync(v, g, 100*time.Millisecond)
	second := askAsync(v, g, 100*time.Millisecond)
	for i, s := range []*vclock.Slot{first, second} {
		if r := outcomeOf(s); !errors.As(r.err, new(*timeoutError)) {
			t.Fatalf("caller %d = %v, %v; want a timeout", i+1, r.m, r.err)
		}
	}
	if m, err := g.exchange(&wire.Message{Kind: wire.KPing}, time.Second); err != nil || m.Seq != 3 {
		t.Fatalf("the next request = %v, %v; want its pong, seq 3", m, err)
	}
}

// scriptedDemux connects a demuxConn on a fresh virtual clock to a peer
// that runs script on its end of the connection and then answers every
// further request at once.
func scriptedDemux(t *testing.T, script func(v *vclock.Virtual, srv wire.Conn)) (*vclock.Virtual, *demuxConn) {
	t.Helper()
	v := vclock.NewVirtual()
	n := netsim.New()
	n.SetClock(v)
	n.SetTimeScale(1)
	a := n.MustAddHost("avs-sparc", machine.SPARC)
	b := n.MustAddHost("sgi-lerc", machine.SGI)
	l, err := b.Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := a.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	v.Go("test.peer", func() {
		script(v, srv)
		for {
			req, err := srv.Recv()
			if err != nil {
				return
			}
			pong(srv, req)
		}
	})
	t.Cleanup(func() {
		srv.Close()
		if err := v.Stop(); err != nil {
			t.Error(err)
		}
	})
	return v, newDemuxConn(conn, v)
}

func pong(srv wire.Conn, req *wire.Message) {
	srv.Send(&wire.Message{Kind: wire.KOK, Seq: req.Seq})
}

// outcome is what one exchange returned.
type outcome struct {
	m   *wire.Message
	err error
}

// askAsync pings through g on a participant of its own; the slot it
// returns is filled with the outcome.
func askAsync(v *vclock.Virtual, g *demuxConn, timeout time.Duration) *vclock.Slot {
	done := v.NewSlot()
	v.Go("test.caller", func() {
		m, err := g.exchange(&wire.Message{Kind: wire.KPing}, timeout)
		done.Fill(outcome{m, err})
	})
	return done
}

// outcomeOf waits for what askAsync reports.
func outcomeOf(done *vclock.Slot) outcome {
	x, _ := done.Wait(0)
	return x.(outcome)
}
