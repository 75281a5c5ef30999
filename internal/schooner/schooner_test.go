package schooner

import (
	"fmt"
	"maps"
	"strings"
	"sync"
	"testing"
	"time"

	"npss/internal/machine"
	"npss/internal/netsim"
	"npss/internal/uts"
	"npss/internal/vclock"
)

// deployment is a complete test rig: a simulated network, a registry
// of programs, a Manager, and a Server on every host.
type deployment struct {
	net      *netsim.Network
	tr       Transport
	reg      *Registry
	mgr      *Manager
	servers  map[string]*Server
	mgrHost  string
	cmu      sync.Mutex
	clientBy map[string]*Client
}

// newDeployment builds hosts (name -> arch), starts the Manager on the
// first listed host of mgrHost, and a Server everywhere.
func newDeployment(t *testing.T, mgrHost string, hosts map[string]*machine.Arch) *deployment {
	t.Helper()
	d := newWallRig(t, mgrHost, hosts)
	mgr, err := StartManager(d.tr, mgrHost)
	if err != nil {
		t.Fatal(err)
	}
	d.mgr = mgr
	d.startServers(t, hosts)
	return d
}

// newWallRig builds the network of a wall-clock deployment, whose
// teardown stops the Manager and the Servers, then waits until every
// goroutine it started has returned, so no test leaves work running
// into the next.
func newWallRig(t *testing.T, mgrHost string, hosts map[string]*machine.Arch) *deployment {
	t.Helper()
	clock := newTrackedClock()
	n := netsim.New()
	n.SetClock(clock)
	for name, arch := range hosts {
		n.MustAddHost(name, arch)
	}
	d := &deployment{
		net: n, tr: NewSimTransport(n), reg: NewRegistry(), mgrHost: mgrHost,
		servers: make(map[string]*Server), clientBy: make(map[string]*Client),
	}
	t.Cleanup(func() {
		d.mgr.Stop()
		for _, s := range d.servers {
			s.Stop()
		}
		if live := clock.wait(10 * time.Second); len(live) > 0 {
			t.Errorf("goroutines outlived the deployment's teardown: %v", live)
		}
	})
	return d
}

// startServers starts a Server on every host.
func (d *deployment) startServers(t *testing.T, hosts map[string]*machine.Arch) {
	t.Helper()
	for name := range hosts {
		srv, err := StartServer(d.tr, name, d.reg)
		if err != nil {
			t.Fatal(err)
		}
		d.servers[name] = srv
	}
}

// client returns a Client situated on the given host.
func (d *deployment) client(host string) *Client {
	d.cmu.Lock()
	defer d.cmu.Unlock()
	if c, ok := d.clientBy[host]; ok {
		return c
	}
	c := &Client{Transport: d.tr, Host: host, ManagerHost: d.mgrHost}
	d.clientBy[host] = c
	return c
}

// clientWith returns a client of its own on host, outside the per-host
// cache, whose lines run under policy p.
func (d *deployment) clientWith(host string, p CallPolicy) *Client {
	return &Client{Transport: d.tr, Host: host, ManagerHost: d.mgrHost, Policy: p}
}

// trackedClock is the wall clock, counting by site the goroutines
// started on it, so a teardown can wait for them.
type trackedClock struct {
	vclock.Clock
	mu   sync.Mutex
	live map[string]int
	idle chan struct{} // closed and replaced whenever live empties
}

func newTrackedClock() *trackedClock {
	return &trackedClock{Clock: vclock.Real(), live: make(map[string]int), idle: make(chan struct{})}
}

func (c *trackedClock) Go(site string, fn func()) {
	c.mu.Lock()
	c.live[site]++
	c.mu.Unlock()
	go func() {
		defer func() {
			c.mu.Lock()
			if c.live[site]--; c.live[site] == 0 {
				delete(c.live, site)
			}
			if len(c.live) == 0 {
				close(c.idle)
				c.idle = make(chan struct{})
			}
			c.mu.Unlock()
		}()
		fn()
	}()
}

// wait waits up to d for every goroutine started on the clock to
// return and reports, by site, those still running.
func (c *trackedClock) wait(d time.Duration) map[string]int {
	deadline := time.After(d)
	for {
		c.mu.Lock()
		if len(c.live) == 0 {
			c.mu.Unlock()
			return nil
		}
		idle := c.idle
		c.mu.Unlock()
		select {
		case <-idle:
		case <-deadline:
			c.mu.Lock()
			defer c.mu.Unlock()
			return maps.Clone(c.live)
		}
	}
}

// adderProgram is a C-language program exporting add and scale.
func adderProgram(path string) *Program {
	return &Program{
		Path:     path,
		Language: LangC,
		Build: func() (*Instance, error) {
			add := &BoundProc{
				Spec: uts.MustParseProc(`export add prog("a" val double, "b" val double, "sum" res double)`),
				Fn: func(in []uts.Value) ([]uts.Value, error) {
					return []uts.Value{uts.DoubleVal(in[0].F + in[1].F)}, nil
				},
			}
			scale := &BoundProc{
				Spec: uts.MustParseProc(`export scale prog("xs" var array[3] of double, "k" val double)`),
				Fn: func(in []uts.Value) ([]uts.Value, error) {
					xs, _ := in[0].Floats()
					k := in[1].F
					return []uts.Value{uts.DoubleArray(xs[0]*k, xs[1]*k, xs[2]*k)}, nil
				},
			}
			return NewInstance(add, scale)
		},
	}
}

// shaftProgram is a Fortran-language program mirroring the paper's
// npss-shaft file: setshaft computes a correction factor once, shaft
// computes the spool acceleration each iteration.
func shaftProgram(path string) *Program {
	return &Program{
		Path:     path,
		Language: LangFortran,
		Build: func() (*Instance, error) {
			setshaft := &BoundProc{
				Spec: uts.MustParseProc(`export setshaft prog(
					"ecom" val array[4] of double, "incom" val integer,
					"etur" val array[4] of double, "intur" val integer,
					"ecorr" res double)`),
				Fn: func(in []uts.Value) ([]uts.Value, error) {
					ecom, _ := in[0].Floats()
					etur, _ := in[2].Floats()
					var sum float64
					for i := range ecom {
						sum += etur[i] - ecom[i]
					}
					return []uts.Value{uts.DoubleVal(1 + sum/100)}, nil
				},
			}
			shaft := &BoundProc{
				Spec: uts.MustParseProc(`export shaft prog(
					"ecom" val array[4] of double, "incom" val integer,
					"etur" val array[4] of double, "intur" val integer,
					"ecorr" val double, "xspool" val double, "xmyi" val double,
					"dxspl" res double)`),
				Fn: func(in []uts.Value) ([]uts.Value, error) {
					ecom, _ := in[0].Floats()
					etur, _ := in[2].Floats()
					ecorr, xspool, xmyi := in[4].F, in[5].F, in[6].F
					var qc, qt float64
					for i := range ecom {
						qc += ecom[i]
						qt += etur[i]
					}
					if xspool == 0 || xmyi == 0 {
						return nil, fmt.Errorf("shaft: zero spool speed or inertia")
					}
					return []uts.Value{uts.DoubleVal(ecorr * (qt - qc) / (xmyi * xspool))}, nil
				},
			}
			return NewInstance(setshaft, shaft)
		},
	}
}

// counterProgram is a stateful program exporting next, with a state
// clause enabling migration with state transfer.
func counterProgram(path string) *Program {
	return &Program{
		Path:     path,
		Language: LangC,
		Build: func() (*Instance, error) {
			var count int64
			next := &BoundProc{
				Spec: uts.MustParseProc(`export next prog("n" res integer) state("count" integer)`),
				Fn: func(in []uts.Value) ([]uts.Value, error) {
					count++
					return []uts.Value{uts.MustInt(int(count))}, nil
				},
				GetState: func() ([]uts.Value, error) {
					return []uts.Value{uts.MustInt(int(count))}, nil
				},
				SetState: func(vals []uts.Value) error {
					count = vals[0].I
					return nil
				},
			}
			return NewInstance(next)
		},
	}
}

func ieeeHosts() map[string]*machine.Arch {
	return map[string]*machine.Arch{
		"avs-sparc": machine.SPARC,
		"sgi-lerc":  machine.SGI,
		"rs6000":    machine.RS6000,
	}
}

func TestBasicRPC(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	ln, err := d.client("avs-sparc").ContactSchx("adder-module")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if ln.ID() == 0 || ln.Module() != "adder-module" {
		t.Errorf("line = %d %q", ln.ID(), ln.Module())
	}
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	if err := ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`)); err != nil {
		t.Fatal(err)
	}
	out, err := ln.Call("add", uts.DoubleVal(2.25), uts.DoubleVal(3.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].F != 5.75 {
		t.Errorf("add = %v", out)
	}
	// var parameter: in and out.
	if err := ln.Import(uts.MustParseProc(`import scale prog("xs" var array[3] of double, "k" val double)`)); err != nil {
		t.Fatal(err)
	}
	out, err = ln.Call("scale", uts.DoubleArray(1, 2, 3), uts.DoubleVal(10))
	if err != nil {
		t.Fatal(err)
	}
	xs, _ := out[0].Floats()
	if xs[0] != 10 || xs[1] != 20 || xs[2] != 30 {
		t.Errorf("scale = %v", xs)
	}
}

func TestPaperShaftSequence(t *testing.T) {
	// The paper's usage: setshaft once at steady-state start, shaft
	// repeatedly during the transient.
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(shaftProgram("/npss/npss-shaft"))
	ln, _ := d.client("avs-sparc").ContactSchx("shaft-module")
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/npss-shaft", "rs6000"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import setshaft prog(
		"ecom" val array[4] of double, "incom" val integer,
		"etur" val array[4] of double, "intur" val integer,
		"ecorr" res double)`))
	ln.Import(uts.MustParseProc(`import shaft prog(
		"ecom" val array[4] of double, "incom" val integer,
		"etur" val array[4] of double, "intur" val integer,
		"ecorr" val double, "xspool" val double, "xmyi" val double,
		"dxspl" res double)`))
	ecom := uts.DoubleArray(10, 10, 10, 10)
	etur := uts.DoubleArray(11, 11, 11, 11)
	out, err := ln.Call("setshaft", ecom, uts.MustInt(4), etur, uts.MustInt(4))
	if err != nil {
		t.Fatal(err)
	}
	ecorr := out[0]
	if ecorr.F != 1.04 {
		t.Errorf("ecorr = %v", ecorr.F)
	}
	for i := 0; i < 10; i++ {
		out, err := ln.Call("shaft", ecom, uts.MustInt(4), etur, uts.MustInt(4),
			ecorr, uts.DoubleVal(0.9), uts.DoubleVal(2.0))
		if err != nil {
			t.Fatal(err)
		}
		want := 1.04 * 4 / (2.0 * 0.9)
		if diff := out[0].F - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("dxspl = %v, want %v", out[0].F, want)
		}
	}
	// Application errors propagate with context.
	_, err = ln.Call("shaft", ecom, uts.MustInt(4), etur, uts.MustInt(4),
		ecorr, uts.DoubleVal(0), uts.DoubleVal(2.0))
	if err == nil || !strings.Contains(err.Error(), "zero spool") {
		t.Errorf("application error = %v", err)
	}
}

func TestSubsetImport(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(shaftProgram("/npss/npss-shaft"))
	ln, _ := d.client("avs-sparc").ContactSchx("m")
	defer ln.IQuit()
	ln.StartRemote("/npss/npss-shaft", "sgi-lerc")
	// Import only some of setshaft's parameters; omitted val params
	// are zero-filled at the export.
	ln.Import(uts.MustParseProc(`import setshaft prog(
		"etur" val array[4] of double, "intur" val integer, "ecorr" res double)`))
	out, err := ln.Call("setshaft", uts.DoubleArray(5, 5, 5, 5), uts.MustInt(4))
	if err != nil {
		t.Fatal(err)
	}
	// ecom was zero-filled: sum = 20, ecorr = 1.2.
	if diff := out[0].F - 1.2; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("ecorr = %v, want 1.2", out[0].F)
	}
}

func TestTypeCheckMismatch(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	ln, _ := d.client("avs-sparc").ContactSchx("m")
	defer ln.IQuit()
	ln.StartRemote("/npss/adder", "sgi-lerc")
	// Wrong type for "a".
	ln.Import(uts.MustParseProc(`import add prog("a" val float, "b" val double, "sum" res double)`))
	_, err := ln.Call("add", uts.FloatVal(1), uts.DoubleVal(2))
	if err == nil || !strings.Contains(err.Error(), "type check") {
		t.Errorf("type mismatch = %v", err)
	}
}

func TestFortranCaseSynonyms(t *testing.T) {
	hosts := ieeeHosts()
	hosts["cray-lerc"] = machine.CrayYMP
	d := newDeployment(t, "avs-sparc", hosts)
	d.reg.MustRegister(shaftProgram("/npss/npss-shaft"))

	// On the Cray the Fortran compiler upper-cases the exported names;
	// a client importing lower-case "setshaft" must still bind.
	ln, _ := d.client("avs-sparc").ContactSchx("m")
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/npss-shaft", "cray-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import setshaft prog(
		"ecom" val array[4] of double, "incom" val integer,
		"etur" val array[4] of double, "intur" val integer,
		"ecorr" res double)`))
	if _, err := ln.Call("setshaft", uts.DoubleArray(1, 1, 1, 1), uts.MustInt(4),
		uts.DoubleArray(1, 1, 1, 1), uts.MustInt(4)); err != nil {
		t.Fatalf("lower-case call to Cray-hosted Fortran: %v", err)
	}

	// And upper-case imports work against a lower-casing machine.
	ln2, _ := d.client("avs-sparc").ContactSchx("m2")
	defer ln2.IQuit()
	if err := ln2.StartRemote("/npss/npss-shaft", "rs6000"); err != nil {
		t.Fatal(err)
	}
	ln2.Import(uts.MustParseProc(`import SETSHAFT prog(
		"ecom" val array[4] of double, "incom" val integer,
		"etur" val array[4] of double, "intur" val integer,
		"ecorr" res double)`))
	if _, err := ln2.Call("SETSHAFT", uts.DoubleArray(1, 1, 1, 1), uts.MustInt(4),
		uts.DoubleArray(1, 1, 1, 1), uts.MustInt(4)); err != nil {
		t.Fatalf("upper-case call to RS6000-hosted Fortran: %v", err)
	}
}

func TestCNamesAreCaseSensitive(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	ln, _ := d.client("avs-sparc").ContactSchx("m")
	defer ln.IQuit()
	ln.StartRemote("/npss/adder", "sgi-lerc")
	ln.Import(uts.MustParseProc(`import ADD prog("a" val double, "b" val double, "sum" res double)`))
	if _, err := ln.Call("ADD", uts.DoubleVal(1), uts.DoubleVal(2)); err == nil {
		t.Error("case-folded lookup of a C procedure succeeded; C names must be exact")
	}
}

func TestDuplicateNamesWithinLineRejected(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	ln, _ := d.client("avs-sparc").ContactSchx("m")
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	err := ln.StartRemote("/npss/adder", "rs6000")
	if err == nil || !strings.Contains(err.Error(), "already bound") {
		t.Errorf("duplicate start = %v", err)
	}
}

func TestDuplicateNamesAcrossLines(t *testing.T) {
	// The F100 network has two shaft modules: each line gets its own
	// instance of the same procedure names.
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(counterProgram("/npss/counter"))
	lnA, _ := d.client("avs-sparc").ContactSchx("low-shaft")
	lnB, _ := d.client("avs-sparc").ContactSchx("high-shaft")
	defer lnA.IQuit()
	defer lnB.IQuit()
	if err := lnA.StartRemote("/npss/counter", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	if err := lnB.StartRemote("/npss/counter", "rs6000"); err != nil {
		t.Fatal(err)
	}
	imp := uts.MustParseProc(`import next prog("n" res integer)`)
	lnA.Import(imp)
	lnB.Import(imp)
	// Each line has an independent instance with independent state.
	for i := 1; i <= 3; i++ {
		out, err := lnA.Call("next")
		if err != nil || out[0].I != int64(i) {
			t.Fatalf("lnA next #%d = %v, %v", i, out, err)
		}
	}
	out, err := lnB.Call("next")
	if err != nil || out[0].I != 1 {
		t.Fatalf("lnB next = %v, %v (state leaked between lines)", out, err)
	}
	if d.mgr.LineCount() != 2 {
		t.Errorf("LineCount = %d", d.mgr.LineCount())
	}
}

func TestPerLineShutdown(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(counterProgram("/npss/counter"))
	lnA, _ := d.client("avs-sparc").ContactSchx("a")
	lnB, _ := d.client("avs-sparc").ContactSchx("b")
	lnA.StartRemote("/npss/counter", "sgi-lerc")
	lnB.StartRemote("/npss/counter", "sgi-lerc")
	imp := uts.MustParseProc(`import next prog("n" res integer)`)
	lnA.Import(imp)
	lnB.Import(imp)
	if _, err := lnA.Call("next"); err != nil {
		t.Fatal(err)
	}
	if _, err := lnB.Call("next"); err != nil {
		t.Fatal(err)
	}
	// Quit A: only A's processes die.
	if err := lnA.IQuit(); err != nil {
		t.Fatal(err)
	}
	if _, err := lnA.Call("next"); err == nil {
		t.Error("call on quit line succeeded")
	}
	if out, err := lnB.Call("next"); err != nil || out[0].I != 2 {
		t.Errorf("lnB after A quit = %v, %v", out, err)
	}
	lnB.IQuit()
	// Deadline-free check that all processes eventually stop.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if d.servers["sgi-lerc"].ProcessCount() == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("processes still alive after both quits: %d", d.servers["sgi-lerc"].ProcessCount())
}

func TestConnectionDropShutsLine(t *testing.T) {
	// A module that disappears without sch_i_quit (error case): the
	// Manager shuts down the line's remote computations.
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(counterProgram("/npss/counter"))
	ln, _ := d.client("avs-sparc").ContactSchx("dying")
	ln.StartRemote("/npss/counter", "sgi-lerc")
	if d.mgr.LineCount() != 1 {
		t.Fatalf("LineCount = %d", d.mgr.LineCount())
	}
	// Simulate module crash: close the manager connection directly.
	ln.mgr.conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if d.mgr.LineCount() == 0 && d.servers["sgi-lerc"].ProcessCount() == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("line not cleaned after connection drop: lines=%d procs=%d",
		d.mgr.LineCount(), d.servers["sgi-lerc"].ProcessCount())
}

func TestMigrationStateless(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	ln, _ := d.client("avs-sparc").ContactSchx("m")
	defer ln.IQuit()
	ln.StartRemote("/npss/adder", "sgi-lerc")
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	if _, err := ln.Call("add", uts.DoubleVal(1), uts.DoubleVal(2)); err != nil {
		t.Fatal(err)
	}
	// Move to rs6000 (scheduled downtime scenario).
	if err := ln.Move("add", "rs6000", false); err != nil {
		t.Fatal(err)
	}
	out, err := ln.Call("add", uts.DoubleVal(3), uts.DoubleVal(4))
	if err != nil || out[0].F != 7 {
		t.Fatalf("post-move call = %v, %v", out, err)
	}
	if d.servers["rs6000"].ProcessCount() != 1 {
		t.Errorf("rs6000 processes = %d", d.servers["rs6000"].ProcessCount())
	}
	deadline := time.Now().Add(2 * time.Second)
	for d.servers["sgi-lerc"].ProcessCount() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if d.servers["sgi-lerc"].ProcessCount() != 0 {
		t.Errorf("old process still on sgi-lerc")
	}
}

func TestMigrationLazyCacheRecovery(t *testing.T) {
	// A second module bound to a shared procedure discovers the move
	// lazily: its cached call fails, it re-asks the Manager, retries.
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	owner, _ := d.client("avs-sparc").ContactSchx("owner")
	other, _ := d.client("sgi-lerc").ContactSchx("other")
	defer owner.IQuit()
	defer other.IQuit()
	if err := owner.StartShared("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	imp := uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`)
	owner.Import(imp)
	other.Import(imp)
	// Both bind and call.
	if _, err := owner.Call("add", uts.DoubleVal(1), uts.DoubleVal(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Call("add", uts.DoubleVal(1), uts.DoubleVal(1)); err != nil {
		t.Fatal(err)
	}
	// Owner moves the shared procedure; other's cache is now stale.
	if err := owner.MoveShared("add", "rs6000", false); err != nil {
		t.Fatal(err)
	}
	out, err := other.Call("add", uts.DoubleVal(20), uts.DoubleVal(22))
	if err != nil {
		t.Fatalf("stale-cache recovery failed: %v", err)
	}
	if out[0].F != 42 {
		t.Errorf("post-move result = %v", out[0].F)
	}
}

func TestMigrationWithState(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(counterProgram("/npss/counter"))
	ln, _ := d.client("avs-sparc").ContactSchx("m")
	defer ln.IQuit()
	ln.StartRemote("/npss/counter", "sgi-lerc")
	ln.Import(uts.MustParseProc(`import next prog("n" res integer)`))
	for i := 1; i <= 5; i++ {
		out, err := ln.Call("next")
		if err != nil || out[0].I != int64(i) {
			t.Fatalf("pre-move next = %v, %v", out, err)
		}
	}
	// Stateless move would reset the counter; state transfer must not.
	if err := ln.Move("next", "rs6000", true); err != nil {
		t.Fatal(err)
	}
	out, err := ln.Call("next")
	if err != nil || out[0].I != 6 {
		t.Fatalf("post-move next = %v, %v (state lost)", out, err)
	}
	// Contrast: a stateless move resets.
	if err := ln.Move("next", "sgi-lerc", false); err != nil {
		t.Fatal(err)
	}
	out, err = ln.Call("next")
	if err != nil || out[0].I != 1 {
		t.Fatalf("stateless move next = %v, %v (state unexpectedly kept)", out, err)
	}
}

func TestSharedProcedureSurvivesLineQuit(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	a, _ := d.client("avs-sparc").ContactSchx("a")
	b, _ := d.client("avs-sparc").ContactSchx("b")
	defer b.IQuit()
	if err := a.StartShared("/npss/adder", "rs6000"); err != nil {
		t.Fatal(err)
	}
	imp := uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`)
	a.Import(imp)
	b.Import(imp)
	if _, err := a.Call("add", uts.DoubleVal(1), uts.DoubleVal(1)); err != nil {
		t.Fatal(err)
	}
	a.IQuit()
	// b still reaches the shared procedure after a's line is gone.
	out, err := b.Call("add", uts.DoubleVal(2), uts.DoubleVal(3))
	if err != nil || out[0].F != 5 {
		t.Fatalf("shared call after owner quit = %v, %v", out, err)
	}
}

func TestLineLocalShadowsShared(t *testing.T) {
	// "Mapping requests ... checked first against procedures in the
	// line ... then against a list of shared procedures."
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(counterProgram("/npss/counter"))
	d.reg.MustRegister(&Program{
		Path:     "/npss/counter-shared",
		Language: LangC,
		Build: func() (*Instance, error) {
			next := &BoundProc{
				Spec: uts.MustParseProc(`export next prog("n" res integer)`),
				Fn: func(in []uts.Value) ([]uts.Value, error) {
					return []uts.Value{uts.MustInt(-99)}, nil
				},
			}
			return NewInstance(next)
		},
	})
	ln, _ := d.client("avs-sparc").ContactSchx("m")
	defer ln.IQuit()
	if err := ln.StartShared("/npss/counter-shared", "rs6000"); err != nil {
		t.Fatal(err)
	}
	if err := ln.StartRemote("/npss/counter", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import next prog("n" res integer)`))
	out, err := ln.Call("next")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].I != 1 {
		t.Errorf("line-local procedure not preferred: got %d", out[0].I)
	}
}

func TestConcurrentLines(t *testing.T) {
	// Lines execute independently: concurrent calls from many lines
	// must not interfere.
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(counterProgram("/npss/counter"))
	const lines = 8
	const calls = 25
	var wg sync.WaitGroup
	errs := make(chan error, lines)
	for i := 0; i < lines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ln, err := d.client("avs-sparc").ContactSchx(fmt.Sprintf("mod-%d", i))
			if err != nil {
				errs <- err
				return
			}
			defer ln.IQuit()
			host := []string{"sgi-lerc", "rs6000"}[i%2]
			if err := ln.StartRemote("/npss/counter", host); err != nil {
				errs <- err
				return
			}
			ln.Import(uts.MustParseProc(`import next prog("n" res integer)`))
			for j := 1; j <= calls; j++ {
				out, err := ln.Call("next")
				if err != nil {
					errs <- err
					return
				}
				if out[0].I != int64(j) {
					errs <- fmt.Errorf("line %d: next = %d, want %d", i, out[0].I, j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestHeterogeneousRangeError(t *testing.T) {
	hosts := ieeeHosts()
	hosts["ibm-mainframe"] = machine.IBM370
	d := newDeployment(t, "avs-sparc", hosts)
	d.reg.MustRegister(adderProgram("/npss/adder"))
	ln, _ := d.client("avs-sparc").ContactSchx("m")
	defer ln.IQuit()
	ln.StartRemote("/npss/adder", "ibm-mainframe")
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	// In range: works (with hex-float precision).
	out, err := ln.Call("add", uts.DoubleVal(1.5), uts.DoubleVal(2.5))
	if err != nil || out[0].F != 4 {
		t.Fatalf("in-range call = %v, %v", out, err)
	}
	// 1e100 exceeds IBM hex float range: the conversion error must
	// propagate to the caller, not silently become infinity.
	_, err = ln.Call("add", uts.DoubleVal(1e100), uts.DoubleVal(0))
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range call = %v", err)
	}
}

func TestCrayPrecisionAcrossRPC(t *testing.T) {
	hosts := ieeeHosts()
	hosts["cray-lerc"] = machine.CrayYMP
	d := newDeployment(t, "avs-sparc", hosts)
	d.reg.MustRegister(adderProgram("/npss/adder"))
	ln, _ := d.client("avs-sparc").ContactSchx("m")
	defer ln.IQuit()
	ln.StartRemote("/npss/adder", "cray-lerc")
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	a, b := 1.0/3.0, 1.0/7.0
	out, err := ln.Call("add", uts.DoubleVal(a), uts.DoubleVal(b))
	if err != nil {
		t.Fatal(err)
	}
	got, want := out[0].F, a+b
	rel := (got - want) / want
	if rel < 0 {
		rel = -rel
	}
	if rel > 1e-13 {
		t.Errorf("Cray add error %g too large", rel)
	}
}

func TestErrorPaths(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	ln, _ := d.client("avs-sparc").ContactSchx("m")
	defer ln.IQuit()

	// Start on unknown machine.
	if err := ln.StartRemote("/npss/adder", "ghost"); err == nil {
		t.Error("start on unknown machine succeeded")
	}
	// Start unknown executable.
	if err := ln.StartRemote("/npss/missing", "sgi-lerc"); err == nil {
		t.Error("start of unknown executable succeeded")
	}
	// Empty path/machine.
	if err := ln.StartRemote("", "sgi-lerc"); err == nil {
		t.Error("empty path accepted")
	}
	// Call without import spec.
	if _, err := ln.Call("add"); err == nil {
		t.Error("call without import succeeded")
	}
	// Lookup of never-started procedure.
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	if _, err := ln.Call("add", uts.DoubleVal(1), uts.DoubleVal(2)); err == nil {
		t.Error("call before start succeeded")
	}
	// Wrong argument count.
	ln.StartRemote("/npss/adder", "sgi-lerc")
	if _, err := ln.Call("add", uts.DoubleVal(1)); err == nil {
		t.Error("short argument list accepted")
	}
	// Duplicate import registration.
	if err := ln.Import(uts.MustParseProc(`import add prog("a" val double)`)); err == nil {
		t.Error("duplicate import accepted")
	}
	// Move of unknown procedure.
	if err := ln.Move("bogus", "rs6000", false); err == nil {
		t.Error("move of unknown procedure succeeded")
	}
	// Stateless program cannot move with state.
	if err := ln.Move("add", "rs6000", true); err == nil {
		t.Error("state move of stateless procedure succeeded")
	}
}

func TestManagerStopShutsEverything(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(counterProgram("/npss/counter"))
	ln, _ := d.client("avs-sparc").ContactSchx("m")
	ln.StartRemote("/npss/counter", "sgi-lerc")
	d.mgr.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for d.servers["sgi-lerc"].ProcessCount() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := d.servers["sgi-lerc"].ProcessCount(); n != 0 {
		t.Errorf("%d processes survive manager stop", n)
	}
	// New registrations are refused.
	if _, err := d.client("avs-sparc").ContactSchx("late"); err == nil {
		t.Error("registration after manager stop succeeded")
	}
}

func TestManagerPersistsAcrossRuns(t *testing.T) {
	// The persistent Manager handles multiple runs: load a "model",
	// quit it, load another.
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	for run := 0; run < 3; run++ {
		ln, err := d.client("avs-sparc").ContactSchx(fmt.Sprintf("run-%d", run))
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
		if _, err := ln.Call("add", uts.DoubleVal(1), uts.DoubleVal(1)); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if err := ln.IQuit(); err != nil {
			t.Fatalf("run %d quit: %v", run, err)
		}
	}
	if d.mgr.LineCount() != 0 {
		t.Errorf("lines remain: %v", d.mgr.Lines())
	}
}

func TestLinesListing(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	a, _ := d.client("avs-sparc").ContactSchx("first")
	b, _ := d.client("avs-sparc").ContactSchx("second")
	defer a.IQuit()
	defer b.IQuit()
	lines := d.mgr.Lines()
	if len(lines) != 2 || !strings.HasSuffix(lines[0], "first") || !strings.HasSuffix(lines[1], "second") {
		t.Errorf("Lines = %v", lines)
	}
}

func TestDoubleIQuitIsIdempotent(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	ln, _ := d.client("avs-sparc").ContactSchx("m")
	if err := ln.IQuit(); err != nil {
		t.Fatal(err)
	}
	if err := ln.IQuit(); err != nil {
		t.Errorf("second IQuit: %v", err)
	}
}
