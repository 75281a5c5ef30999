package daemon

import (
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"npss/internal/schooner"
	"npss/internal/trace"
	"npss/internal/uts"
	"npss/internal/wire"
)

const echoImport = `import echo prog("x" val double, "y" res double)`

// echoRegistry holds the schooner-server daemon's connectivity
// program, /npss/echo, whose echo procedure returns its argument.
func echoRegistry() *schooner.Registry {
	reg := schooner.NewRegistry()
	reg.MustRegister(&schooner.Program{
		Path:     "/npss/echo",
		Language: schooner.LangC,
		Build: func() (*schooner.Instance, error) {
			return schooner.NewInstance(&schooner.BoundProc{
				Spec: uts.MustParseProc(`export echo prog("x" val double, "y" res double)`),
				Fn: func(in []uts.Value) ([]uts.Value, error) {
					return []uts.Value{uts.DoubleVal(in[0].F)}, nil
				},
			})
		},
	})
	return reg
}

// deployment is a Manager on host avs and one Server per host-table
// entry, each on a transport of its own built the way its daemon
// builds it.
type deployment struct {
	hosts   []HostSpec
	mgrAddr string
	mgr     *schooner.Manager
	servers map[string]*schooner.Server
}

func deploy(t *testing.T, table string) *deployment {
	t.Helper()
	hosts, err := ParseHosts(table)
	if err != nil {
		t.Fatal(err)
	}
	d := &deployment{hosts: hosts, mgrAddr: freePort(t), servers: make(map[string]*schooner.Server)}
	for _, h := range hosts {
		tr := BuildTransport(hosts, "", "", map[string]string{h.Name + ":" + schooner.ServerPort: h.ServerAddr})
		srv, err := schooner.StartServer(tr, h.Name, echoRegistry())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		d.servers[h.Name] = srv
	}
	tr := BuildTransport(hosts, "avs", d.mgrAddr, map[string]string{"avs:" + schooner.ManagerPort: d.mgrAddr})
	if d.mgr, err = schooner.StartManager(tr, "avs"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.mgr.Stop)
	return d
}

// transport is a module process's transport: every table, no binds.
func (d *deployment) transport() schooner.Transport {
	return BuildTransport(d.hosts, "avs", d.mgrAddr, nil)
}

func (d *deployment) client() *schooner.Client {
	return &schooner.Client{Transport: d.transport(), Host: "avs", ManagerHost: "avs"}
}

// dialRecorder records every address dialed through it.
type dialRecorder struct {
	schooner.Transport
	mu    sync.Mutex
	addrs []string
}

func (r *dialRecorder) Dial(from, addr string) (wire.Conn, error) {
	r.mu.Lock()
	r.addrs = append(r.addrs, addr)
	r.mu.Unlock()
	return r.Transport.Dial(from, addr)
}

// TestHostBatchOverDaemonTransport puts a machine's Server on
// 127.0.0.2 and two lines' processes on that machine. A process's
// address is "cray2:<port>" and its socket is on the Server's IP, so a
// cross-line batch finds the machine's Server and costs one round trip.
func TestHostBatchOverDaemonTransport(t *testing.T) {
	d := deploy(t, "cray2=cray-ymp@"+freePortOn(t, "127.0.0.2"))
	rec := &dialRecorder{Transport: d.transport()}
	c := &schooner.Client{Transport: rec, Host: "avs", ManagerHost: "avs"}
	var lines []*schooner.Line
	for _, module := range []string{"modA", "modB"} {
		ln, err := c.ContactSchx(module)
		if err != nil {
			t.Fatal(err)
		}
		defer ln.IQuit()
		if err := ln.StartRemote("/npss/echo", "cray2"); err != nil {
			t.Fatal(err)
		}
		ln.Import(uts.MustParseProc(echoImport))
		if _, err := ln.Call("echo", uts.DoubleVal(0)); err != nil { // warm the binding
			t.Fatal(err)
		}
		lines = append(lines, ln)
	}

	batchesBefore := trace.Get("schooner.client.host_batches")
	rpcsBefore := trace.Get("schooner.client.rpcs")
	pends := c.CallBatch([]schooner.CrossCall{
		{Line: lines[0], Name: "echo", Args: []uts.Value{uts.DoubleVal(1)}},
		{Line: lines[1], Name: "echo", Args: []uts.Value{uts.DoubleVal(2)}},
	})
	for i, p := range pends {
		out, err := p.Wait()
		if err != nil || out[0].F != float64(i+1) {
			t.Fatalf("member %d = %v, %v", i, out, err)
		}
	}
	if got := trace.Get("schooner.client.host_batches") - batchesBefore; got != 1 {
		t.Errorf("host_batches advanced by %d, want 1", got)
	}
	if got := trace.Get("schooner.client.rpcs") - rpcsBefore; got != 1 {
		t.Errorf("%d round trips for a host batch of 2, want 1", got)
	}

	// The two warm-up calls dialed the bindings; every other dial went
	// to a well-known port.
	var bindings int
	for _, addr := range rec.addrs {
		host, port, err := net.SplitHostPort(addr)
		if err != nil {
			t.Fatalf("dialed %q: %v", addr, err)
		}
		if port == schooner.ManagerPort || port == schooner.ServerPort {
			continue
		}
		bindings++
		if _, err := strconv.Atoi(port); err != nil || host != "cray2" {
			t.Errorf("binding address %q, want cray2:<port>", addr)
			continue
		}
		conn, err := net.DialTimeout("tcp", net.JoinHostPort("127.0.0.2", port), time.Second)
		if err != nil {
			t.Errorf("binding %s not listening on 127.0.0.2: %v", addr, err)
			continue
		}
		conn.Close()
	}
	if bindings != 2 {
		t.Errorf("dialed %d bindings (%v), want 2", bindings, rec.addrs)
	}
}

// TestFailoverOntoIdleConfiguredHost runs the health monitor over the
// daemons' transport: when host a's Server stops, its process restarts
// on b, which is configured but runs nothing, and the client's next
// call finds it there.
func TestFailoverOntoIdleConfiguredHost(t *testing.T) {
	d := deploy(t, "a=sparc@"+freePort(t)+",b=sparc@"+freePort(t))
	c := d.client()
	c.Policy = schooner.CallPolicy{
		Timeout:    200 * time.Millisecond,
		MaxRetries: 30,
		Backoff:    5 * time.Millisecond,
		MaxBackoff: 100 * time.Millisecond,
	}
	ln, err := c.ContactSchx("failover")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/echo", "a"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(echoImport))
	if _, err := ln.Call("echo", uts.DoubleVal(1)); err != nil {
		t.Fatal(err)
	}

	d.mgr.StartHealth(schooner.HealthPolicy{Interval: 20 * time.Millisecond, Threshold: 2, PingTimeout: 200 * time.Millisecond})
	d.servers["a"].Stop()
	out, err := ln.Call("echo", uts.DoubleVal(42))
	if err != nil {
		t.Fatalf("call did not recover through failover: %v", err)
	}
	if out[0].F != 42 {
		t.Errorf("echo after failover = %g", out[0].F)
	}
	if host := d.mgr.NameBindings(ln.ID())["echo"]; host != "b" {
		t.Errorf("echo served by %q after failover, want b", host)
	}
	if n := d.servers["b"].ProcessCount(); n != 1 {
		t.Errorf("b runs %d processes, want 1", n)
	}
}
