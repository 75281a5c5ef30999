package schooner

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"npss/internal/uts"
	"npss/internal/vclock"
	"npss/internal/wire"
)

// settleConns polls the simulated network until the open-endpoint
// count stops changing and returns the settled value. Server-side
// endpoints close asynchronously (their serve goroutines notice the
// peer's close on the next receive), so an instantaneous reading right
// after teardown can still see them.
func settleConns(t *testing.T, d *deployment, want int, timeout time.Duration) int {
	t.Helper()
	deadline := time.Now().Add(timeout)
	n := d.net.OpenConns()
	for n != want && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		n = d.net.OpenConns()
	}
	return n
}

// TestNoConnLeakAfterQuit churns a line with 64-way concurrent call
// traffic — pipelined calls, host batches and batches of one — then
// quits the line and closes the client, and proves via the netsim
// endpoint accounting that every connection the churn opened is closed
// again: the pipelined conn, the batch server conns, and the manager
// conn.
func TestNoConnLeakAfterQuit(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))

	// Baseline: whatever standing infrastructure connections the
	// Manager and Servers keep among themselves.
	base := settleConns(t, d, 0, 500*time.Millisecond)

	c := &Client{Transport: d.tr, Host: "avs-sparc", ManagerHost: d.mgrHost}
	ln, err := c.ContactSchx("churn")
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))

	const goroutines = 64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				var err error
				switch {
				case g%8 == 0:
					// A slice of the churn goes through host batches so
					// the client's shared server conns participate too.
					pends := c.CallBatch([]CrossCall{
						{Line: ln, Name: "add", Args: []uts.Value{uts.DoubleVal(1), uts.DoubleVal(2)}},
						{Line: ln, Name: "add", Args: []uts.Value{uts.DoubleVal(3), uts.DoubleVal(4)}},
					})
					for _, p := range pends {
						if _, werr := p.Wait(); werr != nil {
							err = werr
						}
					}
				case g%8 == 1:
					// A batch of one goes per-call, so batches share the
					// line's pipelined connection too.
					pends := c.CallBatch([]CrossCall{
						{Line: ln, Name: "add", Args: []uts.Value{uts.DoubleVal(1), uts.DoubleVal(2)}},
					})
					_, err = pends[0].Wait()
				default:
					_, err = ln.Call("add", uts.DoubleVal(float64(g)), uts.DoubleVal(float64(i)))
				}
				if err != nil {
					t.Errorf("churn goroutine %d iter %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if err := ln.IQuit(); err != nil {
		t.Fatalf("IQuit: %v", err)
	}
	c.Close()

	if got := settleConns(t, d, base, 2*time.Second); got != base {
		t.Errorf("%d connection endpoints still open after quit (baseline %d)", got, base)
	}
}

// TestBoundedAskStartsNoGoroutine: a bounded one-shot exchange
// receives on the caller's goroutine, under the connection's read
// deadline. A mute peer takes the request and, while the exchange
// waits, counts the goroutines: no more than before the exchange began.
func TestBoundedAskStartsNoGoroutine(t *testing.T) {
	a, b := net.Pipe()
	during := make(chan int, 1)
	go func() {
		peer := wire.NewStreamConn(b, "asker")
		defer peer.Close()
		peer.Recv() // the request, never answered
		time.Sleep(50 * time.Millisecond)
		during <- runtime.NumGoroutine()
		peer.Recv() // returns once the asker hangs up
	}()
	before := runtime.NumGoroutine()
	g := newDemuxConn(wire.NewStreamConn(a, "mute"), vclock.Real())
	defer g.Close()
	_, err := g.exchange(&wire.Message{Kind: wire.KPing}, 200*time.Millisecond)
	if !errors.As(err, new(*timeoutError)) {
		t.Fatalf("exchange with a mute peer returned %v, want a timeout", err)
	}
	if n := <-during; n > before {
		t.Errorf("%d goroutines while the exchange waited, %d before it", n, before)
	}
}

// TestServerForgetsStoppedProcesses runs 50 start/quit cycles against
// one machine. A quit stops its processes without telling their Server,
// so the Server drops stopped entries when it next spawns: right after
// every start, and after one more start at the end, its table holds no
// more entries than processes still running.
func TestServerForgetsStoppedProcesses(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	srv := d.servers["sgi-lerc"]
	table := func() (entries, live int) {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for _, p := range srv.processes {
			if !p.stopped() {
				live++
			}
		}
		return len(srv.processes), live
	}
	c := d.client("avs-sparc")
	start := func(module string) *Line {
		t.Helper()
		ln, err := c.ContactSchx(module)
		if err != nil {
			t.Fatal(err)
		}
		if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
			t.Fatal(err)
		}
		if entries, live := table(); entries > live {
			t.Fatalf("%s: the Server's table holds %d entries for %d live processes", module, entries, live)
		}
		return ln
	}
	for i := range 50 {
		if err := start(fmt.Sprintf("cycle-%d", i)).IQuit(); err != nil {
			t.Fatal(err)
		}
	}
	ln := start("last")
	defer ln.IQuit()
	if entries, live := table(); entries != 1 || live != 1 {
		t.Errorf("after 50 cycles and a start: %d entries, %d live, want 1 and 1", entries, live)
	}
}

// TestStopClosesServedConnections: a stopped Manager or Server closes
// every connection it serves, and a Server those of the processes it
// spawned: a raw connection to each, answered once before the stop,
// sees its next receive fail with nothing sent instead of waiting on a
// component that is gone.
func TestStopClosesServedConnections(t *testing.T) {
	d, v := newVirtualDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	ask := func(addr string, req *wire.Message) (wire.Conn, *wire.Message) {
		t.Helper()
		conn, err := d.tr.Dial("avs-sparc", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if err := conn.Send(req); err != nil {
			t.Fatal(err)
		}
		resp, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return conn, resp
	}
	closed := func(name string, conn wire.Conn) {
		t.Helper()
		conn.SetReadDeadline(v.Now().Add(time.Second))
		if m, err := conn.Recv(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s connection after the stop: Recv = %v, %v; want it closed", name, m, err)
		}
	}
	srv := d.servers["sgi-lerc"]
	srvConn, spawned := ask(srv.Addr(), &wire.Message{Kind: wire.KSpawn, Name: "/npss/adder"})
	if spawned.Kind != wire.KOK {
		t.Fatalf("spawn answered %v: %s", spawned.Kind, spawned.Err)
	}
	procConn, _ := ask(spawned.Str, &wire.Message{Kind: wire.KPing})
	mgrConn, _ := ask(d.mgr.Addr(), &wire.Message{Kind: wire.KPing})
	srv.Stop()
	closed("Server", srvConn)
	closed("process", procConn)
	d.mgr.Stop()
	closed("Manager", mgrConn)
}
