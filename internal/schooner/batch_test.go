package schooner

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"npss/internal/machine"
	"npss/internal/netsim"
	"npss/internal/trace"
	"npss/internal/uts"
	"npss/internal/wire"
)

// TestGoBatchSameProcess coalesces a wavefront of calls to one
// procedure process into a single wire round trip through its
// machine's Server and checks every result.
func TestGoBatchSameProcess(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	c := d.client("avs-sparc")
	defer c.Close()
	ln, err := c.ContactSchx("batcher")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	ln.Import(uts.MustParseProc(`import scale prog("xs" var array[3] of double, "k" val double)`))

	// Warm the binding so the batch itself is a single round trip.
	if _, err := ln.Call("add", uts.DoubleVal(1), uts.DoubleVal(2)); err != nil {
		t.Fatal(err)
	}

	batchesBefore := trace.Get("schooner.client.host_batches")
	servedBefore := trace.Get("schooner.server.batches")
	rpcsBefore := trace.Get("schooner.client.rpcs")

	const n = 8
	calls := make([]CrossCall, n)
	for i := range calls {
		calls[i] = CrossCall{Line: ln, Name: "add", Args: []uts.Value{uts.DoubleVal(float64(i)), uts.DoubleVal(100)}}
	}
	pends := c.CallBatch(calls)
	for i, p := range pends {
		out, err := p.Wait()
		if err != nil {
			t.Fatalf("batch call %d: %v", i, err)
		}
		if want := float64(i) + 100; out[0].F != want {
			t.Errorf("batch call %d = %g, want %g", i, out[0].F, want)
		}
	}
	if got := trace.Get("schooner.client.host_batches") - batchesBefore; got != 1 {
		t.Errorf("host_batches counter advanced by %d, want 1", got)
	}
	if got := trace.Get("schooner.server.batches") - servedBefore; got != 1 {
		t.Errorf("server.batches counter advanced by %d, want 1", got)
	}
	if got := trace.Get("schooner.client.rpcs") - rpcsBefore; got != 1 {
		t.Errorf("%d wire round trips for a coalesced batch of %d, want 1", got, n)
	}

	// Mixed procedures in the same process still coalesce.
	mixed := c.CallBatch([]CrossCall{
		{Line: ln, Name: "add", Args: []uts.Value{uts.DoubleVal(2), uts.DoubleVal(3)}},
		{Line: ln, Name: "scale", Args: []uts.Value{uts.DoubleArray(1, 2, 3), uts.DoubleVal(2)}},
	})
	out0, err := mixed[0].Wait()
	if err != nil || out0[0].F != 5 {
		t.Fatalf("mixed add = %v, %v", out0, err)
	}
	out1, err := mixed[1].Wait()
	if err != nil {
		t.Fatalf("mixed scale: %v", err)
	}
	if xs, _ := out1[0].Floats(); xs[1] != 4 {
		t.Errorf("mixed scale = %v, want [2 4 6]", xs)
	}
}

// waitOK waits for every pending and fails the test on any error.
func waitOK(t *testing.T, pends []*Pending) {
	t.Helper()
	for i, p := range pends {
		if _, err := p.Wait(); err != nil {
			t.Fatalf("batch member %d: %v", i, err)
		}
	}
}

// TestGoBatchUnknownProcedure checks a bad member fails alone without
// sinking the rest of the batch.
func TestGoBatchUnknownProcedure(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	c := d.client("avs-sparc")
	defer c.Close()
	ln, err := c.ContactSchx("batcher")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))

	pends := c.CallBatch([]CrossCall{
		{Line: ln, Name: "add", Args: []uts.Value{uts.DoubleVal(1), uts.DoubleVal(1)}},
		{Line: ln, Name: "nosuch", Args: nil},
		{Line: ln, Name: "add", Args: []uts.Value{uts.DoubleVal(2), uts.DoubleVal(2)}},
	})
	if out, err := pends[0].Wait(); err != nil || out[0].F != 2 {
		t.Errorf("member 0 = %v, %v", out, err)
	}
	if _, err := pends[1].Wait(); err == nil {
		t.Error("unknown procedure succeeded")
	}
	if out, err := pends[2].Wait(); err != nil || out[0].F != 4 {
		t.Errorf("member 2 = %v, %v", out, err)
	}
}

// TestCallBatchAcrossProcesses places two programs in separate
// processes on one machine and checks a cross-line batch reaches both
// through the machine's Server in one round trip.
func TestCallBatchAcrossProcesses(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	d.reg.MustRegister(shaftProgram("/npss/shaft"))
	c := d.client("avs-sparc")

	lnA, err := c.ContactSchx("modA")
	if err != nil {
		t.Fatal(err)
	}
	defer lnA.IQuit()
	if err := lnA.StartRemote("/npss/adder", "rs6000"); err != nil {
		t.Fatal(err)
	}
	lnA.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))

	lnB, err := c.ContactSchx("modB")
	if err != nil {
		t.Fatal(err)
	}
	defer lnB.IQuit()
	if err := lnB.StartRemote("/npss/shaft", "rs6000"); err != nil {
		t.Fatal(err)
	}
	lnB.Import(uts.MustParseProc(`import shaft prog(
		"ecom" val array[4] of double, "incom" val integer,
		"etur" val array[4] of double, "intur" val integer,
		"ecorr" val double, "xspool" val double, "xmyi" val double,
		"dxspl" res double)`))

	// Warm both bindings.
	if _, err := lnA.Call("add", uts.DoubleVal(1), uts.DoubleVal(1)); err != nil {
		t.Fatal(err)
	}
	shaftArgs := []uts.Value{
		uts.DoubleArray(1, 1, 1, 1), uts.MustInt(1),
		uts.DoubleArray(2, 2, 2, 2), uts.MustInt(1),
		uts.DoubleVal(1), uts.DoubleVal(2), uts.DoubleVal(3),
	}
	want, err := lnB.Call("shaft", shaftArgs...)
	if err != nil {
		t.Fatal(err)
	}

	hostBatchesBefore := trace.Get("schooner.client.host_batches")
	rpcsBefore := trace.Get("schooner.client.rpcs")
	pends := c.CallBatch([]CrossCall{
		{Line: lnA, Name: "add", Args: []uts.Value{uts.DoubleVal(3), uts.DoubleVal(4)}},
		{Line: lnB, Name: "shaft", Args: shaftArgs},
	})
	outA, err := pends[0].Wait()
	if err != nil || outA[0].F != 7 {
		t.Fatalf("cross-batch add = %v, %v", outA, err)
	}
	outB, err := pends[1].Wait()
	if err != nil {
		t.Fatalf("cross-batch shaft: %v", err)
	}
	if outB[0].F != want[0].F {
		t.Errorf("cross-batch shaft = %g, want %g (bit-identical)", outB[0].F, want[0].F)
	}
	if got := trace.Get("schooner.client.host_batches") - hostBatchesBefore; got != 1 {
		t.Errorf("host_batches advanced by %d, want 1", got)
	}
	if got := trace.Get("schooner.client.rpcs") - rpcsBefore; got != 1 {
		t.Errorf("%d wire round trips for a host batch of 2, want 1", got)
	}
}

// TestGoBatchFallbackAfterMove invalidates the cached binding under a
// batch by moving the procedure first: the envelope reaches the old
// machine's Server, which answers each sub-call as a stopped process
// would, and every member must recover through the per-call retry
// machinery. It does so twice: while the Server still holds the
// stopped process, and after a later spawn has made it forget it.
func TestGoBatchFallbackAfterMove(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	d.reg.MustRegister(counterProgram("/npss/counter"))
	c := d.client("avs-sparc")
	defer c.Close()
	ln, err := c.ContactSchx("batcher")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	batch := func(when string) {
		t.Helper()
		staleBefore := trace.Get("schooner.client.stale")
		pends := c.CallBatch([]CrossCall{
			{Line: ln, Name: "add", Args: []uts.Value{uts.DoubleVal(1), uts.DoubleVal(2)}},
			{Line: ln, Name: "add", Args: []uts.Value{uts.DoubleVal(3), uts.DoubleVal(4)}},
		})
		for i, p := range pends {
			out, err := p.Wait()
			if err != nil {
				t.Fatalf("batch member %d %s: %v", i, when, err)
			}
			if want := []float64{3, 7}[i]; out[0].F != want {
				t.Errorf("batch member %d %s = %g, want %g", i, when, out[0].F, want)
			}
		}
		if got := trace.Get("schooner.client.stale") - staleBefore; got != 2 {
			t.Errorf("%s: %d stale sub-replies, want 2", when, got)
		}
	}
	if _, err := ln.Call("add", uts.DoubleVal(1), uts.DoubleVal(1)); err != nil {
		t.Fatal(err)
	}
	// The cached binding now points at sgi-lerc; move out from under it.
	if err := ln.Move("add", "rs6000", false); err != nil {
		t.Fatal(err)
	}
	batch("after move")

	// Back to sgi-lerc, bind there, move away again, and start another
	// program on sgi-lerc: that spawn drops the stopped adder from the
	// Server's table, so the envelope's tag now names no process at all.
	if err := ln.Move("add", "sgi-lerc", false); err != nil {
		t.Fatal(err)
	}
	if _, err := ln.Call("add", uts.DoubleVal(1), uts.DoubleVal(1)); err != nil {
		t.Fatal(err)
	}
	if err := ln.Move("add", "rs6000", false); err != nil {
		t.Fatal(err)
	}
	if err := ln.StartRemote("/npss/counter", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	batch("after the Server forgot the process")
}

// TestGoBatchAfterServerStop stops the Server a warm host batch went
// to. The Manager's health monitor fails the procedure over to another
// machine, and the same batch must then recover: the client's
// connection to the stopped Server still reaches it, and its answer
// for a process it no longer hosts is the stale one that rebinds.
func TestGoBatchAfterServerStop(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	c := d.clientWith("avs-sparc", CallPolicy{
		Timeout:    100 * time.Millisecond,
		MaxRetries: 30,
		Backoff:    2 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
	})
	defer c.Close()
	ln, err := c.ContactSchx("batcher")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	calls := []CrossCall{
		{Line: ln, Name: "add", Args: []uts.Value{uts.DoubleVal(1), uts.DoubleVal(2)}},
		{Line: ln, Name: "add", Args: []uts.Value{uts.DoubleVal(3), uts.DoubleVal(4)}},
	}
	hostBatchesBefore := trace.Get("schooner.client.host_batches")
	waitOK(t, c.CallBatch(calls))
	if trace.Get("schooner.client.host_batches") == hostBatchesBefore {
		t.Fatal("warm-up batch did not go to the Server")
	}

	d.mgr.StartHealth(HealthPolicy{
		Interval:    5 * time.Millisecond,
		Threshold:   2,
		PingTimeout: 50 * time.Millisecond,
	})
	d.servers["sgi-lerc"].Stop()
	deadline := time.Now().Add(5 * time.Second)
	for d.mgr.NameBindings(ln.ID())["add"] == "sgi-lerc" {
		if time.Now().After(deadline) {
			t.Fatal("add was not failed over off the stopped Server's machine")
		}
		time.Sleep(2 * time.Millisecond)
	}

	for i, p := range c.CallBatch(calls) {
		out, err := p.Wait()
		if err != nil {
			t.Fatalf("batch member %d after the Server stopped: %v", i, err)
		}
		if want := []float64{3, 7}[i]; out[0].F != want {
			t.Errorf("batch member %d = %g, want %g", i, out[0].F, want)
		}
	}
}

// TestPipelinedConcurrentCalls hammers one procedure from many
// goroutines: they all share the binding's one connection.
func TestPipelinedConcurrentCalls(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	ln, err := d.client("avs-sparc").ContactSchx("pipeline")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))

	const goroutines = 16
	const iters = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				a, b := float64(g), float64(i)
				out, err := ln.Call("add", uts.DoubleVal(a), uts.DoubleVal(b))
				if err != nil {
					t.Errorf("goroutine %d call %d: %v", g, i, err)
					return
				}
				if out[0].F != a+b {
					t.Errorf("goroutine %d call %d = %g, want %g", g, i, out[0].F, a+b)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	ln.mu.Lock()
	b := ln.bindings["add"]
	ln.mu.Unlock()
	if b == nil {
		t.Fatal("no binding cached after calls")
	}
	b.mu.Lock()
	pipe := b.conn
	b.mu.Unlock()
	if pipe == nil {
		t.Error("pipelined binding has no shared connection")
	}
}

// TestPipelinedOutOfOrderReplies drives the demultiplexed connection
// against a hand-rolled peer that reads a window of requests and
// answers them in reverse order: each waiter must still receive
// exactly the reply bearing its sequence number.
func TestPipelinedOutOfOrderReplies(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	lis, err := d.tr.Listen("sgi-lerc", "")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	const window = 4
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			reqs := make([]*wire.Message, 0, window)
			for len(reqs) < window {
				m, err := conn.Recv()
				if err != nil {
					return
				}
				reqs = append(reqs, m)
			}
			for i := len(reqs) - 1; i >= 0; i-- {
				// Echo the request payload back under its own seq.
				if err := conn.Send(&wire.Message{Kind: wire.KOK, Seq: reqs[i].Seq, Data: reqs[i].Data}); err != nil {
					return
				}
			}
		}
	}()

	raw, err := d.tr.Dial("avs-sparc", lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	g := newDemuxConn(raw, d.tr.Clock())
	defer g.Close()

	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		results := make([][]byte, window)
		errs := make([]error, window)
		for i := 0; i < window; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				req := &wire.Message{Kind: wire.KCall, Seq: uint32(round*window + i + 1), Data: []byte{byte(i)}}
				resp, err := g.exchange(req, 0)
				if err != nil {
					errs[i] = err
					return
				}
				results[i] = resp.Data
			}(i)
		}
		wg.Wait()
		for i := 0; i < window; i++ {
			if errs[i] != nil {
				t.Fatalf("round %d waiter %d: %v", round, i, errs[i])
			}
			if len(results[i]) != 1 || results[i][0] != byte(i) {
				t.Errorf("round %d waiter %d got payload %v, want [%d]", round, i, results[i], i)
			}
		}
	}
}

// batchFaultHosts are the machines of TestVirtualBatchUnderFaults: the
// client and Manager on avs-sparc, one envelope's two processes on
// sgi-lerc, the other's on rs6000 and a lone member's on convex, each
// worker behind a link of its own delay.
var batchFaultHosts = []struct {
	name    string
	arch    *machine.Arch
	latency time.Duration
}{
	{"avs-sparc", machine.SPARC, 0},
	{"sgi-lerc", machine.SGI, 10 * time.Millisecond},
	{"rs6000", machine.RS6000, 20 * time.Millisecond},
	{"convex", machine.Convex, 35 * time.Millisecond},
}

// batchFaultRun is one run of TestVirtualBatchUnderFaults: the virtual
// time its batch took, every member's answer and the counters it moved.
type batchFaultRun struct {
	took                        time.Duration
	got                         []float64
	hostBatches, stale, rebinds int64
}

// runBatchUnderFault stands up a fresh virtual deployment, starts the
// adder in one process per member (members 0 and 1 on sgi-lerc, 2 and
// 3 on rs6000, 4 on convex), binds each with a direct Call and checks
// its answer, applies fault, and runs the members picked as one
// CallBatch.
func runBatchUnderFault(t *testing.T, fault func(d *deployment, lines []*Line), pick ...int) batchFaultRun {
	t.Helper()
	hosts := make(map[string]*machine.Arch)
	for _, h := range batchFaultHosts {
		hosts[h.name] = h.arch
	}
	d, v := newVirtualDeployment(t, "avs-sparc", hosts)
	for _, h := range batchFaultHosts[1:] {
		d.net.SetLink("avs-sparc", h.name, netsim.LinkSpec{Name: h.name, Latency: h.latency})
	}
	d.reg.MustRegister(adderProgram("/npss/adder"))
	cl := d.clientWith("avs-sparc", CallPolicy{
		Timeout: 100 * time.Millisecond, MaxRetries: 30,
		Backoff: 2 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
	})
	t.Cleanup(cl.Close)
	var lines []*Line
	var calls []CrossCall
	for i, host := range []string{"sgi-lerc", "sgi-lerc", "rs6000", "rs6000", "convex"} {
		ln, err := cl.ContactSchx(fmt.Sprintf("member%d", i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.IQuit() })
		if err := ln.StartRemote("/npss/adder", host); err != nil {
			t.Fatal(err)
		}
		ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
		args := []uts.Value{uts.DoubleVal(float64(i)), uts.DoubleVal(10)}
		if out, err := ln.Call("add", args...); err != nil || out[0].F != float64(i)+10 {
			t.Fatalf("direct call of member %d = %v, %v", i, out, err)
		}
		lines = append(lines, ln)
		calls = append(calls, CrossCall{Line: ln, Name: "add", Args: args})
	}
	fault(d, lines)
	var picked []CrossCall
	for _, i := range pick {
		picked = append(picked, calls[i])
	}
	hostBatches0 := trace.Get("schooner.client.host_batches")
	stale0, rebinds0 := trace.Get("schooner.client.stale"), trace.Get("schooner.client.rebinds")
	var r batchFaultRun
	start := v.Now()
	for i, p := range cl.CallBatch(picked) {
		out, err := p.Wait()
		if err != nil {
			t.Fatalf("member %d: %v", pick[i], err)
		}
		r.got = append(r.got, out[0].F)
	}
	r.took = v.Since(start)
	r.hostBatches = trace.Get("schooner.client.host_batches") - hostBatches0
	r.stale = trace.Get("schooner.client.stale") - stale0
	r.rebinds = trace.Get("schooner.client.rebinds") - rebinds0
	return r
}

// TestVirtualBatchUnderFaults drives a CallBatch of two envelopes (two
// processes on each of two machines) beside a lone member on a third
// machine: clean, with the lone member's process moved before the
// batch (its call is answered stale and rebinds, as Line.Go), and with
// one envelope's machine down under the Manager's health monitor (the
// envelope cannot be sent, and its members run as Line.Go, answered
// stale and rebinding until the monitor has failed their processes
// over).
// Every member must answer as its direct Call did, the counters move
// by exactly the envelopes answered and the stale replies and rebinds
// taken, and the batch takes as long as its slowest path, each path
// run alone on a deployment of its own under the same fault, not the
// sum of them.
func TestVirtualBatchUnderFaults(t *testing.T) {
	all := []int{0, 1, 2, 3, 4}
	paths := [][]int{{0, 1}, {2, 3}, {4}}
	for _, tc := range []struct {
		name                        string
		fault                       func(d *deployment, lines []*Line)
		hostBatches, stale, rebinds int64
	}{
		{"clean", func(*deployment, []*Line) {}, 2, 0, 0},
		{"lone member moved", func(d *deployment, lines []*Line) {
			if err := lines[4].Move("add", "sgi-lerc", false); err != nil {
				t.Fatal(err)
			}
		}, 2, 1, 1},
		{"envelope machine down", func(d *deployment, lines []*Line) {
			d.mgr.StartHealth(HealthPolicy{Interval: 10 * time.Millisecond, Threshold: 2})
			d.net.SetHostDown("rs6000", true)
		}, 1, 18, 18},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := runBatchUnderFault(t, tc.fault, all...)
			for i, got := range r.got {
				if want := float64(i) + 10; got != want {
					t.Errorf("member %d = %g, want its direct answer %g", i, got, want)
				}
			}
			if r.hostBatches != tc.hostBatches || r.stale != tc.stale || r.rebinds != tc.rebinds {
				t.Errorf("host_batches %d, stale %d, rebinds %d; want %d, %d, %d",
					r.hostBatches, r.stale, r.rebinds, tc.hostBatches, tc.stale, tc.rebinds)
			}
			var slowest, sum time.Duration
			for _, p := range paths {
				took := runBatchUnderFault(t, tc.fault, p...).took
				slowest = max(slowest, took)
				sum += took
			}
			if r.took != slowest {
				t.Errorf("batch took %v, want its slowest path %v (the sum of the paths is %v)", r.took, slowest, sum)
			}
		})
	}
}
