package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"npss/internal/core"
	"npss/internal/engine"
	"npss/internal/flight"
	"npss/internal/machine"
	"npss/internal/netsim"
	"npss/internal/npssproc"
	"npss/internal/schooner"
	"npss/internal/solver"
	"npss/internal/trace"
	"npss/internal/tseries"
	"npss/internal/uts"
	"npss/internal/vclock"
	"npss/internal/wal"
	"npss/internal/wire"
)

// The ladder: direct calls into each layer's exported functions, on
// exactly the argument shapes the workloads use. Every rung is timed
// as the median of several fixed-size batches, so a rung costs the
// same wall time on every run and one slow batch does not move it.

const rungBatches = 5

// perOp times fn in rungBatches batches of n and returns the median
// nanoseconds per call.
func perOp(n int, fn func()) float64 {
	for i := 0; i <= n/10; i++ { // warm caches and pools, untimed
		fn()
	}
	batches := make([]float64, rungBatches)
	for b := range batches {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		batches[b] = float64(time.Since(t0)) / float64(n)
	}
	return median(batches)
}

// allocsPerOp reports heap allocations and bytes per call of fn, over
// the whole process (a Schooner call allocates on both sides).
func allocsPerOp(n int, fn func()) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// ladder collects rung values; the first failing rung aborts it.
type ladder struct {
	v   map[string]float64
	err error
}

func (l *ladder) check(err error) bool {
	if err != nil && l.err == nil {
		l.err = err
	}
	return l.err == nil
}

const shaftImport = `import shaft prog(
	"ecom" val array[4] of double, "incom" val integer,
	"etur" val array[4] of double, "intur" val integer,
	"ecorr" val double, "xspool" val double, "xmyi" val double,
	"dxspl" res double)`

const echoSpec = `prog("x" val double, "y" res double)`

// runLadder climbs every workload-independent rung.
func runLadder(seed int64) (map[string]float64, error) {
	l := &ladder{v: make(map[string]float64)}
	l.machineRungs(seed)
	l.utsRungs(seed)
	l.wireRungs()
	l.netsimRungs()
	l.callRungs()
	l.managerRungs()
	l.walRungs()
	l.executiveRungs()
	l.engineRungs()
	return l.v, l.err
}

func (l *ladder) machineRungs(seed int64) {
	one := uts.DoubleVal(3.14159265358979)
	arr := uts.DoubleArray(bulkPayloads(seed, 1)[0]...)
	for _, f := range []struct {
		name string
		arch *machine.Arch
		bulk bool
	}{
		{"ieee", machine.SPARC, false}, {"cray", machine.CrayYMP, true},
		{"vaxd", machine.Convex, true}, {"ibmhex", machine.IBM370, false},
	} {
		l.v["machine.roundtrip_ns."+f.name] = perOp(200000, func() {
			_, err := f.arch.NativeRoundTrip(one)
			l.check(err)
		})
		if f.bulk {
			l.v["machine.bulk_ns_per_elem."+f.name] = perOp(50, func() {
				if _, err := f.arch.NativeRoundTrip(arr); err != nil {
					l.v["machine.range_errors"]++
				}
			}) / bulkLen
		}
	}
}

func (l *ladder) utsRungs(seed int64) {
	shaft := uts.MustParseProc(shaftImport).InParams()
	args := newShaftArgs(rand.New(rand.NewSource(seed))).args
	var buf []byte
	l.v["uts.encode_shaft_ns"] = perOp(20000, func() {
		var err error
		buf, err = uts.EncodeParams(buf[:0], shaft, args)
		l.check(err)
	})
	l.v["uts.decode_shaft_ns"] = perOp(20000, func() {
		_, err := uts.DecodeParams(buf, shaft)
		l.check(err)
	})
	bulk := uts.MustParseProc("import echo " + bulkSpec).InParams()
	arr := []uts.Value{uts.DoubleArray(bulkPayloads(seed, 1)[0]...)}
	var big []byte
	l.v["uts.encode_bulk_ns_per_elem"] = perOp(50, func() {
		var err error
		big, err = uts.EncodeParams(big[:0], bulk, arr)
		l.check(err)
	}) / bulkLen
	decode := func() {
		_, err := uts.DecodeParams(big, bulk)
		l.check(err)
	}
	l.v["uts.decode_bulk_ns_per_elem"] = perOp(50, decode) / bulkLen
	l.v["uts.decode_bulk_allocs"], _ = allocsPerOp(20, decode)
	l.v["uts.parse_spec_us"] = perOp(2000, func() {
		_, err := uts.ParseProc(shaftImport)
		l.check(err)
	}) / 1e3
}

// callMessage is a KCall envelope as the client sends it.
func callMessage(data []byte) *wire.Message {
	return &wire.Message{Kind: wire.KCall, Seq: 7, Line: 3, Name: "shaft", Str: "(a4d,i,a4d,i,d,d,d)->(d)", Data: data}
}

func (l *ladder) wireRungs() {
	small := callMessage(make([]byte, 96)) // the shaft argument list encodes to ~96 B
	large := callMessage(make([]byte, bulkLen*8))
	for _, c := range []struct {
		m        *wire.Message
		enc, dec string
		n        int
		div      float64
	}{
		{small, "wire.encode_call_ns", "wire.decode_call_ns", 20000, 1},
		{large, "wire.encode_ns_per_KB", "wire.decode_ns_per_KB", 1000, bulkLen * 8 / 1024},
	} {
		var buf []byte
		l.v[c.enc] = perOp(c.n, func() {
			var err error
			buf, err = c.m.Encode(buf[:0])
			l.check(err)
		}) / c.div
		l.v[c.dec] = perOp(c.n, func() {
			_, err := wire.DecodeMessage(buf)
			l.check(err)
		}) / c.div
	}

	var env []byte
	for i := 0; i < 2; i++ {
		var err error
		if env, err = wire.AppendSub(env, "rs6000:p1", small); !l.check(err) {
			return
		}
	}
	l.v["wire.batch_split_ns"] = perOp(5000, func() {
		_, err := wire.SplitBatch(env)
		l.check(err)
	})

	// StreamConn over a loopback socket: frame, write, read, unframe,
	// and the same back.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if !l.check(err) {
		return
	}
	defer lis.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := lis.Accept()
		if err != nil {
			return
		}
		sc := wire.NewStreamConn(c, "client")
		defer sc.Close()
		for {
			m, err := sc.Recv()
			if err != nil || sc.Send(m) != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", lis.Addr().String())
	if l.check(err) {
		sc := wire.NewStreamConn(c, "server")
		l.v["wire.stream_roundtrip_ns"] = perOp(2000, func() {
			l.check(sc.Send(small))
			_, err := sc.Recv()
			l.check(err)
		})
		sc.Close()
	}
	wg.Wait()
}

// simPair opens one simulated connection between two fresh hosts.
func simPair(link netsim.LinkSpec, scale float64) (client, server wire.Conn, err error) {
	n := netsim.New()
	n.SetDefaultLink(link)
	n.SetTimeScale(scale)
	a, b := n.MustAddHost("a", machine.SPARC), n.MustAddHost("b", machine.SGI)
	lis, err := b.Listen("p")
	if err != nil {
		return nil, nil, err
	}
	defer lis.Close()
	if client, err = a.Dial("b:p"); err != nil {
		return nil, nil, err
	}
	server, err = lis.Accept()
	return client, server, err
}

func (l *ladder) netsimRungs() {
	client, server, err := simPair(zeroDelay, 0)
	if !l.check(err) {
		return
	}
	hop := func(m *wire.Message) func() {
		return func() {
			l.check(client.Send(m))
			_, err := server.Recv()
			l.check(err)
		}
	}
	l.v["netsim.hop_ns"] = perOp(5000, hop(callMessage(make([]byte, 96))))
	l.v["netsim.hop_ns_per_KB"] = (perOp(500, hop(callMessage(make([]byte, bulkLen*8)))) - l.v["netsim.hop_ns"]) / (bulkLen * 8 / 1024)
	client.Close()
	server.Close()

	// Calibration of the substrate: how much longer than its nominal
	// 1 ms a really-slept hop takes.
	const nominal = time.Millisecond
	client, server, err = simPair(netsim.LinkSpec{Name: "1 ms", Latency: nominal}, 1)
	if !l.check(err) {
		return
	}
	l.v["netsim.sleep_overshoot_us"] = (perOp(8, hop(callMessage(nil))) - float64(nominal)) / 1e3
	client.Close()
	server.Close()
}

// rig is a minimal Schooner deployment for the call and Manager rungs:
// a workstation and two IEEE machines on zero-delay links.
type rig struct {
	sim    *schooner.SimTransport
	dep    *deployment
	client *schooner.Client
}

func newRig(programs ...*schooner.Program) (*rig, error) {
	n := netsim.New()
	n.SetDefaultLink(zeroDelay)
	for _, h := range []string{"ws", "m1", "m2"} {
		n.MustAddHost(h, machine.SGI)
	}
	sim := schooner.NewSimTransport(n)
	dep, err := deploy(sim, schooner.ManagerConfig{}, "ws", churnMachines, nil, programs...)
	if err != nil {
		return nil, err
	}
	client, _ := newClient(sim, "ws", nil)
	return &rig{sim: sim, dep: dep, client: client}, nil
}

// line opens a line with path started on host and its imports loaded.
func (r *rig) line(module, path, host string, imports ...string) (*schooner.Line, error) {
	ln, err := r.client.ContactSchx(module)
	if err != nil {
		return nil, err
	}
	r.dep.lines = append(r.dep.lines, ln)
	if err := ln.StartRemote(path, host); err != nil {
		return nil, err
	}
	for _, imp := range imports {
		if err := ln.Import(uts.MustParseProc(imp)); err != nil {
			return nil, err
		}
	}
	return ln, nil
}

func (r *rig) stop() {
	r.dep.stop()
	r.client.Close()
}

func (l *ladder) callRungs() {
	r, err := newRig(echoProgram("/bench/echo", echoSpec), npssproc.ShaftProgram())
	if !l.check(err) {
		return
	}
	defer r.stop()
	ln, err := r.line("ladder", "/bench/echo", "m1", "import echo "+echoSpec)
	if !l.check(err) {
		return
	}
	// The same call at the shape the executive's modules use: the real
	// shaft procedure behind its generated stub.
	shaft, err := r.line("ladder-shaft", npssproc.ShaftPath, "m2", shaftImport)
	if !l.check(err) {
		return
	}
	shaftArgs := newShaftArgs(rand.New(rand.NewSource(1))).args
	l.v["schooner.shaft_call_ns"] = perOp(4000, func() {
		_, err := shaft.Call("shaft", shaftArgs...)
		l.check(err)
	})
	arg := uts.DoubleVal(1.5)
	call := func() {
		_, err := ln.Call("echo", arg)
		l.check(err)
	}
	call()

	// Per-call samples for the tail, then the batch median.
	waits := make([]float64, 5000)
	for i := range waits {
		t0 := time.Now()
		call()
		waits[i] = float64(time.Since(t0)) / 1e3
	}
	sort.Float64s(waits)
	l.v["schooner.call_p99_us"] = quantile(waits, 0.99)
	off := perOp(4000, call)
	l.v["schooner.call_ns"] = off
	l.v["schooner.allocs_per_call"], l.v["schooner.alloc_B_per_call"] = allocsPerOp(2000, call)

	// What the rungs below it leave of a call: client library, process
	// dispatch and goroutine hand-offs. A call crosses the simulated
	// network twice, marshals one double each way on each side, and
	// converts it to native format four times.
	echo := uts.MustParseProc("import echo " + echoSpec).InParams()
	var buf []byte
	codec := perOp(20000, func() {
		buf, _ = uts.EncodeParams(buf[:0], echo, []uts.Value{arg})
		_, err := uts.DecodeParams(buf, echo)
		l.check(err)
	})
	l.v["schooner.call_self_ns"] = off - 2*l.v["netsim.hop_ns"] - 2*codec - 4*l.v["machine.roundtrip_ns.ieee"]

	// Two callers against one binding share its pipelined connection.
	rate := func(n int) float64 {
		const window = 150 * time.Millisecond
		m, err := closedLoop(window, n, func(_ int, m *measurement) error {
			_, err := ln.Go("echo", arg).Wait()
			m.Ops++
			return err
		})
		if !l.check(err) {
			return 1
		}
		return float64(m.Ops) / m.Elapsed.Seconds()
	}
	one := rate(1)
	l.v["schooner.inflight2_speedup"] = rate(2) / one

	// Observability planes, on minus off on the same rung. The flight
	// ring cannot be switched off; a call records two events into it
	// (the client's attempt and the process's dispatch).
	rec := trace.NewRecorder()
	trace.SetRecorder(rec)
	l.v["trace.on_overhead_ns"] = perOp(4000, call) - off
	trace.SetRecorder(nil)

	sampler := tseries.Start(tseries.Config{})
	tseries.SetActive(sampler)
	l.v["tseries.on_overhead_ns"] = perOp(4000, call) - off
	tseries.SetActive(nil)
	sampler.Stop()

	l.v["flight.on_overhead_ns"] = 2 * perOp(20000, func() {
		flight.Record(flight.Event{Kind: flight.KindCallAttempt, Component: "client", Host: "ws", Line: 1, Name: "echo", Detail: "m1:p"})
	})
}

func (l *ladder) managerRungs() {
	r, err := newRig(npssproc.DuctProgram())
	if !l.check(err) {
		return
	}
	defer r.stop()
	// Latency samples are few and slow, so each rung is a plain median.
	med := func(n int, fn func() time.Duration) float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(fn())
		}
		return median(out)
	}
	since := func(fn func()) time.Duration {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	setduct := func(ln *schooner.Line) {
		_, err := ln.Call("setduct", setductArgs...)
		l.check(err)
	}
	resident := func() *schooner.Line {
		ln, err := r.line("resident", npssproc.DuctPath, "m1")
		if l.check(err) {
			l.check(npssproc.RegisterImports(ln))
		}
		return ln
	}
	lookup := func(ln *schooner.Line) float64 {
		setduct(ln)
		return med(300, func() time.Duration {
			ln.FlushCache()
			return since(func() { setduct(ln) })
		}) / 1e3
	}
	first := resident()
	if l.err != nil {
		return
	}
	l.v["schooner.lookup_us.lines1"] = lookup(first)

	l.v["schooner.register_quit_us"] = med(200, func() time.Duration {
		return since(func() {
			ln, err := r.client.ContactSchx("churn")
			if l.check(err) {
				l.check(ln.IQuit())
			}
		})
	}) / 1e3
	l.v["schooner.start_remote_us"] = med(200, func() time.Duration {
		ln, err := r.client.ContactSchx("churn")
		if !l.check(err) {
			return 0
		}
		d := since(func() { l.check(ln.StartRemote(npssproc.DuctPath, "m2")) })
		l.check(ln.IQuit())
		return d
	}) / 1e3

	at := 0
	var recovers []float64
	l.v["schooner.move_rpc_ms"] = med(30, func() time.Duration {
		at = 1 - at
		d := since(func() { l.check(first.Move("setduct", churnMachines[at], false)) })
		// The first call after a move finds its cached binding stale.
		recovers = append(recovers, float64(since(func() { setduct(first) })))
		return d
	}) / 1e6
	l.v["schooner.stale_recover_ms"] = median(recovers) / 1e6

	for i := 1; i < residentLines && l.err == nil; i++ {
		first = resident()
	}
	if l.err == nil {
		l.v["schooner.lookup_us.lines128"] = lookup(first)
	}
}

func (l *ladder) walRungs() {
	payload := make([]byte, 160) // about one journaled line record
	appendTo := func(b wal.Backend) float64 {
		log, err := wal.Open(b, wal.Options{})
		if !l.check(err) {
			return 0
		}
		defer log.Close()
		return perOp(2000, func() {
			_, err := log.Append(payload)
			l.check(err)
		}) / 1e3
	}
	l.v["wal.append_us.mem"] = appendTo(wal.NewMemBackend())
	if !l.check(os.MkdirAll(outDir, 0o755)) {
		return
	}
	dir, err := os.MkdirTemp(outDir, "wal-rung-")
	if !l.check(err) {
		return
	}
	defer os.RemoveAll(dir)
	fb, err := wal.NewFileBackend(dir)
	if l.check(err) {
		l.v["wal.append_us.file"] = appendTo(fb)
	}
}

func (l *ladder) executiveRungs() {
	l.v["core.build_f100_us"] = perOp(20, func() {
		exec := core.NewExecutive(nil, nil)
		l.check(exec.BuildF100())
		exec.Destroy()
	}) / 1e3

	// One pass of the all-local F100 network with every module dirty,
	// on the sequential scheduler and on the wavefront.
	exec := core.NewExecutive(nil, nil)
	if !l.check(exec.BuildF100()) {
		return
	}
	defer exec.Destroy()
	nodes := exec.Network.Nodes()
	pass := func(workers int) float64 {
		return perOp(200, func() {
			for _, n := range nodes {
				l.check(exec.Network.MarkDirty(n.Name))
			}
			ran, err := exec.Network.ExecuteParallel(workers)
			if l.check(err) && ran != len(nodes) {
				l.check(fmt.Errorf("dataflow pass ran %d of %d modules", ran, len(nodes)))
			}
		}) / 1e3
	}
	l.v["dataflow.execute_us"] = pass(1)
	l.v["dataflow.execute_parallel_us"] = pass(8)
	l.v["dataflow.wavefront_overhead_us"] = l.v["dataflow.execute_parallel_us"] - l.v["dataflow.execute_us"]
}

func (l *ladder) engineRungs() {
	e, err := engine.NewF100(engine.DefaultF100())
	if !l.check(err) {
		return
	}
	x := append([]float64(nil), e.DesignState...)
	dx := make([]float64, engine.NumStates)
	l.v["engine.eval_us"] = perOp(2000, func() {
		_, err := e.Eval(0, x, dx)
		l.check(err)
	}) / 1e3
	integ, err := solver.New(solver.ModifiedEuler)
	if !l.check(err) {
		return
	}
	sys := e.System()
	l.v["engine.transient_step_us"] = perOp(1000, func() {
		l.check(integ.Step(sys, 0, x, 5e-4))
	}) / 1e3
	e.Fuel = engine.Constant(0.95 * e.DesignFuel)
	l.v["engine.balance_ms"] = perOp(10, func() {
		x := append([]float64(nil), e.DesignState...)
		_, _, err := e.Balance(x, engine.SteadyOptions{})
		l.check(err)
	}) / 1e6
}

// vclockRung is the cost of one quiescence decision: one goroutine
// sleeping on a virtual clock, so every sleep is one timer fire.
func vclockRung() float64 {
	v := vclock.NewVirtual()
	defer v.Stop()
	return perOp(200, func() { v.Sleep(time.Millisecond) }) / 1e3
}

// localRunRung is the compute floor of a table2 run: the same spec
// with nothing remote.
func localRunRung(spec table2Spec) (float64, error) {
	runs := make([]float64, 3)
	for i := range runs {
		_, d, err := spec.runLocal()
		if err != nil {
			return 0, fmt.Errorf("local run: %w", err)
		}
		runs[i] = d.Seconds()
	}
	return median(runs), nil
}
