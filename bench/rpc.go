package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"npss/internal/machine"
	"npss/internal/netsim"
	"npss/internal/npssproc"
	"npss/internal/schooner"
	"npss/internal/uts"
)

// deployment is a Manager, its Servers and the lines a workload opened,
// torn down together.
type deployment struct {
	mgr     *schooner.Manager
	servers []*schooner.Server
	lines   []*schooner.Line
}

func (d *deployment) stop() error {
	var first error
	for _, ln := range d.lines {
		if err := ln.IQuit(); err != nil && first == nil {
			first = err
		}
	}
	if d.mgr != nil {
		d.mgr.Stop()
	}
	for _, s := range d.servers {
		s.Stop()
	}
	return first
}

// deploy starts a Manager on mgrHost and a Server on every other host.
// With a tracer, every program is registered through tracedProgram.
func deploy(t schooner.Transport, mgrCfg schooner.ManagerConfig, mgrHost string, serverHosts []string, tr *tracer, programs ...*schooner.Program) (*deployment, error) {
	reg := schooner.NewRegistry()
	for _, p := range programs {
		if tr != nil {
			p = tracedProgram(p, tr)
		}
		if err := reg.Register(p); err != nil {
			return nil, err
		}
	}
	d := &deployment{}
	var err error
	if d.mgr, err = schooner.StartManagerConfig(t, mgrHost, mgrCfg); err != nil {
		return nil, err
	}
	for _, h := range serverHosts {
		srv, err := schooner.StartServer(t, h, reg)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.servers = append(d.servers, srv)
	}
	return d, nil
}

// newClient makes one caller's Schooner client. With a tracer the
// client dials through its own traced transport, so the caller's
// connections carry its tracing context.
func newClient(t schooner.Transport, host string, tr *tracer) (*schooner.Client, *traceCtx) {
	c := &schooner.Client{Transport: t, Host: host, ManagerHost: host}
	if tr == nil {
		return c, nil
	}
	var ctx *traceCtx
	c.Transport, ctx = newTracedTransport(t, tr)
	return c, ctx
}

// traced runs fn as a schooner.call span when the caller is traced.
func traced(ctx *traceCtx, fn func() error) error {
	if ctx == nil {
		return fn()
	}
	return ctx.call(fn)
}

// --- rpc-bulk ---

const (
	bulkLen  = 4096
	bulkPath = "/bench/echo-bulk"
	bulkSpec = `prog("x" val array[4096] of double, "y" res array[4096] of double)`
)

// zeroDelay is a link that costs no simulated time, so a call's wall
// time is all software.
var zeroDelay = netsim.LinkSpec{Name: "zero delay"}

func echoProgram(path, spec string) *schooner.Program {
	return &schooner.Program{
		Path: path, Language: schooner.LangC,
		Build: func() (*schooner.Instance, error) {
			return schooner.NewInstance(&schooner.BoundProc{
				Spec: uts.MustParseProc("export echo " + spec),
				Fn:   func(in []uts.Value) ([]uts.Value, error) { return in, nil },
			})
		},
	}
}

// bulkPayloads draws the seeded arrays rpc-bulk sends. Magnitudes stay
// within 2^±100, inside the range of every native format involved
// (VAX D is the narrowest at about 2^±127), so no conversion may fail.
func bulkPayloads(seed int64, n int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, bulkLen)
		for j := range out[i] {
			v := math.Ldexp(1+rng.Float64(), rng.Intn(201)-100)
			if rng.Intn(2) == 0 {
				v = -v
			}
			out[i][j] = v
		}
	}
	return out
}

// bulkCaller is one closed-loop caller of rpc-bulk: its own line to one
// machine.
type bulkCaller struct {
	line *schooner.Line
	ctx  *traceCtx
	// tol is the relative error the host's native double may add: the
	// Cray word keeps 48 mantissa bits, VAX D more than IEEE's 53.
	tol  float64
	next int
}

type bulk struct {
	dep      *deployment
	callers  []*bulkCaller
	payloads [][]float64
	args     []uts.Value
}

func setupBulk(seed int64, tr *tracer) (instance, error) {
	net := netsim.New()
	net.SetDefaultLink(zeroDelay)
	hosts := []struct {
		name string
		arch *machine.Arch
		tol  float64
	}{
		{"ws", machine.SPARC, 0},
		{"cray", machine.CrayYMP, math.Ldexp(1, -47)},
		{"convex", machine.Convex, math.Ldexp(1, -52)},
	}
	for _, h := range hosts {
		if _, err := net.AddHost(h.name, h.arch); err != nil {
			return nil, err
		}
	}
	sim := schooner.NewSimTransport(net)
	dep, err := deploy(sim, schooner.ManagerConfig{}, "ws", []string{"cray", "convex"}, tr, echoProgram(bulkPath, bulkSpec))
	if err != nil {
		return nil, err
	}
	b := &bulk{dep: dep, payloads: bulkPayloads(seed, 4)}
	for _, p := range b.payloads {
		b.args = append(b.args, uts.DoubleArray(p...))
	}
	for _, h := range hosts[1:] {
		client, ctx := newClient(sim, "ws", tr)
		ln, err := client.ContactSchx("bulk-" + h.name)
		if err != nil {
			b.close()
			return nil, err
		}
		dep.lines = append(dep.lines, ln)
		if err := ln.StartRemote(bulkPath, h.name); err != nil {
			b.close()
			return nil, err
		}
		if err := ln.Import(uts.MustParseProc("import echo " + bulkSpec)); err != nil {
			b.close()
			return nil, err
		}
		c := &bulkCaller{line: ln, ctx: ctx, tol: h.tol}
		b.callers = append(b.callers, c)
		if ok, err := b.call(c); err != nil || !ok {
			b.close()
			return nil, fmt.Errorf("warm-up call to %s: ok=%v err=%v", h.name, ok, err)
		}
	}
	return b, nil
}

// call echoes the caller's next payload and reports whether the echo
// equals the input to the host format's precision.
func (b *bulk) call(c *bulkCaller) (bool, error) {
	i := c.next % len(b.args)
	c.next++
	var out []uts.Value
	err := traced(c.ctx, func() (err error) {
		out, err = c.line.Call("echo", b.args[i])
		return err
	})
	if err != nil {
		return false, err
	}
	if len(out) != 1 || len(out[0].Elems) != bulkLen {
		return false, nil
	}
	for j, e := range out[0].Elems {
		want := b.payloads[i][j]
		if math.Abs(e.F-want) > c.tol*math.Abs(want) {
			return false, nil
		}
	}
	return true, nil
}

func (b *bulk) measure(d time.Duration) (*measurement, error) {
	m, err := closedLoop(d, len(b.callers), func(i int, m *measurement) error {
		t0 := time.Now()
		ok, err := b.call(b.callers[i])
		if err != nil {
			// A range error is a failed operation, not a broken run.
			fmt.Fprintln(os.Stderr, "bench: bulk call failed:", err)
			m.Layer["machine.range_errors"]++
		}
		m.record(time.Since(t0), 1, ok && err == nil)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Useful bytes: the argument and the result, 8 B per double.
	m.Layer["schooner.payload_MB_per_s"] = float64(m.Ops) * 2 * bulkLen * 8 / 1e6 / m.Elapsed.Seconds()
	return m, nil
}

func (b *bulk) close() error { return b.dep.stop() }

// --- rpc-tcp ---

// shaftArgs is one seeded argument list of the paper's shaft procedure
// with the value the procedure must return for it.
type shaftArgs struct {
	args []uts.Value
	want float64
}

func newShaftArgs(rng *rand.Rand) shaftArgs {
	ecom := []float64{1e6 * (1 + rng.Float64()), 0, 0, 0}
	etur := []float64{1e6 * (1 + rng.Float64()), 0, 0, 0}
	ecorr, xspool, xmyi := 1.0, 1000*(1+rng.Float64()), 9*(1+rng.Float64())
	return shaftArgs{
		args: []uts.Value{
			uts.DoubleArray(ecom...), uts.MustInt(1),
			uts.DoubleArray(etur...), uts.MustInt(1),
			uts.DoubleVal(ecorr), uts.DoubleVal(xspool), uts.DoubleVal(xmyi),
		},
		// The analytic shaft acceleration: torque balance over inertia.
		want: ecorr * (etur[0] - ecom[0]) / (xmyi * xspool),
	}
}

type tcp struct {
	dep  *deployment
	line *schooner.Line
	ctx  *traceCtx
	sets []shaftArgs
}

func setupTCP(seed int64, tr *tracer) (instance, error) {
	t := schooner.NewTCPTransport(map[string]*machine.Arch{"ws": machine.SPARC, "remote": machine.SGI})
	dep, err := deploy(t, schooner.ManagerConfig{}, "ws", []string{"remote"}, tr, npssproc.ShaftProgram())
	if err != nil {
		return nil, err
	}
	w := &tcp{dep: dep}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 64; i++ {
		w.sets = append(w.sets, newShaftArgs(rng))
	}
	client, ctx := newClient(t, "ws", tr)
	w.ctx = ctx
	if w.line, err = client.ContactSchx("rpc-tcp"); err != nil {
		w.close()
		return nil, err
	}
	dep.lines = append(dep.lines, w.line)
	if err := w.line.StartRemote(npssproc.ShaftPath, "remote"); err != nil {
		w.close()
		return nil, err
	}
	if err := npssproc.RegisterImports(w.line); err != nil {
		w.close()
		return nil, err
	}
	if ok, err := w.call(0); err != nil || !ok {
		w.close()
		return nil, fmt.Errorf("warm-up call: ok=%v err=%v", ok, err)
	}
	return w, nil
}

// call issues set i as Line.Go(...).Wait(), the pipelined path, and
// checks the answer.
func (w *tcp) call(i int) (bool, error) {
	set := w.sets[i%len(w.sets)]
	var out []uts.Value
	err := traced(w.ctx, func() (err error) {
		out, err = w.line.Go("shaft", set.args...).Wait()
		return err
	})
	if err != nil {
		return false, err
	}
	return len(out) == 1 && math.Abs(out[0].F-set.want) <= 1e-12*math.Abs(set.want), nil
}

func (w *tcp) measure(d time.Duration) (*measurement, error) {
	// Both callers share the one line, so its binding's pipelined
	// connection carries two requests at a time.
	next := make([]int, callers)
	return closedLoop(d, callers, func(c int, m *measurement) error {
		t0 := time.Now()
		ok, err := w.call(c*31 + next[c])
		next[c]++
		if err != nil {
			return err
		}
		m.record(time.Since(t0), 1, ok)
		return nil
	})
}

func (w *tcp) close() error { return w.dep.stop() }

// model prices one bulk echo: per element, the interchange codec runs
// twice each way and the value takes native form twice on the
// workstation and twice on the host (the two callers average the Cray
// and the VAX-D); the 32 KiB frame crosses the simulated network twice.
func (b *bulk) model(rung map[string]float64, _ *measurement) (waitUS, codecUS float64, extra map[string]float64, err error) {
	const frameKB = bulkLen * 8 / 1024
	perElem := 2*(rung["uts.encode_bulk_ns_per_elem"]+rung["uts.decode_bulk_ns_per_elem"]) +
		2*rung["machine.roundtrip_ns.ieee"] + rung["machine.bulk_ns_per_elem.cray"] + rung["machine.bulk_ns_per_elem.vaxd"]
	frames := 2 * frameKB * (rung["wire.encode_ns_per_KB"] + rung["wire.decode_ns_per_KB"]) // inside the two hops
	hops := 2 * (rung["netsim.hop_ns"] + frameKB*rung["netsim.hop_ns_per_KB"])
	return (rung["schooner.call_self_ns"] + hops + bulkLen*perElem) / 1e3, (bulkLen*perElem + frames) / 1e3, nil, nil
}

// model prices one shaft call over TCP: the ladder's shaft call with
// the stream round trip in place of the two simulated hops, stretched
// by how little two callers on one binding gain over one.
func (w *tcp) model(rung map[string]float64, _ *measurement) (waitUS, codecUS float64, extra map[string]float64, err error) {
	codec := rung["uts.encode_shaft_ns"] + rung["uts.decode_shaft_ns"]
	conv := 4 * 13 * rung["machine.roundtrip_ns.ieee"]
	frames := 2 * (rung["wire.encode_call_ns"] + rung["wire.decode_call_ns"])
	call := rung["schooner.shaft_call_ns"] - 2*rung["netsim.hop_ns"] + rung["wire.stream_roundtrip_ns"]
	return call * callers / rung["schooner.inflight2_speedup"] / 1e3, (codec + conv + frames) / 1e3, nil, nil
}
