package core

import (
	"sync"
	"testing"
	"time"

	"npss/internal/engine"
	"npss/internal/schooner"
	"npss/internal/trace"
	"npss/internal/wire"
)

// TestConcurrentJacobianBitIdentical runs the Table 2 placement with
// every overlap on — hook calls in flight together, the Newton
// Jacobian's columns evaluated concurrently on forked engines, the
// shaft pair batched — against the plain sequential run. The answers
// must be equal to the last bit and the procedure calls equal in
// number: concurrency changes when calls are made, never which.
func TestConcurrentJacobianBitIdentical(t *testing.T) {
	run := func(opts RunOptions) (*RunResult, int64) {
		tb := newTestbed(t)
		shortRun(t, tb.exec)
		if err := tb.exec.Network.SetParam(InstComb, "fuel schedule", "0:1.48, 0.05:1.33"); err != nil {
			t.Fatal(err)
		}
		for inst, mach := range table2Placements() {
			if err := tb.exec.SetRemote(inst, mach, ""); err != nil {
				t.Fatal(err)
			}
		}
		calls0 := trace.Get("schooner.client.calls")
		res, err := tb.exec.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, trace.Get("schooner.client.calls") - calls0
	}
	seq, seqCalls := run(RunOptions{})
	con, conCalls := run(RunOptions{Parallel: true, Batch: true})

	if seq.SteadyIters != con.SteadyIters {
		t.Errorf("balance: %d Newton iterations sequential, %d concurrent", seq.SteadyIters, con.SteadyIters)
	}
	if seq.Steady != con.Steady {
		t.Errorf("steady outputs differ:\n seq %+v\n con %+v", seq.Steady, con.Steady)
	}
	if seq.Final != con.Final {
		t.Errorf("final outputs differ:\n seq %+v\n con %+v", seq.Final, con.Final)
	}
	if len(seq.State) != len(con.State) {
		t.Fatalf("state lengths %d vs %d", len(seq.State), len(con.State))
	}
	for i := range seq.State {
		if seq.State[i] != con.State[i] {
			t.Errorf("state %d: %.17g sequential, %.17g concurrent", i, seq.State[i], con.State[i])
		}
	}
	if seqCalls != conCalls {
		t.Errorf("%d procedure calls sequential, %d concurrent: overlap must not change the calls", seqCalls, conCalls)
	}
}

// gatingTransport holds every procedure-call message its connections
// send, once armed, until release: the call is on the wire but gets no
// reply. Send itself returns at once, so a caller never holds the
// client's connection lock while its message is held.
type gatingTransport struct {
	schooner.Transport

	mu      sync.Mutex
	armed   bool
	held    []heldSend
	arrived chan struct{} // one value per held message
}

type heldSend struct {
	conn wire.Conn
	msg  *wire.Message
}

func (g *gatingTransport) Dial(from, addr string) (wire.Conn, error) {
	c, err := g.Transport.Dial(from, addr)
	if err != nil {
		return nil, err
	}
	return &gatedConn{Conn: c, g: g}, nil
}

// arm starts holding procedure calls.
func (g *gatingTransport) arm() {
	g.mu.Lock()
	g.armed = true
	g.mu.Unlock()
}

// release stops holding and sends every held message on.
func (g *gatingTransport) release() error {
	g.mu.Lock()
	held := g.held
	g.armed, g.held = false, nil
	g.mu.Unlock()
	for _, h := range held {
		if err := h.conn.Send(h.msg); err != nil {
			return err
		}
	}
	return nil
}

type gatedConn struct {
	wire.Conn
	g *gatingTransport
}

func (c *gatedConn) Send(m *wire.Message) error {
	c.g.mu.Lock()
	if c.g.armed && m.Kind == wire.KCall {
		c.g.held = append(c.g.held, heldSend{c.Conn, m})
		c.g.mu.Unlock()
		c.g.arrived <- struct{}{}
		return nil
	}
	c.g.mu.Unlock()
	return c.Conn.Send(m)
}

// TestHookCallsDoNotSerialize checks that an adapted module's lock
// covers only its setup constant: while caller A's remote duct call is
// held on the wire, caller B's call through the same module must still
// reach the wire. Holding the lock across the round trip would park B
// on it until A's reply came back, and the concurrent Jacobian columns
// would queue behind one another at every remote module.
func TestHookCallsDoNotSerialize(t *testing.T) {
	tb := newTestbed(t)
	gate := &gatingTransport{Transport: tb.exec.Client.Transport, arrived: make(chan struct{}, 4)}
	tb.exec.Client.Transport = gate
	// No call deadline: a held call must wait for release, not time
	// out and resend.
	tb.exec.Client.Policy = schooner.CallPolicy{Timeout: -1}
	if err := tb.exec.SetRemote(InstBypDuct, "cray-lerc", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.exec.Network.ExecuteParallel(1); err != nil {
		t.Fatal(err)
	}
	node, err := tb.exec.Network.Node(InstBypDuct)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.NewF100(tb.exec.Config)
	if err != nil {
		t.Fatal(err)
	}
	des := eng.DesignDucts["bypass"]
	hook := node.Module().(*DuctModule).Hook(des)
	call := func() error {
		_, err := hook(0, des.P, des.T, des.FAR, des.P-des.DP)
		return err
	}
	// The first call sizes the orifice (setduct) and warms the line.
	if err := call(); err != nil {
		t.Fatal(err)
	}

	gate.arm()
	errs := make(chan error, 2)
	pending := 0
	start := func(who string) bool {
		t.Helper()
		pending++
		go func() { errs <- call() }()
		select {
		case <-gate.arrived:
			return true
		case err := <-errs:
			pending--
			t.Errorf("caller %s's duct call returned before it was released: %v", who, err)
		case <-time.After(5 * time.Second):
			t.Errorf("caller %s's duct call never reached the wire: the module serializes its callers", who)
		}
		return false
	}
	if start("A") {
		start("B")
	}
	if err := gate.release(); err != nil {
		t.Fatal(err)
	}
	for ; pending > 0; pending-- {
		if err := <-errs; err != nil {
			t.Errorf("duct call: %v", err)
		}
	}
}
