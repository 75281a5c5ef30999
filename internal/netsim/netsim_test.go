package netsim

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"npss/internal/machine"
	"npss/internal/wire"
)

func twoHosts(t *testing.T) (*Network, *Host, *Host) {
	t.Helper()
	n := New()
	a := n.MustAddHost("avs-sparc", machine.SPARC)
	b := n.MustAddHost("cray-lerc", machine.CrayYMP)
	return n, a, b
}

func TestSplitJoinAddr(t *testing.T) {
	h, p, err := SplitAddr("cray-lerc:9001")
	if err != nil || h != "cray-lerc" || p != "9001" {
		t.Errorf("SplitAddr = %q, %q, %v", h, p, err)
	}
	if JoinAddr(h, p) != "cray-lerc:9001" {
		t.Error("JoinAddr mismatch")
	}
	for _, bad := range []string{"nocolon", ":port", "host:", ""} {
		if _, _, err := SplitAddr(bad); err == nil {
			t.Errorf("SplitAddr(%q) succeeded", bad)
		}
	}
	// Last colon wins so ports can be simple names.
	h, p, err = SplitAddr("host:sub:port")
	if err != nil || h != "host:sub" || p != "port" {
		t.Errorf("SplitAddr nested = %q, %q, %v", h, p, err)
	}
}

func TestHostRegistry(t *testing.T) {
	n, a, _ := twoHosts(t)
	if got := n.Hosts(); len(got) != 2 || got[0] != "avs-sparc" {
		t.Errorf("Hosts = %v", got)
	}
	h, err := n.Host("avs-sparc")
	if err != nil || h != a {
		t.Errorf("Host lookup = %v, %v", h, err)
	}
	if _, err := n.Host("nope"); err == nil {
		t.Error("unknown host resolved")
	}
	if _, err := n.AddHost("avs-sparc", machine.SPARC); err == nil {
		t.Error("duplicate host accepted")
	}
	if _, err := n.AddHost("x", nil); err == nil {
		t.Error("nil arch accepted")
	}
	if a.Name() != "avs-sparc" || a.Arch() != machine.SPARC || a.Network() != n {
		t.Error("host accessors wrong")
	}
}

func TestDialAndMessage(t *testing.T) {
	_, a, b := twoHosts(t)
	l, err := b.Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	if l.Addr() != "cray-lerc:rpc" {
		t.Errorf("Addr = %q", l.Addr())
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv, err := l.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		m, err := srv.Recv()
		if err != nil {
			t.Errorf("server Recv: %v", err)
			return
		}
		srv.Send(&wire.Message{Kind: wire.KOK, Seq: m.Seq, Data: []byte("pong")})
	}()
	c, err := a.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if c.RemoteLabel() != "cray-lerc" {
		t.Errorf("RemoteLabel = %q", c.RemoteLabel())
	}
	if err := c.Send(&wire.Message{Kind: wire.KCall, Seq: 1, Name: "shaft"}); err != nil {
		t.Fatal(err)
	}
	reply, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != wire.KOK || string(reply.Data) != "pong" {
		t.Errorf("reply = %v", reply)
	}
	wg.Wait()
}

func TestMessageIsolation(t *testing.T) {
	// Mutating a message after Send must not affect the receiver.
	_, a, b := twoHosts(t)
	l, _ := b.Listen("rpc")
	done := make(chan *wire.Message, 1)
	go func() {
		srv, _ := l.Accept()
		m, _ := srv.Recv()
		done <- m
	}()
	c, _ := a.Dial(l.Addr())
	m := &wire.Message{Kind: wire.KCall, Data: []byte{1, 2, 3}}
	c.Send(m)
	m.Data[0] = 99
	got := <-done
	if got.Data[0] != 1 {
		t.Error("receiver shares sender's buffer")
	}
}

func TestReceiverOwnsItsCopy(t *testing.T) {
	// Mutating a received message must not reach back to the sender.
	_, a, b := twoHosts(t)
	l, _ := b.Listen("rpc")
	done := make(chan *wire.Message, 1)
	go func() {
		srv, _ := l.Accept()
		m, _ := srv.Recv()
		m.Data[0] = 99
		done <- m
	}()
	c, _ := a.Dial(l.Addr())
	m := &wire.Message{Kind: wire.KCall, Name: "add", Data: []byte{1, 2, 3}}
	c.Send(m)
	got := <-done
	if m.Data[0] != 1 {
		t.Error("the receiver's write reached the sender's payload")
	}
	if got.Name != "add" || got.Data[1] != 2 {
		t.Errorf("received %v, want the sent message", got)
	}
}

func TestDialErrors(t *testing.T) {
	n, a, b := twoHosts(t)
	if _, err := a.Dial("bogus"); err == nil {
		t.Error("bad addr dialed")
	}
	if _, err := a.Dial("ghost:rpc"); err == nil {
		t.Error("unknown host dialed")
	}
	if _, err := a.Dial("cray-lerc:rpc"); err == nil || !strings.Contains(err.Error(), "refused") {
		t.Errorf("no-listener dial: %v", err)
	}
	l, _ := b.Listen("rpc")
	l.Close()
	if _, err := a.Dial("cray-lerc:rpc"); err == nil {
		t.Error("closed listener dialed")
	}
	if _, err := l.Accept(); err != io.EOF {
		t.Errorf("Accept after close = %v, want EOF", err)
	}
	// Port can be reused after close.
	if _, err := b.Listen("rpc"); err != nil {
		t.Errorf("relisten: %v", err)
	}
	if _, err := b.Listen("rpc"); err == nil {
		t.Error("duplicate port accepted")
	}
	_ = n
}

func TestEphemeralPorts(t *testing.T) {
	_, a, _ := twoHosts(t)
	l1, err := a.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	l2, err := a.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	if l1.Addr() == l2.Addr() {
		t.Error("ephemeral ports collide")
	}
}

func TestLinkStatsAccounting(t *testing.T) {
	n, a, b := twoHosts(t)
	n.SetLink("avs-sparc", "cray-lerc", Internet1993)
	l, _ := b.Listen("rpc")
	go func() {
		srv, _ := l.Accept()
		for {
			if _, err := srv.Recv(); err != nil {
				return
			}
		}
	}()
	c, _ := a.Dial(l.Addr())
	for i := 0; i < 5; i++ {
		if err := c.Send(&wire.Message{Kind: wire.KPing, Seq: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	stats := n.Stats()
	st, ok := stats["via Internet"]
	if !ok {
		t.Fatalf("no stats for internet link: %v", stats)
	}
	if st.Messages != 5 || st.Bytes <= 0 {
		t.Errorf("stats = %+v", st)
	}
	// Each ping pays at least the one-way latency.
	if st.SimDelay < 5*Internet1993.Latency {
		t.Errorf("SimDelay = %v, want >= %v", st.SimDelay, 5*Internet1993.Latency)
	}
	if n.TotalSimDelay() < st.SimDelay {
		t.Error("TotalSimDelay less than one link's delay")
	}
	n.ResetStats()
	if len(n.Stats()) != 0 {
		t.Error("ResetStats did not clear")
	}
}

func TestTimeScaleSleeps(t *testing.T) {
	n, a, b := twoHosts(t)
	link := LinkSpec{Name: "slow", Latency: 50 * time.Millisecond}
	n.SetLink("avs-sparc", "cray-lerc", link)
	n.SetTimeScale(0.2) // 50ms simulated -> 10ms real
	l, _ := b.Listen("rpc")
	recvd := make(chan time.Time, 1)
	go func() {
		srv, _ := l.Accept()
		srv.Recv()
		recvd <- time.Now()
	}()
	c, _ := a.Dial(l.Addr())
	start := time.Now()
	c.Send(&wire.Message{Kind: wire.KPing})
	arrival := <-recvd
	elapsed := arrival.Sub(start)
	if elapsed < 8*time.Millisecond {
		t.Errorf("scaled delay %v too short, want >= ~10ms", elapsed)
	}
	if elapsed > 45*time.Millisecond {
		t.Errorf("scaled delay %v too long", elapsed)
	}
}

func TestZeroScaleDoesNotSleep(t *testing.T) {
	n, a, b := twoHosts(t)
	n.SetLink("avs-sparc", "cray-lerc", LinkSpec{Name: "wan", Latency: 10 * time.Second})
	l, _ := b.Listen("rpc")
	recvd := make(chan struct{})
	go func() {
		srv, _ := l.Accept()
		srv.Recv()
		close(recvd)
	}()
	c, _ := a.Dial(l.Addr())
	start := time.Now()
	c.Send(&wire.Message{Kind: wire.KPing})
	<-recvd
	if time.Since(start) > time.Second {
		t.Error("zero TimeScale slept")
	}
	if n.TotalSimDelay() < 10*time.Second {
		t.Errorf("sim delay %v not recorded", n.TotalSimDelay())
	}
}

func TestMessageOrderingPreserved(t *testing.T) {
	_, a, b := twoHosts(t)
	l, _ := b.Listen("rpc")
	got := make(chan uint32, 100)
	go func() {
		srv, _ := l.Accept()
		for {
			m, err := srv.Recv()
			if err != nil {
				close(got)
				return
			}
			got <- m.Seq
		}
	}()
	c, _ := a.Dial(l.Addr())
	for i := 0; i < 100; i++ {
		c.Send(&wire.Message{Kind: wire.KPing, Seq: uint32(i)})
	}
	for i := 0; i < 100; i++ {
		if seq := <-got; seq != uint32(i) {
			t.Fatalf("message %d arrived as %d", i, seq)
		}
	}
	c.Close()
}

func TestFailureInjectionHostDown(t *testing.T) {
	n, a, b := twoHosts(t)
	l, _ := b.Listen("rpc")
	c, err := a.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	n.SetHostDown("cray-lerc", true)
	if err := c.Send(&wire.Message{Kind: wire.KPing}); err == nil {
		t.Error("send to down host succeeded")
	}
	if _, err := a.Dial(l.Addr()); err == nil {
		t.Error("dial to down host succeeded")
	}
	n.SetHostDown("cray-lerc", false)
	if err := c.Send(&wire.Message{Kind: wire.KPing}); err != nil {
		t.Errorf("send after host recovery: %v", err)
	}
}

func TestFailureInjectionLinkDown(t *testing.T) {
	n, a, b := twoHosts(t)
	l, _ := b.Listen("rpc")
	c, _ := a.Dial(l.Addr())
	n.SetLinkDown("avs-sparc", "cray-lerc", true)
	if err := c.Send(&wire.Message{Kind: wire.KPing}); err == nil {
		t.Error("send over down link succeeded")
	}
	n.SetLinkDown("avs-sparc", "cray-lerc", false)
	if err := c.Send(&wire.Message{Kind: wire.KPing}); err != nil {
		t.Errorf("send after link recovery: %v", err)
	}
}

func TestCloseUnblocksReceiver(t *testing.T) {
	_, a, b := twoHosts(t)
	l, _ := b.Listen("rpc")
	errc := make(chan error, 1)
	go func() {
		srv, _ := l.Accept()
		_, err := srv.Recv()
		errc <- err
	}()
	c, _ := a.Dial(l.Addr())
	time.Sleep(time.Millisecond)
	c.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("Recv returned nil after close")
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on close")
	}
	if err := c.Send(&wire.Message{Kind: wire.KPing}); err == nil {
		t.Error("send on closed conn succeeded")
	}
}

// TestCloseAcrossDownPathIsNotHeard: a host that is down hangs up
// without its peer hearing, as a dead host sends nothing. The peer's
// receive stays blocked until it closes its own end, and once the path
// is back its sends fail.
func TestCloseAcrossDownPathIsNotHeard(t *testing.T) {
	n, a, b := twoHosts(t)
	l, _ := b.Listen("rpc")
	c, _ := a.Dial(l.Addr())
	srv, _ := l.Accept()
	n.SetHostDown("cray-lerc", true)
	srv.Close()
	n.SetHostDown("cray-lerc", false)
	errc := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		errc <- err
	}()
	select {
	case err := <-errc:
		t.Fatalf("Recv returned %v: the close crossed a down path", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := c.Send(&wire.Message{Kind: wire.KPing}); err == nil {
		t.Error("send to a hung-up peer succeeded")
	}
	c.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("Recv returned nil after its own close")
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on its own close")
	}
}

func TestLoopbackAndDefaultLinks(t *testing.T) {
	n := New()
	a := n.MustAddHost("solo", machine.SPARC)
	l, _ := a.Listen("self")
	go func() {
		srv, _ := l.Accept()
		m, _ := srv.Recv()
		srv.Send(m)
	}()
	c, err := a.Dial("solo:self")
	if err != nil {
		t.Fatal(err)
	}
	c.Send(&wire.Message{Kind: wire.KPing})
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Stats()["loopback"]; !ok {
		t.Errorf("loopback not accounted: %v", n.Stats())
	}
}

func TestLinkDelayComputation(t *testing.T) {
	l := LinkSpec{Latency: 10 * time.Millisecond, Bandwidth: 1000} // 1000 B/s
	if d := l.Delay(0); d != 10*time.Millisecond {
		t.Errorf("Delay(0) = %v", d)
	}
	if d := l.Delay(1000); d != 10*time.Millisecond+time.Second {
		t.Errorf("Delay(1000) = %v", d)
	}
	inf := LinkSpec{Latency: time.Millisecond}
	if d := inf.Delay(1 << 20); d != time.Millisecond {
		t.Errorf("infinite bandwidth Delay = %v", d)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// With finite bandwidth and real sleeping, a large message's
	// serialization time separates the arrivals of back-to-back sends.
	n, a, b := twoHosts(t)
	n.SetLink("avs-sparc", "cray-lerc", LinkSpec{Name: "thin", Latency: 0, Bandwidth: 1e6})
	n.SetTimeScale(1)
	l, _ := b.Listen("rpc")
	arrivals := make(chan time.Time, 2)
	go func() {
		srv, _ := l.Accept()
		for i := 0; i < 2; i++ {
			if _, err := srv.Recv(); err != nil {
				return
			}
			arrivals <- time.Now()
		}
	}()
	c, _ := a.Dial(l.Addr())
	big := &wire.Message{Kind: wire.KCall, Data: make([]byte, 20000)} // 20 ms at 1 MB/s
	if err := c.Send(big); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(big); err != nil {
		t.Fatal(err)
	}
	first := <-arrivals
	second := <-arrivals
	gap := second.Sub(first)
	if gap < 10*time.Millisecond {
		t.Errorf("second message arrived %v after first; serialization not enforced", gap)
	}
	// Accounting records both messages' full delays.
	if st := n.Stats()["thin"]; st.Messages != 2 || st.SimDelay < 40*time.Millisecond {
		t.Errorf("stats = %+v", st)
	}
}
