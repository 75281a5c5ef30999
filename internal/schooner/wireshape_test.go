package schooner

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"npss/internal/netsim"
	"npss/internal/uts"
	"npss/internal/vclock"
	"npss/internal/wire"
)

var updateWireShape = flag.Bool("update-wireshape", false,
	"rewrite testdata/wireshape.golden from this run")

// shapeTransport records every frame that crosses a connection it
// dialed — the dialing side sees both directions, so each frame is
// recorded once — grouped by connection. A connection is named by its
// endpoints and its rank among the dials between them.
type shapeTransport struct {
	Transport

	mu    sync.Mutex
	dials map[string]int
	conns map[string]*shapeConn
}

type shapeConn struct {
	wire.Conn
	mu     sync.Mutex
	frames []string
	// asked is the kind of each request sent, by Seq: a reply is KOK
	// or KError whatever it answers, so whether it carries sub-frames
	// is read off the request it answers.
	asked map[uint32]wire.Kind
}

func (t *shapeTransport) Dial(from, addr string) (wire.Conn, error) {
	conn, err := t.Transport.Dial(from, addr)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pair := from + " -> " + addr
	t.dials[pair]++
	sc := &shapeConn{Conn: conn, asked: make(map[uint32]wire.Kind)}
	t.conns[fmt.Sprintf("%s #%d", pair, t.dials[pair])] = sc
	return sc, nil
}

// shape renders what a frame is without what numbers it: Seq is left
// out on purpose, everything that decides routing and size is in. A
// batch frame — a KBatch or the reply to one — lists its sub-frames.
func shape(m *wire.Message, batch bool) string {
	s := fmt.Sprintf("%v line=%d name=%q str=%d data=%d", m.Kind, m.Line, m.Name, len(m.Str), len(m.Data))
	if m.Err != "" {
		s += fmt.Sprintf(" err=%q", m.Err)
	}
	if !batch || m.Kind == wire.KError {
		return s
	}
	subs, err := wire.SplitBatch(m.Data)
	if err != nil {
		return s + " subs=unparseable"
	}
	s += fmt.Sprintf(" subs=%d", len(subs))
	for _, sub := range subs {
		s += fmt.Sprintf("\n      [%q] %s", sub.Addr, shape(sub.Msg, false))
	}
	return s
}

// Send notes a request: every frame sent on a dialed connection is one.
func (c *shapeConn) Send(m *wire.Message) error {
	c.mu.Lock()
	c.asked[m.Seq] = m.Kind
	c.frames = append(c.frames, "-> "+shape(m, m.Kind == wire.KBatch))
	c.mu.Unlock()
	return c.Conn.Send(m)
}

// Recv notes a reply, matched to its request by Seq.
func (c *shapeConn) Recv() (*wire.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil {
		c.mu.Lock()
		c.frames = append(c.frames, "<- "+shape(m, c.asked[m.Seq] == wire.KBatch))
		c.mu.Unlock()
	}
	return m, err
}

// dump renders the recorded session, connections in name order.
func (t *shapeTransport) dump() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.conns))
	for n := range t.conns {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		c := t.conns[n]
		c.mu.Lock()
		fmt.Fprintf(&b, "%s\n", n)
		for _, f := range c.frames {
			fmt.Fprintf(&b, "  %s\n", f)
		}
		c.mu.Unlock()
	}
	return b.String()
}

// newShapeCluster stands up a Manager on avs-sparc and a Server on each
// of three machines, all on a virtual clock and all dialing through one
// recording transport, which it returns.
func newShapeCluster(t *testing.T, programs ...*Program) *shapeTransport {
	t.Helper()
	v := vclock.NewVirtual()
	n := netsim.New()
	n.SetClock(v)
	n.SetTimeScale(1.0)
	hosts := []string{"avs-sparc", "rs6000", "sgi-lerc"}
	for _, h := range hosts {
		n.MustAddHost(h, ieeeHosts()[h])
	}
	tr := &shapeTransport{Transport: NewSimTransport(n),
		dials: make(map[string]int), conns: make(map[string]*shapeConn)}
	reg := NewRegistry()
	for _, p := range programs {
		reg.MustRegister(p)
	}
	var stops []func()
	t.Cleanup(func() {
		for _, stop := range stops {
			stop()
		}
		if err := v.Stop(); err != nil {
			t.Error(err)
		}
	})
	mgr, err := StartManager(tr, "avs-sparc")
	if err != nil {
		t.Fatal(err)
	}
	stops = append(stops, mgr.Stop)
	for _, h := range hosts {
		srv, err := StartServer(tr, h, reg)
		if err != nil {
			t.Fatal(err)
		}
		stops = append(stops, srv.Stop)
	}
	return tr
}

// TestWireShape replays one scripted session that walks every client
// call path — registration, spawns, a call, 64 calls in flight at
// once, batches to one and to two processes, a host batch across
// lines, stale rebinds after moves, a batch that falls back, quits —
// on a virtual clock, and
// compares the frames every connection carried, sequence numbers
// masked, against the trace recorded before the call paths were folded
// into one. What goes on the wire for an operation is the contract;
// how the client is organised behind it is not.
func TestWireShape(t *testing.T) {
	t.Parallel()
	tr := newShapeCluster(t, adderProgram("/npss/adder"), shaftProgram("/npss/shaft"), counterProgram("/npss/counter"))

	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	waitAll := func(what string, pends []*Pending) {
		t.Helper()
		for i, p := range pends {
			if _, err := p.Wait(); err != nil {
				t.Fatalf("%s member %d: %v", what, i, err)
			}
		}
	}
	add := func(a, b float64) []uts.Value { return []uts.Value{uts.DoubleVal(a), uts.DoubleVal(b)} }
	four := uts.DoubleArray(1, 2, 3, 4)
	setshaft := []uts.Value{four, uts.MustInt(4), four, uts.MustInt(4)}

	c := &Client{Transport: tr, Host: "avs-sparc", ManagerHost: "avs-sparc"}
	ln, err := c.ContactSchx("shape")
	must("ContactSchx", err)
	must("start adder", ln.StartRemote("/npss/adder", "sgi-lerc"))
	must("start shaft", ln.StartRemote("/npss/shaft", "sgi-lerc"))
	must("import", ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`)))
	must("import", ln.Import(uts.MustParseProc(`import scale prog("xs" var array[3] of double, "k" val double)`)))
	must("import", ln.Import(uts.MustParseProc(`import setshaft prog(
		"ecom" val array[4] of double, "incom" val integer,
		"etur" val array[4] of double, "intur" val integer, "ecorr" res double)`)))

	_, err = ln.Call("add", add(1, 2)...)
	must("call", err)

	inflight := make([]*Pending, 64)
	for i := range inflight {
		inflight[i] = ln.Go("add", add(float64(i), 1)...)
	}
	waitAll("64 in flight", inflight)

	waitAll("batch, one process", c.CallBatch([]CrossCall{
		{Line: ln, Name: "add", Args: add(1, 2)},
		{Line: ln, Name: "add", Args: add(3, 4)},
		{Line: ln, Name: "scale", Args: []uts.Value{uts.DoubleArray(1, 2, 3), uts.DoubleVal(2)}},
	}))
	waitAll("batch, two processes", c.CallBatch([]CrossCall{
		{Line: ln, Name: "add", Args: add(1, 2)},
		{Line: ln, Name: "setshaft", Args: setshaft},
		{Line: ln, Name: "add", Args: add(3, 4)},
	}))

	ln2, err := c.ContactSchx("shape2")
	must("ContactSchx 2", err)
	must("start counter", ln2.StartRemote("/npss/counter", "sgi-lerc"))
	must("import", ln2.Import(uts.MustParseProc(`import next prog("n" res integer)`)))
	waitAll("host batch", c.CallBatch([]CrossCall{
		{Line: ln, Name: "add", Args: add(1, 2)},
		{Line: ln, Name: "setshaft", Args: setshaft},
		{Line: ln2, Name: "next"},
	}))

	must("move", ln.Move("add", "rs6000", false))
	_, err = ln.Call("add", add(1, 2)...)
	must("call after move", err)
	must("move back", ln.Move("add", "sgi-lerc", false))
	waitAll("batch after move", c.CallBatch([]CrossCall{
		{Line: ln, Name: "add", Args: add(1, 2)},
		{Line: ln, Name: "add", Args: add(3, 4)},
	}))
	must("move with state", ln2.Move("next", "rs6000", true))
	_, err = ln2.Call("next")
	must("call after state move", err)

	must("quit", ln.IQuit())
	must("quit 2", ln2.IQuit())
	c.Close()

	got := tr.dump()
	const golden = "testdata/wireshape.golden"
	if *updateWireShape {
		must("mkdir", os.MkdirAll("testdata", 0o755))
		must("write golden", os.WriteFile(golden, []byte(got), 0o644))
		return
	}
	want, err := os.ReadFile(golden)
	must("read golden", err)
	if got != string(want) {
		t.Errorf("wire shape differs from %s (recorded at the parent of the one-call-path change)\n%s",
			golden, firstDiff(string(want), got))
	}
}

// triStateProgram exports three procedures, each with a state clause,
// so a move with state has three KStatePuts to order.
func triStateProgram(path string) *Program {
	return &Program{
		Path:     path,
		Language: LangC,
		Build: func() (*Instance, error) {
			stateful := func(name string) *BoundProc {
				var v int64
				return &BoundProc{
					Spec: uts.MustParseProc(`export ` + name + ` prog("n" res integer) state("v" integer)`),
					Fn: func([]uts.Value) ([]uts.Value, error) {
						v++
						return []uts.Value{uts.MustInt(int(v))}, nil
					},
					GetState: func() ([]uts.Value, error) { return []uts.Value{uts.MustInt(int(v))}, nil },
					SetState: func(vals []uts.Value) error { v = vals[0].I; return nil },
				}
			}
			return NewInstance(stateful("gamma"), stateful("alpha"), stateful("beta"))
		},
	}
}

// TestInstallStateOrder moves a process with three stateful exports
// back and forth twenty times and checks that every move pushed the
// state in the same order: the same operation must put the same frames
// on the wire, whatever order a map happens to iterate in.
func TestInstallStateOrder(t *testing.T) {
	t.Parallel()
	tr := newShapeCluster(t, triStateProgram("/npss/tri"))
	c := &Client{Transport: tr, Host: "avs-sparc", ManagerHost: "avs-sparc"}
	ln, err := c.ContactSchx("tri")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/tri", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	const moves = 20
	for i := 0; i < moves; i++ {
		to := []string{"rs6000", "sgi-lerc"}[i%2]
		if err := ln.Move("alpha", to, true); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
	}
	var orders []string
	tr.mu.Lock()
	for _, conn := range tr.conns {
		var puts []string
		for _, f := range conn.frames {
			if name, ok := strings.CutPrefix(f, "-> StatePut line=0 name="); ok {
				puts = append(puts, name[:strings.Index(name, " ")])
			}
		}
		if puts != nil {
			orders = append(orders, strings.Join(puts, " "))
		}
	}
	tr.mu.Unlock()
	if len(orders) != moves {
		t.Fatalf("saw %d state installs, want %d", len(orders), moves)
	}
	for i, o := range orders {
		if want := `"alpha" "beta" "gamma"`; o != want {
			t.Errorf("install %d pushed %s, want %s", i, o, want)
		}
	}
}

// firstDiff shows where two traces part, with a little context.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			from := i - 3
			if from < 0 {
				from = 0
			}
			return fmt.Sprintf("line %d:\n  context: %s\n  want: %s\n  got:  %s",
				i+1, strings.Join(w[from:i], " | "), wl, gl)
		}
	}
	return "(no difference found)"
}
