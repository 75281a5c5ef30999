package schooner

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"npss/internal/flight"
	"npss/internal/logx"
	"npss/internal/machine"
	"npss/internal/trace"
	"npss/internal/tseries"
	"npss/internal/uts"
	"npss/internal/vclock"
	"npss/internal/wire"
)

// inject copies a span's context into a request message; a nil span
// leaves the message untraced.
func inject(m *wire.Message, sp *trace.Span) {
	ctx := sp.Context()
	m.Trace, m.Span = ctx.Trace, ctx.Span
}

// Client is the Schooner communication library as linked into one
// module (for example an AVS module): it knows which machine it runs
// on and where the Manager lives.
type Client struct {
	Transport Transport
	// Host is the machine this module executes on.
	Host string
	// ManagerHost is the machine the persistent Manager runs on.
	ManagerHost string
	// Managers lists additional Manager hosts to try, in order, when
	// ManagerHost is unreachable — the warm standbys. A line whose
	// Manager connection dies re-attaches to the first host that
	// recognizes it.
	Managers []string
	// Policy bounds calls on every line this client opens. The zero
	// value applies the package defaults (see CallPolicy).
	Policy CallPolicy

	// servers holds the per-machine Server connections CallBatch
	// sends its envelopes on, shared by all of the client's lines.
	servers connTable
}

// Close releases the client's cached Server connections (the batch
// path). Lines opened through the client are unaffected;
// quit them individually with IQuit.
func (c *Client) Close() { c.servers.close() }

// managerHosts is the ordered list of Manager hosts to try: the
// primary first, then the standbys.
func (c *Client) managerHosts() []string {
	return append([]string{c.ManagerHost}, c.Managers...)
}

// arch resolves the client's own architecture.
func (c *Client) arch() (*machine.Arch, error) {
	return c.Transport.HostArch(c.Host)
}

// ContactSchx registers the module with the Manager and opens a new
// line — the call a module makes from its compute function the first
// time it is scheduled. The returned Line is the module's handle for
// starting, calling, moving, and shutting down remote procedures. A
// Manager that does not answer within the client's call deadline is
// given up on, and the next configured one tried.
func (c *Client) ContactSchx(module string) (*Line, error) {
	clock := c.Transport.Clock()
	pol := c.Policy.withDefaults()
	g, id, _, err := c.openLine(clock, &wire.Message{Kind: wire.KRegisterLine, Name: module}, pol.Timeout)
	if err != nil {
		return nil, err
	}
	return &Line{
		client:   c,
		clock:    clock,
		id:       id,
		module:   module,
		policy:   pol,
		mgr:      sharedConn{addr: fmt.Sprintf("the manager of line %d", id), clock: clock, conn: g},
		imports:  make(map[string]*uts.ProcSpec),
		bindings: make(map[string]*binding),
	}, nil
}

// openLine asks each configured Manager host in turn for a line — a new
// one (KRegisterLine) or one it already knows (KAttachLine), on the
// line's clock — and returns the connection that carried the first
// answer, which becomes the line's Manager connection, with the line's
// id and the host that answered.
func (c *Client) openLine(clock vclock.Clock, req *wire.Message, timeout time.Duration) (*demuxConn, uint32, string, error) {
	var err error
	for _, mh := range c.managerHosts() {
		var conn wire.Conn
		if conn, err = c.Transport.Dial(c.Host, mh+":"+ManagerPort); err != nil {
			err = fmt.Errorf("schooner: cannot reach manager on %s: %w", mh, err)
			continue
		}
		g := newDemuxConn(conn, clock)
		var resp *wire.Message
		if resp, err = g.exchange(req, timeout); err == nil {
			if err = replyError(resp); err != nil {
				err = fmt.Errorf("schooner: manager on %s refused %v: %v", mh, req.Kind, err)
			}
		}
		if err == nil {
			return g, resp.Line, mh, nil
		}
		g.Close()
	}
	return nil, 0, "", err
}

// Line is one thread of control in a Schooner program: a sequential
// execution of procedures, some of which may be located on remote
// machines. Lines execute independently of each other with no
// synchronization; procedure names are unique within a line but may
// repeat across lines.
//
// A Line is safe for concurrent use: any number of goroutines may
// issue Call and Go through it, and the in-flight calls overlap on the
// wire: calls to one procedure process share its binding's pipelined
// connection, matched to their replies by sequence number. The mutex
// guards only the binding cache, the import table and the quit flag —
// it is never held across a network round trip or a backoff sleep.
type Line struct {
	client *Client
	clock  vclock.Clock // the client transport's, read at ContactSchx
	id     uint32
	module string
	policy CallPolicy // the client's, with defaults, fixed at ContactSchx
	mgr    sharedConn // to the Manager; its dial is attach

	mu       sync.Mutex
	imports  map[string]*uts.ProcSpec
	bindings map[string]*binding
	quit     bool
}

// isQuit reports whether the line has been shut down.
func (l *Line) isQuit() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.quit
}

// demuxConn multiplexes one shared connection across concurrently
// calling goroutines: it numbers each request, and the peer echoes the
// number in its reply. No goroutine reads the connection for them:
// whichever caller holds the receive side reads it, keeps its own
// reply and hands every other reply to the caller that waits for it.
// When it returns, on its reply or at its deadline, it passes the
// receive side to the oldest caller still waiting, or puts it down. It
// is the line's Manager connection, the client's Server connection and
// the pipelined procedure-call path: any number of requests may be in
// flight on the same connection at once. A deadline ends one caller's
// wait, not the connection: a Recv cut short consumes nothing, and a
// late reply to an abandoned seq is simply discarded.
type demuxConn struct {
	conn  wire.Conn
	clock vclock.Clock

	// sendMu serializes frames onto the shared connection.
	sendMu sync.Mutex

	mu      sync.Mutex
	seq     uint32         // the last request number handed out
	reading bool           // a caller holds the receive side
	pending []waiting      // callers without it, in request order
	spare   []*vclock.Slot // empty slots of callers that have returned
	err     error          // terminal failure: the connection is dead
}

// waiting is a caller parked for its reply. Its slot is filled with the
// reply, with recvTurn to hand it the receive side, or with the error
// that killed the connection; whoever fills it takes it off the pending
// list first, under the lock.
type waiting struct {
	seq  uint32
	slot *vclock.Slot
}

// recvTurn hands a waiting caller the receive side.
type recvTurn struct{}

func newDemuxConn(conn wire.Conn, clock vclock.Clock) *demuxConn {
	return &demuxConn{conn: conn, clock: clock}
}

// exchange performs one request/response round trip, bounded by
// timeout: every request this package sends goes through it, or
// through rpc, its twin that counts the request. It owns
// req.Seq: the number is the connection's, assigned here and nowhere
// else. Transport failures and timeouts are transient (wrapped stale);
// the reply — including KError — is returned unread: replyError reads
// it, and each caller attaches its own context to a fault. A caller that
// finds the receive side free takes it before it sends, and waits in
// no slot.
func (g *demuxConn) exchange(req *wire.Message, timeout time.Duration) (*wire.Message, error) {
	slot, deadline, err := g.send(req, timeout)
	if err != nil {
		return nil, err
	}
	return g.wait(req.Seq, slot, deadline, timeout)
}

// rpc is exchange for the requests of a Line or a Client: one that
// reaches the wire counts in schooner.client.rpcs, in the clock turn
// that sent it, so a metric window sees it where it left. A batch
// envelope, whose send and wait are apart (Client.CallBatch), counts
// the same way.
func (g *demuxConn) rpc(req *wire.Message, timeout time.Duration) (*wire.Message, error) {
	slot, deadline, err := g.send(req, timeout)
	if err != nil {
		return nil, err
	}
	trace.Count("schooner.client.rpcs")
	return g.wait(req.Seq, slot, deadline, timeout)
}

// send is exchange's first half: it numbers req, takes the receive
// side or, when another caller holds it, a slot to wait in, and puts
// req on the wire.
func (g *demuxConn) send(req *wire.Message, timeout time.Duration) (slot *vclock.Slot, deadline time.Time, err error) {
	if timeout > 0 {
		deadline = g.clock.Now().Add(timeout)
	}
	g.mu.Lock()
	if g.err != nil {
		err := g.err
		g.mu.Unlock()
		return nil, deadline, lost(err)
	}
	g.seq++
	req.Seq = g.seq
	if g.reading {
		if n := len(g.spare); n > 0 {
			slot, g.spare = g.spare[n-1], g.spare[:n-1]
		} else {
			slot = g.clock.NewSlot()
		}
		g.pending = append(g.pending, waiting{req.Seq, slot})
	}
	g.reading = true
	g.mu.Unlock()

	g.sendMu.Lock()
	err = g.conn.Send(req)
	g.sendMu.Unlock()
	if err != nil {
		// With nobody else reading, a dead peer shows only here.
		g.fail(err)
		return nil, deadline, &staleError{err}
	}
	return slot, deadline, nil
}

// wait is exchange's second half: seq's reply, from the caller's slot
// or read off the connection.
func (g *demuxConn) wait(seq uint32, slot *vclock.Slot, deadline time.Time, timeout time.Duration) (*wire.Message, error) {
	if slot != nil {
		x, ok := slot.WaitUntil(deadline)
		if !ok {
			g.abandon(seq, slot)
		}
		g.mu.Lock()
		g.spare = append(g.spare, slot) // empty now, and on no list
		g.mu.Unlock()
		if !ok {
			return nil, g.timeout(timeout)
		}
		switch x := x.(type) {
		case *wire.Message:
			return x, nil
		case error:
			return nil, lost(x)
		}
	}
	return g.read(seq, deadline, timeout)
}

// lost is the stale error of a request whose connection died, in the
// transport's own words.
func lost(err error) error { return &staleError{fmt.Errorf("schooner: connection lost: %w", err)} }

func (g *demuxConn) timeout(d time.Duration) error {
	return &staleError{&timeoutError{peer: g.conn.RemoteLabel(), d: d}}
}

// read holds the receive side until seq's reply arrives or the
// deadline passes, handing every other reply to its caller, and then
// passes the receive side on. A receive error other than the deadline
// kills the connection.
func (g *demuxConn) read(seq uint32, deadline time.Time, timeout time.Duration) (*wire.Message, error) {
	if err := g.conn.SetReadDeadline(deadline); err != nil {
		g.fail(err)
		return nil, &staleError{err}
	}
	for {
		m, err := g.conn.Recv()
		switch {
		case err == nil && m.Seq == seq:
			g.release()
			return m, nil
		case err == nil:
			g.mu.Lock()
			if i := g.find(m.Seq); i >= 0 {
				g.take(i).Fill(m)
			}
			g.mu.Unlock()
		case errors.Is(err, os.ErrDeadlineExceeded):
			g.release()
			return nil, g.timeout(timeout)
		default:
			g.fail(err)
			return nil, lost(err)
		}
	}
}

// find returns the index of seq's waiting caller, or -1 if it has none.
// The caller holds g.mu.
func (g *demuxConn) find(seq uint32) int {
	for i, w := range g.pending {
		if w.seq == seq {
			return i
		}
	}
	return -1
}

// take removes the i'th waiting caller and returns its slot. The
// caller holds g.mu.
func (g *demuxConn) take(i int) *vclock.Slot {
	slot := g.pending[i].slot
	g.pending = append(g.pending[:i], g.pending[i+1:]...)
	return slot
}

// release passes the receive side to the oldest waiting caller (the
// lowest seq, so a virtual run stays a function of its seed), or puts
// it down.
func (g *demuxConn) release() {
	g.mu.Lock()
	if len(g.pending) > 0 {
		g.take(0).Fill(recvTurn{})
	} else {
		g.reading = false
	}
	g.mu.Unlock()
}

// abandon withdraws a caller whose wait timed out. A slot filled in the
// meantime loses the race as a late reply does, except that a receive
// side handed to it is passed on.
func (g *demuxConn) abandon(seq uint32, slot *vclock.Slot) {
	g.mu.Lock()
	i := g.find(seq)
	if i >= 0 {
		g.take(i)
	}
	g.mu.Unlock()
	if i < 0 {
		if x, _ := slot.Wait(0); x == (recvTurn{}) {
			g.release()
		}
	}
}

// fail marks the connection dead and fails every waiting caller, in
// request order.
func (g *demuxConn) fail(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	for _, w := range g.pending {
		w.slot.Fill(g.err)
	}
	g.pending = nil
	g.mu.Unlock()
}

// call is a line's rpc with its reply read by replyError.
func (g *demuxConn) call(req *wire.Message, timeout time.Duration) (*wire.Message, error) {
	resp, err := g.rpc(req, timeout)
	if err == nil {
		err = replyError(resp)
	}
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// replyError reads a reply, and is the one place in this package that
// does: a KOK is nil, a KError is its text in its peer's words — stale
// when it is ErrProcessTerminated (the process died under a move or
// crash: rebind), final otherwise — and any other kind is a protocol
// error.
func replyError(resp *wire.Message) error {
	switch {
	case resp.Kind == wire.KOK:
		return nil
	case resp.Kind != wire.KError:
		return fmt.Errorf("schooner: unexpected %v reply", resp.Kind)
	case resp.Err == ErrProcessTerminated:
		return &staleError{errors.New(resp.Err)}
	}
	return errors.New(resp.Err)
}

// Close tears down the underlying connection; the caller holding the
// receive side fails, and with it every waiting caller.
func (g *demuxConn) Close() { g.conn.Close() }

// dead reports whether the connection hit a terminal failure.
// Timeouts are not terminal — a slow reply still arrives on a live
// connection — so dead distinguishes "the peer (or its connection) is
// gone" from "retry here".
func (g *demuxConn) dead() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err != nil
}

// sharedConn is a demultiplexed connection that its users dial on
// first use and again after it died. One caller at a time dials: the
// others park on the clock until that dial ends and take its
// connection or its error. No connection is opened only to be thrown
// away — to the Manager, a line's connection closing is the module
// failing — and no lock is held across the dial, so a virtual clock
// sees the waiters.
type sharedConn struct {
	addr  string // the peer, or a label naming it
	clock vclock.Clock

	mu     sync.Mutex
	conn   *demuxConn
	closed bool
	dialed *vclock.Slot // while a dial is in flight: filled with its dialResult
}

// dialResult is the outcome of a dial, handed to the callers that
// waited for it.
type dialResult struct {
	g   *demuxConn
	err error
}

// get returns the live connection, dialing it with dial when there is
// none and nobody else is.
func (s *sharedConn) get(dial func() (*demuxConn, error)) (*demuxConn, error) {
	s.mu.Lock()
	if g, err := s.live(); g != nil || err != nil {
		s.mu.Unlock()
		return g, err
	}
	if slot := s.dialed; slot != nil {
		s.mu.Unlock() // a dial is in flight: wait for its outcome
		x, ok := slot.Await()
		if !ok {
			return nil, &staleError{fmt.Errorf("schooner: clock stopped while dialing %s", s.addr)}
		}
		r := x.(dialResult)
		return r.g, r.err
	}
	slot := s.clock.NewSlot()
	s.dialed = slot
	s.mu.Unlock()

	g, err := dial()
	s.mu.Lock()
	s.dialed = nil
	old := s.conn
	if err == nil {
		s.conn = g
	}
	s.mu.Unlock()
	if err == nil && old != nil {
		old.Close() // dead already
	}
	slot.Fill(dialResult{g, err})
	return g, err
}

// live returns the connection if there is a usable one, an error once
// closed, and neither when it has to be dialed. The caller holds s.mu.
func (s *sharedConn) live() (*demuxConn, error) {
	if s.closed {
		return nil, &staleError{fmt.Errorf("schooner: connection to %s invalidated", s.addr)}
	}
	if s.conn != nil && !s.conn.dead() {
		return s.conn, nil
	}
	return nil, nil
}

// close ends the connection for good; requests in flight on it fail
// stale. A dial in flight is waited for, and the connection it opened
// closed with the rest.
func (s *sharedConn) close() {
	s.mu.Lock()
	s.closed = true
	slot := s.dialed
	s.mu.Unlock()
	if slot != nil {
		slot.Await()
	}
	s.mu.Lock()
	g := s.conn
	s.conn = nil
	s.mu.Unlock()
	if g != nil {
		g.Close()
	}
}

// connTable keeps one sharedConn per address, dialed on first use:
// the Manager's health probes, a standby's leader heartbeat and a
// Client's per-machine Server connections. The zero value is empty and
// ready; close empties it.
type connTable struct {
	mu    sync.Mutex
	conns map[string]*sharedConn
}

// get returns the live connection to addr, dialing it from one host
// when there is none. A new entry keeps time on the transport's clock,
// read once.
func (t *connTable) get(tr Transport, from, addr string) (*demuxConn, error) {
	t.mu.Lock()
	s := t.conns[addr]
	if s == nil {
		if t.conns == nil {
			t.conns = make(map[string]*sharedConn)
		}
		s = &sharedConn{addr: addr, clock: tr.Clock()}
		t.conns[addr] = s
	}
	t.mu.Unlock()
	return s.get(func() (*demuxConn, error) { return dial(tr, s.clock, from, addr) })
}

// drop closes addr's connection and forgets it, so the next get dials
// afresh.
func (t *connTable) drop(addr string) {
	t.mu.Lock()
	s := t.conns[addr]
	delete(t.conns, addr)
	t.mu.Unlock()
	if s != nil {
		s.close()
	}
}

// close closes every connection in the table and empties it.
func (t *connTable) close() {
	t.mu.Lock()
	conns := t.conns
	t.conns = nil
	t.mu.Unlock()
	for _, s := range conns {
		s.close()
	}
}

// binding caches the location of one remote procedure: the paper's
// per-procedure name cache, refreshed lazily when a call to a stale
// address fails after a move. Every call to the procedure rides the
// binding's one pipelined connection; invalidating the binding closes
// it, and the calls in flight on it retry against the rebound address.
type binding struct {
	exportName string
	sharedConn // to addr, the procedure process
}

// ID returns the Manager-assigned line id.
func (l *Line) ID() uint32 { return l.id }

// Module returns the module name the line registered under.
func (l *Line) Module() string { return l.module }

// managerCall performs one request/response with the Manager, bounded
// by the line's call deadline. A KStartProc is bounded by the deadline
// plus the Manager's whole spawn budget, so the Manager's own retry of
// a lost spawn message can still answer it.
func (l *Line) managerCall(req *wire.Message) (*wire.Message, error) {
	if l.isQuit() {
		return nil, fmt.Errorf("schooner: line %d already quit", l.id)
	}
	timeout := l.policy.Timeout
	if req.Kind == wire.KStartProc && timeout > 0 {
		timeout += spawnAttempts * rpcTimeout
	}
	return l.askManager(req, timeout)
}

// askManager is one round trip on the line's Manager connection, with
// no lock held. A connection that turns out dead — the Manager crashed,
// or a standby took over on another host — is got again, which
// re-attaches the line, and the request sent once more; when no Manager
// takes the line back, the first failure stands.
func (l *Line) askManager(req *wire.Message, timeout time.Duration) (*wire.Message, error) {
	g, err := l.mgr.get(l.attach)
	if err != nil {
		// Nothing was sent: as transient as the dead connection it
		// stands for.
		return nil, &staleError{err}
	}
	resp, err := g.call(req, timeout)
	if err == nil || !g.dead() {
		return resp, err
	}
	if g, aerr := l.mgr.get(l.attach); aerr == nil {
		return g.call(req, timeout)
	}
	return nil, err
}

// attach dials the line's Manager connection anew: it asks each
// configured Manager host in turn to take the line back (KAttachLine).
func (l *Line) attach() (*demuxConn, error) {
	g, _, mh, err := l.client.openLine(l.clock,
		&wire.Message{Kind: wire.KAttachLine, Line: l.id, Name: l.module}, l.policy.Timeout)
	if err != nil {
		return nil, err
	}
	trace.Count("schooner.client.reattaches")
	flight.Record(flight.Event{Kind: flight.KindRebind, Component: "client",
		Host: l.client.Host, Line: l.id, Name: l.module, Detail: "manager " + mh})
	logx.For("client", l.client.Host).Info("line reattached to manager",
		"line", l.id, "manager", mh)
	return g, nil
}

// StartRemote asks the Manager to instantiate the procedure file at
// path on the given machine and add its exports to this line. The
// machine and path are exactly what the user selects with the module's
// radio-button and type-in widgets.
func (l *Line) StartRemote(path, machineName string) error {
	return l.start(l.id, "start ", path, machineName)
}

// StartShared asks the Manager to instantiate the procedure file as a
// shared procedure, available to every line. The process is not part
// of this line and survives this line's shutdown.
func (l *Line) StartShared(path, machineName string) error {
	return l.start(0, "start shared ", path, machineName)
}

// start asks the Manager to instantiate path on machineName into line
// id's database (0: the shared one); a traced start is the span named
// span+path+" on "+machineName.
func (l *Line) start(id uint32, span, path, machineName string) error {
	var sp *trace.Span
	if trace.Enabled() {
		sp = trace.StartSpan(span+path+" on "+machineName, l.client.Host)
		defer sp.End()
	}
	req := &wire.Message{Kind: wire.KStartProc, Line: id, Name: path, Str: machineName}
	inject(req, sp)
	_, err := l.managerCall(req)
	return err
}

// Import registers the import specification this module was compiled
// against for one procedure; Call uses it for marshaling and the
// Manager type-checks it against the export at bind time.
func (l *Line) Import(spec *uts.ProcSpec) error {
	if spec == nil {
		return fmt.Errorf("schooner: nil import specification")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.imports[spec.Name]; dup {
		return fmt.Errorf("schooner: import %q already registered in line %d", spec.Name, l.id)
	}
	l.imports[spec.Name] = spec.Clone(false)
	return nil
}

// ImportFile registers every import declaration in a specification
// file.
func (l *Line) ImportFile(f *uts.SpecFile) error {
	for _, p := range f.Imports() {
		if err := l.Import(p); err != nil {
			return err
		}
	}
	return nil
}

// lookup binds a procedure name by asking the Manager. When several
// goroutines miss the cache simultaneously, the first to install a
// binding wins and the others adopt it. The lookup round trip is
// traced as a child of sp, so rebinds show up on the call's timeline.
func (l *Line) lookup(name string, imp *uts.ProcSpec, sp *trace.Span) (*binding, error) {
	var ls *trace.Span
	if sp != nil {
		ls = sp.Child("lookup "+name, l.client.Host)
	}
	req := &wire.Message{
		Kind: wire.KLookup, Line: l.id, Name: name,
		Data: []byte(imp.String()),
	}
	inject(req, ls)
	resp, err := l.managerCall(req)
	if ls != nil {
		if err != nil {
			ls.Annotate("error", err.Error())
		}
		ls.End()
	}
	if err != nil {
		return nil, err
	}
	ctx := ls.Context()
	if ctx.Trace == 0 {
		ctx = sp.Context()
	}
	flight.Record(flight.Event{Kind: flight.KindBind, Component: "client",
		Host: l.client.Host, Line: l.id, Trace: ctx.Trace, Span: ctx.Span,
		Name: name, Detail: resp.Str})
	nb := &binding{exportName: resp.Name, sharedConn: sharedConn{addr: resp.Str, clock: l.clock}}
	l.mu.Lock()
	if cur, ok := l.bindings[name]; ok {
		l.mu.Unlock()
		return cur, nil
	}
	l.bindings[name] = nb
	l.mu.Unlock()
	return nb, nil
}

// invalidate drops a stale binding from the cache (unless a concurrent
// rebind already replaced it) and closes its connection.
func (l *Line) invalidate(name string, b *binding) {
	l.mu.Lock()
	if l.bindings[name] == b {
		delete(l.bindings, name)
	}
	l.mu.Unlock()
	b.close()
	flight.Record(flight.Event{Kind: flight.KindRebind, Component: "client",
		Host: l.client.Host, Line: l.id, Name: name, Detail: b.addr})
}

// Call invokes the named remote procedure with the given arguments
// bound to its in-parameters (val and var, in declaration order), and
// returns the out-parameters (res and var, in declaration order).
//
// The data path models the full heterogeneous conversion: arguments
// pass through this machine's native representation, the UTS
// interchange format, and the remote machine's native representation;
// results make the reverse trip.
//
// Fault tolerance: every attempt is bounded by the line's CallPolicy
// deadline, so a Call can never hang on a lost message or a partition.
// Transient wire failures — transport errors, timeouts, terminated
// processes, unreachable mappings — invalidate the cached binding,
// re-ask the Manager (the lazy cache-invalidation protocol of section
// 4.2, which also discovers Manager-initiated failover placements) and
// retry with jittered exponential backoff, up to the policy's retry
// budget. Application errors from the procedure are surfaced
// immediately and never retried.
//
// Concurrency: calls from multiple goroutines proceed in parallel on
// the wire; no lock is held across the round trip or the backoff
// sleep.
//
// Tracing: when a span recorder is installed (trace.Enabled), every
// call allocates a root span carried to the remote side in the wire
// envelope, with one child span per network attempt and annotations
// for retries, rebinds, timeouts, and failover rebinds. Disabled
// tracing costs one atomic load and no allocations.
func (l *Line) Call(name string, args ...uts.Value) ([]uts.Value, error) {
	start := l.clock.Now()
	var sp *trace.Span
	if trace.Enabled() {
		sp = trace.StartSpan("call "+name, l.client.Host)
	}
	res, err := l.call(name, args, sp)
	d := l.clock.Since(start)
	trace.Observe("schooner.client.call", d)
	if tseries.Enabled() {
		// Tail-latency exemplar capture: the active sampler keeps the
		// slowest calls of each window with their span IDs, so a p99
		// spike in a report links back to the exact spans.
		ctx := sp.Context()
		tseries.Observe("schooner.client.call", d, ctx.Trace, ctx.Span)
		if sp != nil {
			tseries.Observe(trace.LKey("schooner.client.call", trace.Label{Key: "proc", Value: name}), d, ctx.Trace, ctx.Span)
		}
	}
	if sp != nil {
		trace.Observe(trace.LKey("schooner.client.call", trace.Label{Key: "proc", Value: name}), d)
		trace.Count(trace.LKey("schooner.client.calls", trace.Label{Key: "line", Value: strconv.FormatUint(uint64(l.id), 10)}))
		if err != nil {
			sp.Annotate("error", err.Error())
		}
		sp.End()
	}
	tally(err)
	if err != nil {
		ctx := sp.Context()
		flight.Record(flight.Event{Kind: flight.KindCallFail, Component: "client",
			Host: l.client.Host, Line: l.id, Trace: ctx.Trace, Span: ctx.Span,
			Name: name, Detail: err.Error()})
		logx.For("client", l.client.Host).Warn("call failed",
			append([]any{"proc", name, "line", l.id, "err", err}, logx.Span(ctx)...)...)
		return nil, err
	}
	return res, nil
}

// tally counts one finished call, however it was dispatched: alone or
// as a member of a batch.
func tally(err error) {
	if err != nil {
		trace.Count("schooner.client.call_failures")
	} else {
		trace.Count("schooner.client.calls")
	}
}

// Pending is an in-flight asynchronous call started with Go, or a call
// of a batch (Client.CallBatch).
type Pending struct {
	// done is signalled once res and err are set; it is nil for a call
	// that was complete before its Pending was returned.
	done *vclock.Slot
	res  []uts.Value
	err  error
}

// complete publishes the call's outcome to Wait.
func (p *Pending) complete(res []uts.Value, err error) {
	p.res, p.err = res, err
	p.done.Fill(nil)
}

// Wait blocks until the call completes and returns its results, with
// the same semantics as a synchronous Call. It may be called more than
// once, from any goroutine.
func (p *Pending) Wait() ([]uts.Value, error) {
	if p.done != nil {
		if _, ok := p.done.Await(); !ok {
			return nil, errors.New("schooner: clock stopped under a pending call")
		}
	}
	return p.res, p.err
}

// Go begins an asynchronous call on the line and returns immediately.
// The call runs with the full Call machinery — deadlines, retries,
// stale-cache rebind, failover discovery — and overlaps with any other
// calls in flight on the line.
func (l *Line) Go(name string, args ...uts.Value) *Pending {
	p := &Pending{done: l.clock.NewSlot()}
	l.clock.Go("schooner.Line.Go", func() { p.complete(l.Call(name, args...)) })
	return p
}

// call is the retry machine behind Call and Go. sp is the call's root
// span (nil when tracing is disabled): each network attempt becomes a
// child of it, so a retried call keeps one trace id across attempts
// and a failover-rebound attempt stays linked to the original parent.
func (l *Line) call(name string, args []uts.Value, sp *trace.Span) ([]uts.Value, error) {
	imp, data, err := l.prepare(name, args)
	if err != nil {
		return nil, err
	}
	pol := l.policy

	var lastErr error
	rebinding := false
	prevAddr := "" // address of the binding the last failure used
	for attempt := 0; attempt <= pol.MaxRetries; attempt++ {
		if attempt > 0 {
			trace.Count("schooner.client.retries")
			ctx := sp.Context()
			flight.Record(flight.Event{Kind: flight.KindCallRetry, Component: "client",
				Host: l.client.Host, Line: l.id, Trace: ctx.Trace, Span: ctx.Span,
				Name: name, Detail: lastErr.Error()})
			logx.For("client", l.client.Host).Debug("retrying call",
				append([]any{"proc", name, "attempt", attempt, "err", lastErr}, logx.Span(ctx)...)...)
			if sp != nil {
				sp.Annotate("retry."+strconv.Itoa(attempt), lastErr.Error())
				trace.Count(trace.LKey("schooner.client.retries", trace.Label{Key: "proc", Value: name}))
			}
			// The backoff sleep runs with no locks held: other
			// goroutines' calls on this line proceed during it.
			l.clock.Sleep(pol.backoffFor(attempt-1, l.client.Transport.Jitter()))
		}
		l.mu.Lock()
		if l.quit {
			l.mu.Unlock()
			return nil, fmt.Errorf("schooner: line %d already quit", l.id)
		}
		b := l.bindings[name]
		l.mu.Unlock()
		if b == nil {
			if rebinding {
				trace.Count("schooner.client.rebinds")
			}
			b, err = l.lookup(name, imp, sp)
			if err != nil {
				if !isStale(err) {
					return nil, err
				}
				// A transient lookup failure — the Manager briefly
				// unreachable, or the name mapped to a machine that is
				// mid-crash — is retried exactly like a stale call.
				// This is the first-bind retry path; it counts toward
				// rebinds on the next attempt via the flag above.
				lastErr, rebinding = err, true
				continue
			}
			if sp != nil && rebinding {
				sp.Annotate("rebind", "rebound to "+b.addr)
				if prevAddr != "" && b.addr != prevAddr {
					// The name came back mapped somewhere else: a Move
					// or a Manager failover placed it on a new machine.
					sp.Annotate("failover", prevAddr+" -> "+b.addr)
				}
			}
		}
		reply, err := l.callPipelined(name, b, imp, data, pol.Timeout, sp)
		if err == nil {
			return l.decodeResults(imp, reply)
		}
		if !isStale(err) {
			return nil, err
		}
		// Stale cache: the procedure moved, died, or the wire failed.
		// Drop the binding; the next attempt re-asks the Manager.
		lastErr, prevAddr, rebinding = err, b.addr, true
		l.invalidate(name, b)
		trace.Count("schooner.client.stale")
	}
	return nil, fmt.Errorf("schooner: call to %q failed after %d attempts: %w", name, pol.MaxRetries+1, lastErr)
}

// prepare is the marshaling front half shared by Call and a batch: it
// resolves the import specification and converts the arguments through
// this machine's native representation into the UTS interchange
// format.
func (l *Line) prepare(name string, args []uts.Value) (*uts.ProcSpec, []byte, error) {
	l.mu.Lock()
	if l.quit {
		l.mu.Unlock()
		return nil, nil, fmt.Errorf("schooner: line %d already quit", l.id)
	}
	imp, ok := l.imports[name]
	l.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("schooner: no import specification registered for %q", name)
	}
	arch, err := l.client.arch()
	if err != nil {
		return nil, nil, err
	}
	ins := imp.InParams()
	if len(args) != len(ins) {
		return nil, nil, fmt.Errorf("schooner: %s takes %d in-parameters, got %d", name, len(ins), len(args))
	}
	// Outbound conversion: native -> UTS, fused with the encoding.
	data, bad, err := marshalNative(arch, ins, args, nil, uts.ParamsSize(ins))
	if bad >= 0 {
		return nil, nil, fmt.Errorf("schooner: parameter %q: %w", ins[bad].Name, err)
	}
	if err != nil {
		return nil, nil, err
	}
	return imp, data, nil
}

// decodeResults is the unmarshaling back half shared by Call and a
// batch: UTS interchange bytes -> this machine's native values.
func (l *Line) decodeResults(imp *uts.ProcSpec, reply []byte) ([]uts.Value, error) {
	arch, err := l.client.arch()
	if err != nil {
		return nil, err
	}
	// Inbound conversion: UTS -> native, fused with the decoding.
	outs := imp.OutParams()
	results, bad, err := uts.DecodeParamsNative(reply, outs, arch, nil)
	if bad >= 0 {
		return nil, fmt.Errorf("schooner: result %q: %w", outs[bad].Name, err)
	}
	if err != nil {
		return nil, err
	}
	return results, nil
}

// callPipelined is one attempt at a call: a round trip on the binding's
// shared demultiplexed connection, where the request overlaps every
// other call in flight to the process. A timeout abandons the reply but
// leaves the connection open for those (the caller invalidates the
// binding, which closes it for everyone — the retry machinery
// re-binds). An attempt that gets as far as the wire is a child span of
// sp, whose context rides in the request envelope.
func (l *Line) callPipelined(name string, b *binding, imp *uts.ProcSpec, data []byte, timeout time.Duration, sp *trace.Span) ([]byte, error) {
	pc, err := b.get(func() (*demuxConn, error) { return dial(l.client.Transport, l.clock, l.client.Host, b.addr) })
	if err != nil {
		return nil, err
	}
	var att *trace.Span
	var attStart time.Time
	if sp != nil {
		att = sp.Child("attempt "+name, l.client.Host)
		att.Annotate("addr", b.addr)
		attStart = l.clock.Now()
	}
	// The flight recorder sees every attempt even when tracing is
	// off: one ring append, no allocation (all fields are strings
	// the call already holds).
	ctx := sp.Context()
	flight.Record(flight.Event{Kind: flight.KindCallAttempt, Component: "client",
		Host: l.client.Host, Line: l.id, Trace: ctx.Trace, Span: ctx.Span,
		Name: name, Detail: b.addr})
	req := &wire.Message{
		Kind: wire.KCall, Line: l.id,
		Name: b.exportName, Str: imp.Signature(), Data: data,
	}
	inject(req, att)
	resp, err := pc.rpc(req, timeout)
	if err != nil && errors.As(err, new(*timeoutError)) {
		trace.Count("schooner.client.timeouts")
		att.Annotate("timeout", timeout.String())
	}
	var reply []byte
	if err == nil {
		if err = replyError(resp); err == nil {
			reply = resp.Data
		}
	}
	if att != nil {
		if err != nil {
			att.Annotate("error", err.Error())
		} else {
			host := addrHost(b.addr)
			d := l.clock.Since(attStart)
			trace.Observe(trace.LKey("schooner.client.call", trace.Label{Key: "host", Value: host}), d)
			trace.Count(trace.LKey("schooner.client.calls", trace.Label{Key: "host", Value: host}))
			if tseries.Enabled() {
				actx := att.Context()
				tseries.Observe(trace.LKey("schooner.client.call", trace.Label{Key: "host", Value: host}), d, actx.Trace, actx.Span)
			}
		}
		att.End()
	}
	return reply, err
}

// staleError marks failures that may be cured by re-binding.
type staleError struct{ err error }

func (e *staleError) Error() string { return e.err.Error() }
func (e *staleError) Unwrap() error { return e.err }

// isStale reports whether an error (anywhere in its chain) marks a
// stale binding. errors.As, not a direct type assertion: callers wrap
// stale errors with context, and a wrapped stale error must still
// trigger the rebind path.
func isStale(err error) bool {
	var se *staleError
	return errors.As(err, &se)
}

// FlushCache drops every cached procedure binding, forcing the next
// call to each procedure to re-ask the Manager. Exists for the
// name-cache ablation experiments; normal programs never need it.
func (l *Line) FlushCache() {
	l.mu.Lock()
	old := l.bindings
	l.bindings = make(map[string]*binding)
	l.mu.Unlock()
	for _, b := range old {
		b.close()
	}
}

// Move asks the Manager to relocate the named procedure's process to a
// new machine. With withState set, the procedure's declared state
// variables are transferred; otherwise the procedure must be stateless
// (the fresh copy starts from its initial state).
func (l *Line) Move(name, newMachine string, withState bool) error {
	var data []byte
	if withState {
		data = []byte("state")
	}
	var sp *trace.Span
	if trace.Enabled() {
		sp = trace.StartSpan("move "+name+" to "+newMachine, l.client.Host)
		defer sp.End()
	}
	req := &wire.Message{Kind: wire.KMove, Line: l.id, Name: name, Str: newMachine, Data: data}
	inject(req, sp)
	_, err := l.managerCall(req)
	// The cached binding is now stale. As in the paper, caches update
	// lazily: the next call to the old location fails, resulting in an
	// automatic re-ask of the Manager.
	return err
}

// MoveShared relocates a shared procedure; all lines' future calls
// follow it.
func (l *Line) MoveShared(name, newMachine string, withState bool) error {
	var data []byte
	if withState {
		data = []byte("state")
	}
	_, err := l.managerCall(&wire.Message{Kind: wire.KMove, Line: 0, Name: name, Str: newMachine, Data: data})
	return err
}

// IQuit is sch_i_quit: the module is being destroyed. The Manager
// shuts down the remote procedures of this line only; other lines and
// shared procedures are unaffected. Calls still in flight when IQuit
// runs fail with a quit or connection error. A Manager connection found
// dead is re-attached, so that the line is quit at whichever Manager now
// owns it.
func (l *Line) IQuit() error {
	l.mu.Lock()
	if l.quit {
		l.mu.Unlock()
		return nil
	}
	l.quit = true
	old := l.bindings
	l.bindings = make(map[string]*binding)
	l.mu.Unlock()
	for _, b := range old {
		b.close()
	}
	_, err := l.askManager(&wire.Message{Kind: wire.KQuitLine, Line: l.id}, l.policy.Timeout)
	l.mgr.close()
	return err
}
