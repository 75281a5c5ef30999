package schooner

import (
	"errors"
	"fmt"
	"sort"
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

	// mu guards the cross-line batching state: the cached per-host
	// Server connections GoBatchHosts coalesces onto, and their
	// sequence counter.
	mu       sync.Mutex
	srvConns map[string]*demuxConn
	batchSeq uint32
}

// serverConn returns the client's shared demultiplexed connection to a
// machine's Server, dialing on first use or after the previous one
// died.
func (c *Client) serverConn(host string) (*demuxConn, error) {
	c.mu.Lock()
	if g := c.srvConns[host]; g != nil && !g.dead() {
		c.mu.Unlock()
		return g, nil
	}
	c.mu.Unlock()
	conn, err := c.Transport.Dial(c.Host, host+":"+ServerPort)
	if err != nil {
		return nil, &staleError{fmt.Errorf("schooner: cannot reach server on %s: %w", host, err)}
	}
	fresh := newDemuxConn(conn)
	c.mu.Lock()
	if g := c.srvConns[host]; g != nil && !g.dead() {
		c.mu.Unlock()
		fresh.Close()
		return g, nil
	}
	if c.srvConns == nil {
		c.srvConns = make(map[string]*demuxConn)
	}
	old := c.srvConns[host]
	c.srvConns[host] = fresh
	c.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return fresh, nil
}

// nextBatchSeq allocates a sequence number for the client's Server
// connections, on which sub-requests from many lines interleave.
func (c *Client) nextBatchSeq() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.batchSeq++
	return c.batchSeq
}

// Close releases the client's cached Server connections (the cross-
// line batch path). Lines opened through the client are unaffected;
// quit them individually with IQuit.
func (c *Client) Close() {
	c.mu.Lock()
	conns := c.srvConns
	c.srvConns = nil
	c.mu.Unlock()
	for _, g := range conns {
		g.Close()
	}
}

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
// starting, calling, moving, and shutting down remote procedures.
func (c *Client) ContactSchx(module string) (*Line, error) {
	var lastErr error
	for _, mh := range c.managerHosts() {
		conn, id, err := c.registerAt(mh, module)
		if err != nil {
			lastErr = err
			continue
		}
		return &Line{
			client:   c,
			id:       id,
			module:   module,
			mgr:      newDemuxConn(conn),
			policy:   c.Policy,
			imports:  make(map[string]*uts.ProcSpec),
			bindings: make(map[string]*binding),
		}, nil
	}
	return nil, lastErr
}

// registerAt opens a new line with the Manager on one host.
func (c *Client) registerAt(managerHost, module string) (wire.Conn, uint32, error) {
	conn, err := c.Transport.Dial(c.Host, managerHost+":"+ManagerPort)
	if err != nil {
		return nil, 0, fmt.Errorf("schooner: cannot reach manager on %s: %w", managerHost, err)
	}
	if err := conn.Send(&wire.Message{Kind: wire.KRegisterLine, Name: module}); err != nil {
		conn.Close()
		return nil, 0, err
	}
	resp, err := conn.Recv()
	if err != nil {
		conn.Close()
		return nil, 0, err
	}
	if resp.Kind != wire.KLineOK {
		conn.Close()
		return nil, 0, fmt.Errorf("schooner: register failed: %s", resp.Err)
	}
	return conn, resp.Line, nil
}

// Line is one thread of control in a Schooner program: a sequential
// execution of procedures, some of which may be located on remote
// machines. Lines execute independently of each other with no
// synchronization; procedure names are unique within a line but may
// repeat across lines.
//
// A Line is safe for concurrent use: any number of goroutines may
// issue Call and Go through it, and the in-flight calls overlap on the
// wire (each leases its own connection to the procedure process). The
// mutex guards only the binding cache, the import table, and the
// sequence-number bookkeeping — it is never held across a network
// round trip or a backoff sleep.
type Line struct {
	client *Client
	id     uint32
	module string

	mu       sync.Mutex
	mgr      *demuxConn
	mgrGen   int // bumped on every reattach; guards the swap race
	seq      uint32
	policy   CallPolicy
	imports  map[string]*uts.ProcSpec
	bindings map[string]*binding
	quit     bool
}

// SetCallPolicy overrides the line's call policy (inherited from the
// client at ContactSchx time).
func (l *Line) SetCallPolicy(p CallPolicy) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.policy = p
}

// nextSeq allocates a request sequence number.
func (l *Line) nextSeq() uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	return l.seq
}

// currentPolicy reads the line's policy with defaults applied.
func (l *Line) currentPolicy() CallPolicy {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.policy.withDefaults()
}

// isQuit reports whether the line has been shut down.
func (l *Line) isQuit() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.quit
}

// mgrc reads the current Manager connection and its generation.
func (l *Line) mgrc() (*demuxConn, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mgr, l.mgrGen
}

// demuxConn multiplexes one shared connection across concurrently
// calling goroutines: requests carry a sequence number, the peer echoes
// it in every reply, and a reader goroutine routes each reply to the
// goroutine whose request carried that number. It is both the line's
// Manager connection and — since servers and procedure processes
// learned to reply out of order — the pipelined procedure-call path:
// any number of requests may be in flight on the same connection at
// once. On a deadline, the waiter abandons its pending entry but the
// connection stays open — a late reply to an abandoned seq is simply
// discarded.
type demuxConn struct {
	conn wire.Conn

	// sendMu serializes frames onto the shared connection.
	sendMu sync.Mutex

	mu      sync.Mutex
	pending map[uint32]*vclock.Slot // filled with the reply, or nil when the connection dies
	err     error                   // terminal receive failure: the connection is dead
}

func newDemuxConn(conn wire.Conn) *demuxConn {
	g := &demuxConn{conn: conn, pending: make(map[uint32]*vclock.Slot)}
	clk().Go("schooner.demuxConn.readLoop", g.readLoop)
	return g
}

// readLoop dispatches replies by echoed sequence number. Replies whose
// waiter already gave up are discarded. A receive error is terminal:
// every pending and future waiter fails.
func (g *demuxConn) readLoop() {
	for {
		m, err := g.conn.Recv()
		if err != nil {
			g.mu.Lock()
			g.err = err
			lost := g.pending
			g.pending = nil
			g.mu.Unlock()
			// Waiters fail in request order, so what they do next does
			// not depend on map iteration.
			seqs := make([]uint32, 0, len(lost))
			for seq := range lost {
				seqs = append(seqs, seq)
			}
			sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
			for _, seq := range seqs {
				lost[seq].Fill(nil)
			}
			return
		}
		g.mu.Lock()
		slot, ok := g.pending[m.Seq]
		if ok {
			delete(g.pending, m.Seq)
		}
		g.mu.Unlock()
		if ok {
			slot.Fill(m)
		}
	}
}

func (g *demuxConn) forget(seq uint32) {
	g.mu.Lock()
	delete(g.pending, seq)
	g.mu.Unlock()
}

// exchange performs one request/response round trip, bounded by
// timeout. Transport failures and timeouts are transient (wrapped
// stale); the reply — including KError — is returned uninterpreted,
// because Manager and procedure callers attach different meanings to
// an error reply.
func (g *demuxConn) exchange(req *wire.Message, timeout time.Duration) (*wire.Message, error) {
	g.mu.Lock()
	if g.err != nil {
		err := g.err
		g.mu.Unlock()
		return nil, &staleError{fmt.Errorf("schooner: shared connection lost: %w", err)}
	}
	slot := clk().NewSlot()
	g.pending[req.Seq] = slot
	g.mu.Unlock()

	g.sendMu.Lock()
	err := g.conn.Send(req)
	g.sendMu.Unlock()
	if err != nil {
		g.forget(req.Seq)
		return nil, &staleError{err}
	}
	trace.Count("schooner.client.rpcs")

	resp, ok := slot.Wait(timeout)
	if !ok {
		g.forget(req.Seq)
		return nil, &staleError{&timeoutError{peer: g.conn.RemoteLabel(), d: timeout}}
	}
	if resp == nil {
		return nil, &staleError{errors.New("schooner: shared connection lost")}
	}
	return resp.(*wire.Message), nil
}

// call is exchange with the Manager's error convention applied: a
// KError reply is an application error and final.
func (g *demuxConn) call(req *wire.Message, timeout time.Duration) (*wire.Message, error) {
	resp, err := g.exchange(req, timeout)
	if err != nil {
		return nil, err
	}
	if resp.Kind == wire.KError {
		return nil, fmt.Errorf("%s", resp.Err)
	}
	return resp, nil
}

// Close tears down the underlying connection; the reader goroutine
// exits and pending waiters fail.
func (g *demuxConn) Close() { g.conn.Close() }

// dead reports whether the connection hit a terminal receive failure.
// Timeouts are not terminal — a slow reply still arrives on a live
// connection — so dead distinguishes "the peer (or its connection) is
// gone" from "retry here".
func (g *demuxConn) dead() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err != nil
}

// binding caches the location of one remote procedure: the paper's
// per-procedure name cache, refreshed lazily when a call to a stale
// address fails after a move.
//
// The default data path is one shared pipelined connection per binding
// (pipe): concurrent calls ride it together, matched to their replies
// by sequence number, because procedure processes dispatch requests
// out of order. For peers that serve a connection strictly
// sequentially (CallPolicy.NoPipeline), connections are instead leased
// per in-flight call and pooled for reuse between calls; the pool is
// capped at maxIdleConns so a burst of N concurrent calls cannot pin N
// connections forever.
type binding struct {
	addr       string
	exportName string

	mu    sync.Mutex
	idle  []wire.Conn
	pipe  *demuxConn
	stale bool
}

// maxIdleConns caps each binding's leased-connection pool. Beyond it,
// released connections are closed: a 64-way burst briefly dials 64
// conns, but the pool settles back to this bound.
const maxIdleConns = 4

// pipeline returns the binding's shared demuxed connection, dialing it
// on first use or after the previous one died. Dialing happens outside
// the binding lock; when several goroutines race to establish it, the
// first to install wins and the others' dials are closed.
func (b *binding) pipeline(t Transport, from, name string) (*demuxConn, error) {
	b.mu.Lock()
	if b.stale {
		b.mu.Unlock()
		return nil, &staleError{fmt.Errorf("schooner: binding for %q invalidated", name)}
	}
	if b.pipe != nil && !b.pipe.dead() {
		p := b.pipe
		b.mu.Unlock()
		return p, nil
	}
	b.mu.Unlock()
	conn, err := t.Dial(from, b.addr)
	if err != nil {
		// Transient: the mapped host may be mid-crash, with the
		// Manager's failover about to repoint the name; retry.
		return nil, &staleError{fmt.Errorf("schooner: procedure %q mapped to unreachable %s: %w", name, b.addr, err)}
	}
	fresh := newDemuxConn(conn)
	b.mu.Lock()
	if b.stale {
		b.mu.Unlock()
		fresh.Close()
		return nil, &staleError{fmt.Errorf("schooner: binding for %q invalidated", name)}
	}
	if b.pipe != nil && !b.pipe.dead() {
		p := b.pipe
		b.mu.Unlock()
		fresh.Close()
		return p, nil
	}
	old := b.pipe
	b.pipe = fresh
	b.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return fresh, nil
}

// lease hands out a pooled idle connection or dials a fresh one.
func (b *binding) lease(t Transport, from, name string) (wire.Conn, error) {
	b.mu.Lock()
	if n := len(b.idle); n > 0 {
		conn := b.idle[n-1]
		b.idle = b.idle[:n-1]
		b.mu.Unlock()
		return conn, nil
	}
	b.mu.Unlock()
	conn, err := t.Dial(from, b.addr)
	if err != nil {
		// Transient: the mapped host may be mid-crash, with the
		// Manager's failover about to repoint the name; retry.
		return nil, &staleError{fmt.Errorf("schooner: procedure %q mapped to unreachable %s: %w", name, b.addr, err)}
	}
	return conn, nil
}

// release returns a healthy connection to the pool, unless the binding
// was invalidated while the call was in flight or the pool is already
// at its cap (the overflow of a call burst is closed, not pooled).
func (b *binding) release(conn wire.Conn) {
	b.mu.Lock()
	if b.stale || len(b.idle) >= maxIdleConns {
		evict := !b.stale
		b.mu.Unlock()
		conn.Close()
		if evict {
			trace.Count("schooner.client.pool_evictions")
		}
		return
	}
	b.idle = append(b.idle, conn)
	b.mu.Unlock()
}

// markStale invalidates the binding and closes its pooled and
// pipelined connections; calls in flight on them fail stale and retry
// against the rebound address.
func (b *binding) markStale() {
	b.mu.Lock()
	b.stale = true
	idle := b.idle
	b.idle = nil
	pipe := b.pipe
	b.pipe = nil
	b.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
	if pipe != nil {
		pipe.Close()
	}
}

// ID returns the Manager-assigned line id.
func (l *Line) ID() uint32 { return l.id }

// Module returns the module name the line registered under.
func (l *Line) Module() string { return l.module }

// managerCall performs one request/response with the Manager, bounded
// by the line's call deadline. The sequence number is allocated under
// the line lock; the round trip itself runs on the demultiplexed
// Manager connection with no lock held. A terminally dead connection
// — the Manager crashed, or a standby took over on another host — is
// cured by re-attaching the line and retrying the request once.
func (l *Line) managerCall(req *wire.Message) (*wire.Message, error) {
	if l.isQuit() {
		return nil, fmt.Errorf("schooner: line %d already quit", l.id)
	}
	g, gen := l.mgrc()
	timeout := l.currentPolicy().Timeout
	req.Seq = l.nextSeq()
	resp, err := g.call(req, timeout)
	if err == nil || !g.dead() {
		return resp, err
	}
	fresh, _, aerr := l.reattach(gen, false)
	if aerr != nil {
		return resp, err // surface the original (stale) failure
	}
	req.Seq = l.nextSeq()
	return fresh.call(req, timeout)
}

// reattach re-binds the line to a live Manager, trying every
// configured host in order with KAttachLine. gen is the connection
// generation the caller observed dead; when another goroutine already
// swapped in a newer connection, that one is returned without dialing.
// forQuit lets IQuit reattach after it has marked the line quit.
func (l *Line) reattach(gen int, forQuit bool) (*demuxConn, int, error) {
	l.mu.Lock()
	if l.quit && !forQuit {
		l.mu.Unlock()
		return nil, 0, fmt.Errorf("schooner: line %d already quit", l.id)
	}
	if l.mgrGen != gen {
		g, n := l.mgr, l.mgrGen
		l.mu.Unlock()
		return g, n, nil
	}
	l.mu.Unlock()
	var lastErr error
	for _, mh := range l.client.managerHosts() {
		conn, err := l.client.Transport.Dial(l.client.Host, mh+":"+ManagerPort)
		if err != nil {
			lastErr = err
			continue
		}
		if err := conn.Send(&wire.Message{Kind: wire.KAttachLine, Line: l.id, Name: l.module}); err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		resp, err := recvTimeout(conn, l.currentPolicy().Timeout)
		if err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		if resp.Kind != wire.KLineOK {
			conn.Close()
			lastErr = fmt.Errorf("schooner: attach to %s failed: %s", mh, resp.Err)
			continue
		}
		fresh := newDemuxConn(conn)
		l.mu.Lock()
		if l.mgrGen != gen {
			// Lost the race: another goroutine reattached first.
			g, n := l.mgr, l.mgrGen
			l.mu.Unlock()
			fresh.Close()
			return g, n, nil
		}
		old := l.mgr
		l.mgr = fresh
		l.mgrGen = gen + 1
		n := l.mgrGen
		l.mu.Unlock()
		old.Close()
		trace.Count("schooner.client.reattaches")
		flight.Record(flight.Event{Kind: flight.KindRebind, Component: "client",
			Host: l.client.Host, Line: l.id, Name: l.module, Detail: "manager " + mh})
		logx.For("client", l.client.Host).Info("line reattached to manager",
			"line", l.id, "manager", mh)
		return fresh, n, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("schooner: no manager hosts configured")
	}
	return nil, 0, lastErr
}

// StartRemote asks the Manager to instantiate the procedure file at
// path on the given machine and add its exports to this line. The
// machine and path are exactly what the user selects with the module's
// radio-button and type-in widgets.
func (l *Line) StartRemote(path, machineName string) error {
	var sp *trace.Span
	if trace.Enabled() {
		sp = trace.StartSpan("start "+path+" on "+machineName, l.client.Host)
		defer sp.End()
	}
	req := &wire.Message{Kind: wire.KStartProc, Line: l.id, Name: path, Str: machineName}
	inject(req, sp)
	_, err := l.managerCall(req)
	return err
}

// StartShared asks the Manager to instantiate the procedure file as a
// shared procedure, available to every line. The process is not part
// of this line and survives this line's shutdown.
func (l *Line) StartShared(path, machineName string) error {
	var sp *trace.Span
	if trace.Enabled() {
		sp = trace.StartSpan("start shared "+path+" on "+machineName, l.client.Host)
		defer sp.End()
	}
	req := &wire.Message{Kind: wire.KStartProc, Line: 0, Name: path, Str: machineName}
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
	nb := &binding{addr: resp.Str, exportName: resp.Name}
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
// rebind already replaced it) and closes its pooled connections.
func (l *Line) invalidate(name string, b *binding) {
	l.mu.Lock()
	if l.bindings[name] == b {
		delete(l.bindings, name)
	}
	l.mu.Unlock()
	b.markStale()
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
	start := clk().Now()
	var sp *trace.Span
	if trace.Enabled() {
		sp = trace.StartSpan("call "+name, l.client.Host)
	}
	res, err := l.call(name, args, sp)
	d := clk().Since(start)
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
	if err != nil {
		trace.Count("schooner.client.call_failures")
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

// Pending is an in-flight asynchronous call started with Go.
type Pending struct {
	done *vclock.Slot // signalled once res and err are set
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
	if !await(p.done) {
		return nil, errors.New("schooner: clock stopped under a pending call")
	}
	return p.res, p.err
}

// Go begins an asynchronous call on the line and returns immediately.
// The call runs with the full Call machinery — deadlines, retries,
// stale-cache rebind, failover discovery — and overlaps with any other
// calls in flight on the line.
func (l *Line) Go(name string, args ...uts.Value) *Pending {
	p := &Pending{done: clk().NewSlot()}
	clk().Go("schooner.Line.Go", func() { p.complete(l.Call(name, args...)) })
	return p
}

// call is the retry machine behind Call and Go. sp is the call's root
// span (nil when tracing is disabled): each network attempt becomes a
// child of it, so a retried call keeps one trace id across attempts
// and a failover-rebound attempt stays linked to the original parent.
func (l *Line) call(name string, args []uts.Value, sp *trace.Span) ([]uts.Value, error) {
	imp, pol, data, err := l.prepare(name, args)
	if err != nil {
		return nil, err
	}

	var lastErr error
	rebinding := false
	prevAddr := "" // address of the binding the last failure used
	for attempt := 0; ; attempt++ {
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
			clk().Sleep(pol.backoffFor(attempt - 1))
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
			if err == nil && sp != nil && rebinding {
				sp.Annotate("rebind", "rebound to "+b.addr)
				if prevAddr != "" && b.addr != prevAddr {
					// The name came back mapped somewhere else: a Move
					// or a Manager failover placed it on a new machine.
					sp.Annotate("failover", prevAddr+" -> "+b.addr)
				}
			}
			if err != nil {
				if !isStale(err) {
					return nil, err
				}
				// A transient lookup failure — the Manager briefly
				// unreachable, or the name mapped to a machine that is
				// mid-crash — is retried exactly like a stale call.
				// This is the first-bind retry path; it counts toward
				// rebinds on the next attempt via the flag above.
				lastErr = err
				rebinding = true
				if attempt >= pol.MaxRetries {
					break
				}
				continue
			}
		}
		// Default path: the binding's shared pipelined connection, on
		// which this attempt overlaps every other in-flight call.
		// NoPipeline leases a private connection per attempt instead.
		var conn wire.Conn
		var pc *demuxConn
		if pol.NoPipeline {
			conn, err = b.lease(l.client.Transport, l.client.Host, name)
		} else {
			pc, err = b.pipeline(l.client.Transport, l.client.Host, name)
		}
		if err != nil {
			lastErr = err
			prevAddr = b.addr
			l.invalidate(name, b)
			trace.Count("schooner.client.stale")
			rebinding = true
			if attempt >= pol.MaxRetries {
				break
			}
			continue
		}
		var att *trace.Span
		var attStart time.Time
		if sp != nil {
			att = sp.Child("attempt "+name, l.client.Host)
			att.Annotate("addr", b.addr)
			attStart = clk().Now()
		}
		// The flight recorder sees every attempt even when tracing is
		// off: one ring append, no allocation (all fields are strings
		// the call already holds).
		ctx := sp.Context()
		flight.Record(flight.Event{Kind: flight.KindCallAttempt, Component: "client",
			Host: l.client.Host, Line: l.id, Trace: ctx.Trace, Span: ctx.Span,
			Name: name, Detail: b.addr})
		var reply []byte
		if pc != nil {
			reply, err = l.callPipelined(pc, b, imp, data, pol.Timeout, att)
		} else {
			reply, err = l.callOnce(conn, b, imp, data, pol.Timeout, att)
		}
		if att != nil {
			if err != nil {
				att.Annotate("error", err.Error())
			} else {
				host := addrHost(b.addr)
				d := clk().Since(attStart)
				trace.Observe(trace.LKey("schooner.client.call", trace.Label{Key: "host", Value: host}), d)
				trace.Count(trace.LKey("schooner.client.calls", trace.Label{Key: "host", Value: host}))
				if tseries.Enabled() {
					actx := att.Context()
					tseries.Observe(trace.LKey("schooner.client.call", trace.Label{Key: "host", Value: host}), d, actx.Trace, actx.Span)
				}
			}
			att.End()
		}
		if err == nil {
			if conn != nil {
				b.release(conn)
			}
			results, err := l.decodeResults(imp, reply)
			if err != nil {
				return nil, err
			}
			trace.Count("schooner.client.calls")
			return results, nil
		}
		if conn != nil {
			conn.Close()
		}
		if !isStale(err) {
			return nil, err
		}
		// Stale cache: the procedure moved, died, or the wire failed.
		// Drop the binding; the next attempt re-asks the Manager.
		lastErr = err
		prevAddr = b.addr
		l.invalidate(name, b)
		trace.Count("schooner.client.stale")
		rebinding = true
		if attempt >= pol.MaxRetries {
			break
		}
	}
	return nil, fmt.Errorf("schooner: call to %q failed after %d attempts: %w", name, pol.MaxRetries+1, lastErr)
}

// prepare is the marshaling front half shared by Call and GoBatch: it
// resolves the import specification, converts the arguments through
// this machine's native representation into the UTS interchange
// format, and returns the line's effective policy alongside.
func (l *Line) prepare(name string, args []uts.Value) (*uts.ProcSpec, CallPolicy, []byte, error) {
	l.mu.Lock()
	if l.quit {
		l.mu.Unlock()
		return nil, CallPolicy{}, nil, fmt.Errorf("schooner: line %d already quit", l.id)
	}
	imp, ok := l.imports[name]
	pol := l.policy.withDefaults()
	l.mu.Unlock()
	if !ok {
		return nil, pol, nil, fmt.Errorf("schooner: no import specification registered for %q", name)
	}
	arch, err := l.client.arch()
	if err != nil {
		return nil, pol, nil, err
	}
	ins := imp.InParams()
	if len(args) != len(ins) {
		return nil, pol, nil, fmt.Errorf("schooner: %s takes %d in-parameters, got %d", name, len(ins), len(args))
	}
	// Outbound conversion: native -> UTS, fused with the encoding.
	data, bad, err := marshalNative(arch, ins, args, nil, uts.ParamsSize(ins))
	if bad >= 0 {
		return nil, pol, nil, fmt.Errorf("schooner: parameter %q: %w", ins[bad].Name, err)
	}
	if err != nil {
		return nil, pol, nil, err
	}
	return imp, pol, data, nil
}

// decodeResults is the unmarshaling back half shared by Call and
// GoBatch: UTS interchange bytes -> this machine's native values.
func (l *Line) decodeResults(imp *uts.ProcSpec, reply []byte) ([]uts.Value, error) {
	arch, err := l.client.arch()
	if err != nil {
		return nil, err
	}
	outs := imp.OutParams()
	results, err := uts.DecodeParams(reply, outs)
	if err != nil {
		return nil, err
	}
	// The values are fresh from the decoder and nobody else's yet, so
	// the inbound conversion overwrites them.
	for i := range results {
		if err := arch.NativeInPlace(&results[i]); err != nil {
			return nil, fmt.Errorf("schooner: result %q: %w", outs[i].Name, err)
		}
	}
	return results, nil
}

// callOnce performs one call attempt over a leased connection, bounded
// by the per-attempt deadline. The procedure process serves requests
// one at a time per connection, so the next message on the connection
// is the reply to this request. sp is the attempt span whose context
// rides in the request envelope (nil when tracing is disabled).
func (l *Line) callOnce(conn wire.Conn, b *binding, imp *uts.ProcSpec, data []byte, timeout time.Duration, sp *trace.Span) ([]byte, error) {
	req := &wire.Message{
		Kind: wire.KCall, Seq: l.nextSeq(), Line: l.id,
		Name: b.exportName, Str: imp.Signature(), Data: data,
	}
	inject(req, sp)
	if err := conn.Send(req); err != nil {
		return nil, &staleError{err}
	}
	trace.Count("schooner.client.rpcs")
	resp, err := recvTimeout(conn, timeout)
	if err != nil {
		if errors.As(err, new(*timeoutError)) {
			trace.Count("schooner.client.timeouts")
			sp.Annotate("timeout", timeout.String())
		}
		return nil, &staleError{err}
	}
	return callReplyData(resp)
}

// callPipelined performs one call attempt on the binding's shared
// demultiplexed connection: the request's sequence number matches it to
// its reply among every other call in flight on the connection. A
// timeout abandons the reply but leaves the connection open for the
// other in-flight calls (the caller invalidates the binding, which
// closes it for everyone — the retry machinery re-binds).
func (l *Line) callPipelined(pc *demuxConn, b *binding, imp *uts.ProcSpec, data []byte, timeout time.Duration, sp *trace.Span) ([]byte, error) {
	req := &wire.Message{
		Kind: wire.KCall, Seq: l.nextSeq(), Line: l.id,
		Name: b.exportName, Str: imp.Signature(), Data: data,
	}
	inject(req, sp)
	resp, err := pc.exchange(req, timeout)
	if err != nil {
		if errors.As(err, new(*timeoutError)) {
			trace.Count("schooner.client.timeouts")
			sp.Annotate("timeout", timeout.String())
		}
		return nil, err
	}
	return callReplyData(resp)
}

// callReplyData interprets a procedure call's reply message: a KError
// carrying the terminated sentinel is stale (the process died under a
// move or crash — rebind), any other KError is an application error.
func callReplyData(resp *wire.Message) ([]byte, error) {
	if resp.Kind == wire.KError {
		if resp.Err == ErrProcessTerminated {
			return nil, &staleError{fmt.Errorf("%s", resp.Err)}
		}
		return nil, fmt.Errorf("%s", resp.Err)
	}
	if resp.Kind != wire.KReply {
		return nil, fmt.Errorf("schooner: unexpected %v reply", resp.Kind)
	}
	return resp.Data, nil
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
		b.markStale()
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
// runs fail with a quit or connection error.
func (l *Line) IQuit() error {
	l.mu.Lock()
	if l.quit {
		l.mu.Unlock()
		return nil
	}
	l.quit = true
	l.seq++
	seq := l.seq
	timeout := l.policy.withDefaults().Timeout
	old := l.bindings
	l.bindings = make(map[string]*binding)
	g, gen := l.mgr, l.mgrGen
	l.mu.Unlock()
	for _, b := range old {
		b.markStale()
	}
	_, err := g.call(&wire.Message{Kind: wire.KQuitLine, Line: l.id, Seq: seq}, timeout)
	if err != nil && g.dead() {
		// The connection died under the quit (Manager crash or standby
		// takeover); reattach and quit the line at whichever Manager
		// now owns it.
		if fresh, _, aerr := l.reattach(gen, true); aerr == nil {
			l.mu.Lock()
			l.seq++
			seq = l.seq
			l.mu.Unlock()
			_, err = fresh.call(&wire.Message{Kind: wire.KQuitLine, Line: l.id, Seq: seq}, timeout)
		}
	}
	cur, _ := l.mgrc()
	cur.Close()
	return err
}
