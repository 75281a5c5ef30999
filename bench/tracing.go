package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"npss/internal/exper"
	"npss/internal/schooner"
	"npss/internal/uts"
	"npss/internal/vclock"
	"npss/internal/wire"
)

// Benchmark-side tracing. Nothing in the program under test is edited:
// spans are recorded by decorators hung on exported seams — the
// client's schooner.Transport (hence every wire.Conn it dials), the
// BoundProc.Fn of every registered procedure, and the netsim clock —
// and only when a workload is set up with a non-nil tracer. The
// untraced run never constructs any of these types.
//
// Span tree of one unit of work:
//
//	bench.run                       one unit (a run, a call, a control op)
//	  schooner.call                 a Line.Call the benchmark itself issued
//	    conn.send / mgr.send        wire.Conn.Send of a call / a Manager request
//	    conn.recv_wait / mgr.recv_wait   send returned -> matching reply received
//	      proc.fn                   the procedure body on the remote machine
//
// netsim.sleep spans (real sleeping on a scaled simulated link) are
// kept outside the tree and reported as wall-clock coverage.

// spanName enumerates the span kinds.
type spanName uint8

const (
	benchRun spanName = iota
	schoonerCall
	connSend
	connRecvWait
	mgrSend
	mgrRecvWait
	procFn
	netsimSleep
	numSpanNames
)

var spanNames = [numSpanNames]string{"bench.run", "schooner.call", "conn.send", "conn.recv_wait", "mgr.send", "mgr.recv_wait", "proc.fn", "netsim.sleep"}

func (n spanName) String() string { return spanNames[n] }

// span is one recorded interval, in nanoseconds since the tracer's
// epoch. Parent 0 marks a root. Note is the wire.Kind of the message a
// send or wait carried, or the index in tracer.procs of the procedure a
// body belongs to. A span holds no pointer, so a million of them are
// slices the garbage collector never scans.
type span struct {
	ID, Parent int64
	Start, End int64
	Name       spanName
	Note       uint16
}

// note renders a span's Note.
func (t *tracer) note(s span) string {
	switch s.Name {
	case connSend, connRecvWait, mgrSend, mgrRecvWait:
		return wire.Kind(s.Note).String()
	case procFn:
		return t.procs[s.Note]
	}
	return ""
}

// decoratorsBuilt counts every decorator ever constructed; the
// untraced path is asserted to leave it at zero.
var decoratorsBuilt atomic.Int64

// tracer collects spans. Each span kind is recorded by its own
// goroutines — callers, the client's read loops, the remote dispatch
// goroutines — so each kind has its own lock and slice: one shared lock
// made those goroutines queue behind each other and tracing table2-sw
// cost over 20 %.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	kinds  [numSpanNames]struct {
		mu    sync.Mutex
		spans []span
	}

	mu    sync.Mutex
	procs []string // procedure names, indexed by a proc.fn span's Note
	dials int64    // connections the traced clients opened
	// waiting maps a procedure name to the conn.recv_wait spans whose
	// request is out and whose procedure body has not started yet,
	// oldest first: the Fn decorator cannot see which request it
	// serves, so it claims the oldest.
	waiting map[string][]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), waiting: make(map[string][]int64)}
}

func (t *tracer) now() int64   { return int64(time.Since(t.epoch)) }
func (t *tracer) newID() int64 { return t.nextID.Add(1) }

func (t *tracer) add(s span) {
	k := &t.kinds[s.Name]
	k.mu.Lock()
	k.spans = append(k.spans, s)
	k.mu.Unlock()
}

// all returns every recorded span in order of start.
func (t *tracer) all() []span {
	var out []span
	for i := range t.kinds {
		k := &t.kinds[i]
		k.mu.Lock()
		out = append(out, k.spans...)
		k.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// reset forgets what set-up recorded, so the trace covers the measured
// window only.
func (t *tracer) reset() {
	for i := range t.kinds {
		k := &t.kinds[i]
		k.mu.Lock()
		k.spans = nil
		k.mu.Unlock()
	}
	t.mu.Lock()
	t.dials = 0
	t.mu.Unlock()
}

// proc interns a procedure name for proc.fn spans.
func (t *tracer) proc(name string) uint16 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.procs = append(t.procs, name)
	return uint16(len(t.procs) - 1)
}

func (t *tracer) expect(proc string, waitID int64) {
	proc = strings.ToLower(proc)
	t.mu.Lock()
	t.waiting[proc] = append(t.waiting[proc], waitID)
	t.mu.Unlock()
}

// claim hands the oldest waiting request of proc to a procedure body.
func (t *tracer) claim(proc string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.waiting[proc]
	if len(q) == 0 {
		return 0
	}
	t.waiting[proc] = q[1:]
	return q[0]
}

// settle drops a request that will start no procedure body. A good
// reply needs no settling: its body claimed one entry, though under
// concurrency not always its own.
func (t *tracer) settle(proc string, waitID int64) {
	proc = strings.ToLower(proc)
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.waiting[proc]
	for i, id := range q {
		if id == waitID {
			t.waiting[proc] = append(q[:i:i], q[i+1:]...)
			return
		}
	}
}

// traceCtx is the tracing context of one schooner.Client: the unit of
// work in progress and the calls the benchmark has issued on it. One
// closed-loop caller owns one client, so "the open call" is exact;
// rpc-tcp's two callers share a client and are matched oldest-first.
type traceCtx struct {
	tr   *tracer
	mu   sync.Mutex
	root int64
	open []openCall
}

type openCall struct {
	id   int64
	sent bool
}

// unit opens the root span of one unit of work and returns its end.
func (c *traceCtx) unit() (end func()) {
	id, start := c.tr.newID(), c.tr.now()
	c.mu.Lock()
	c.root = id
	c.mu.Unlock()
	return func() {
		c.tr.add(span{ID: id, Name: benchRun, Start: start, End: c.tr.now()})
	}
}

// call wraps a Line.Call issued by the benchmark in a schooner.call
// span. parent is the unit's root for a caller that shares its client.
func (c *traceCtx) call(fn func() error) error {
	id, start := c.tr.newID(), c.tr.now()
	c.mu.Lock()
	parent := c.root
	c.open = append(c.open, openCall{id: id})
	c.mu.Unlock()
	err := fn()
	end := c.tr.now()
	c.mu.Lock()
	for i := range c.open {
		if c.open[i].id == id {
			c.open = append(c.open[:i:i], c.open[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	c.tr.add(span{ID: id, Parent: parent, Name: schoonerCall, Start: start, End: end})
	return err
}

// parent picks the span a Send belongs to: the oldest open call that
// has not sent its request yet, else the newest open call (a retry or
// a lookup inside it), else the unit itself (calls issued by the
// executive, which the benchmark cannot wrap).
func (c *traceCtx) parent(isCall bool) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.open {
		if !c.open[i].sent {
			c.open[i].sent = isCall
			return c.open[i].id
		}
	}
	if n := len(c.open); n > 0 {
		return c.open[n-1].id
	}
	return c.root
}

// tracedTransport decorates the client's transport so that every
// connection it dials records send and reply-wait spans.
type tracedTransport struct {
	schooner.Transport
	ctx *traceCtx
}

func newTracedTransport(inner schooner.Transport, tr *tracer) (tracedTransport, *traceCtx) {
	decoratorsBuilt.Add(1)
	ctx := &traceCtx{tr: tr}
	return tracedTransport{Transport: inner, ctx: ctx}, ctx
}

func (t tracedTransport) Dial(from, addr string) (wire.Conn, error) {
	conn, err := t.Transport.Dial(from, addr)
	if err != nil {
		return nil, err
	}
	decoratorsBuilt.Add(1)
	t.ctx.tr.mu.Lock()
	t.ctx.tr.dials++
	t.ctx.tr.mu.Unlock()
	return &tracedConn{Conn: conn, ctx: t.ctx, inflight: make(map[uint32]*outstanding)}, nil
}

// outstanding is a request whose reply has not been received.
type outstanding struct {
	parent, waitID int64
	sendEnd        int64 // 0 until Send has returned
	send, wait     spanName
	procs          []string // the procedures a call or batch invokes
}

type tracedConn struct {
	wire.Conn
	ctx *traceCtx

	mu       sync.Mutex
	inflight map[uint32]*outstanding
}

func (c *tracedConn) Send(m *wire.Message) error {
	tr := c.ctx.tr
	o := &outstanding{send: mgrSend, wait: mgrRecvWait, waitID: tr.newID()}
	switch m.Kind {
	case wire.KCall:
		o.send, o.wait, o.procs = connSend, connRecvWait, []string{m.Name}
	case wire.KBatch:
		o.send, o.wait = connSend, connRecvWait
		if subs, err := wire.SplitBatch(m.Data); err == nil {
			for _, s := range subs {
				o.procs = append(o.procs, s.Msg.Name)
			}
		}
	}
	o.parent = c.ctx.parent(o.send == connSend)
	for _, p := range o.procs {
		tr.expect(p, o.waitID)
	}
	// The reply can be received before Send returns here, so the
	// request is registered first and its send time filled in after.
	c.mu.Lock()
	c.inflight[m.Seq] = o
	c.mu.Unlock()
	start := tr.now()
	err := c.Conn.Send(m)
	end := tr.now()
	c.mu.Lock()
	o.sendEnd = end
	if err != nil {
		delete(c.inflight, m.Seq)
	}
	c.mu.Unlock()
	if err != nil {
		c.settle(o)
	}
	tr.add(span{ID: tr.newID(), Parent: o.parent, Name: o.send, Start: start, End: end, Note: uint16(m.Kind)})
	return err
}

// settle takes a request that will start no procedure body (its send
// failed, its connection died, its reply is an error) out of the
// waiting lists, so that it does not claim some later body.
func (c *tracedConn) settle(o *outstanding) {
	for _, p := range o.procs {
		c.ctx.tr.settle(p, o.waitID)
	}
}

func (c *tracedConn) Recv() (*wire.Message, error) {
	m, err := c.Conn.Recv()
	tr := c.ctx.tr
	end := tr.now()
	c.mu.Lock()
	if err != nil {
		// The connection is gone, as after a move: nothing in flight
		// on it will be answered.
		for seq, o := range c.inflight {
			delete(c.inflight, seq)
			c.settle(o)
		}
		c.mu.Unlock()
		return m, err
	}
	o := c.inflight[m.Seq]
	delete(c.inflight, m.Seq)
	start := end // a reply that beat Send's return waited no time
	if o != nil && o.sendEnd != 0 {
		start = o.sendEnd
	}
	c.mu.Unlock()
	if o == nil {
		return m, nil
	}
	if m.Kind == wire.KError {
		c.settle(o)
	}
	tr.add(span{ID: o.waitID, Parent: o.parent, Name: o.wait, Start: start, End: end, Note: uint16(m.Kind)})
	return m, nil
}

// tracedProgram returns a copy of p whose instances time every
// procedure body.
func tracedProgram(p *schooner.Program, tr *tracer) *schooner.Program {
	decoratorsBuilt.Add(1)
	q, build := *p, p.Build
	q.Build = func() (*schooner.Instance, error) {
		inst, err := build()
		if err != nil {
			return nil, err
		}
		procs := make([]*schooner.BoundProc, len(inst.Procs()))
		for i, bp := range inst.Procs() {
			w := *bp
			fn, name := bp.Fn, strings.ToLower(bp.Spec.Name)
			note := tr.proc(name)
			w.Fn = func(in []uts.Value) ([]uts.Value, error) {
				id, parent, start := tr.newID(), tr.claim(name), tr.now()
				out, err := fn(in)
				tr.add(span{ID: id, Parent: parent, Name: procFn, Start: start, End: tr.now(), Note: note})
				return out, err
			}
			procs[i] = &w
		}
		return schooner.NewInstance(procs...)
	}
	return &q
}

// tracedClock records every real sleep the simulated network takes.
type tracedClock struct {
	vclock.Clock
	tr *tracer
}

func (c tracedClock) SleepUntil(t time.Time) {
	if c.Clock.Until(t) <= 0 {
		return
	}
	start := c.tr.now()
	c.Clock.SleepUntil(t)
	c.tr.add(span{ID: c.tr.newID(), Name: netsimSleep, Start: start, End: c.tr.now()})
}

// traceTestbed hangs the decorators on a deployed exper.Testbed, so
// the traced run keeps exactly the topology exper.NewTestbed built.
// It must run before the first line starts. The returned transport is
// what the executive's client must dial through.
func traceTestbed(tb *exper.Testbed, tr *tracer) (schooner.Transport, *traceCtx, error) {
	decoratorsBuilt.Add(1)
	tb.Net.SetClock(tracedClock{Clock: tb.Net.Clock(), tr: tr})
	for _, path := range tb.Registry.Paths() {
		p, err := tb.Registry.Lookup(path)
		if err != nil {
			return nil, nil, err
		}
		p.Build = tracedProgram(p, tr).Build
	}
	t, ctx := newTracedTransport(tb.Tr, tr)
	return t, ctx, nil
}

// layerTotals is what the traced pass reports for one span name.
type layerTotals struct {
	Count  int64 `json:"count"`
	DurNS  int64 `json:"dur_ns"`
	SelfNS int64 `json:"self_ns"`
}

// traceSummary is the analysed trace of one workload.
type traceSummary struct {
	Layers map[string]*layerTotals `json:"layers"`
	Dials  int64                   `json:"conn_dials"`
	// RootNS is the total duration of the root spans and SleepNS the
	// part of it during which some receiver was really sleeping on the
	// simulated network (overlapping sleeps counted once).
	RootNS  int64 `json:"root_ns"`
	SleepNS int64 `json:"sleep_ns"`
}

// summarize computes per-name totals and self times of the spans.
func (t *tracer) summarize(spans []span) traceSummary {
	children := make(map[int64][]interval)
	var sleeps []interval
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		} else if s.Name == netsimSleep {
			sleeps = append(sleeps, interval{s.Start, s.End})
		}
	}
	t.mu.Lock()
	sum := traceSummary{Layers: make(map[string]*layerTotals), Dials: t.dials}
	t.mu.Unlock()
	for _, s := range spans {
		l := sum.Layers[s.Name.String()]
		if l == nil {
			l = &layerTotals{}
			sum.Layers[s.Name.String()] = l
		}
		l.Count++
		l.DurNS += s.End - s.Start
		l.SelfNS += selfTime(s.Start, s.End, children[s.ID])
		if s.Parent == 0 && (s.Name == benchRun || s.Name == schoonerCall) {
			sum.RootNS += s.End - s.Start
			sum.SleepNS += covered(s.Start, s.End, sleeps)
		}
	}
	return sum
}

// maxSpansWritten caps the trace file at the earliest spans; the
// summary always covers every span recorded.
const maxSpansWritten = 200000

// write stores the trace under dir.
func (t *tracer) write(dir, workload string, seed int64, spans []span, sum traceSummary) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	type spanOut struct {
		ID     int64  `json:"id"`
		Parent int64  `json:"parent"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Note   string `json:"note,omitempty"`
	}
	out := make([]spanOut, min(len(spans), maxSpansWritten))
	for i := range out {
		s := spans[i]
		out[i] = spanOut{s.ID, s.Parent, s.Name.String(), s.Start, s.End, t.note(s)}
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string       `json:"workload"`
		Seed     int64        `json:"seed"`
		Summary  traceSummary `json:"summary"`
		Dropped  int          `json:"spans_not_written"`
		Spans    []spanOut    `json:"spans"`
	}{workload, seed, sum, len(spans) - len(out), out})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
