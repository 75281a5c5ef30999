package schooner

import (
	"fmt"
	"slices"

	"npss/internal/trace"
	"npss/internal/uts"
	"npss/internal/wire"
)

// Batched dispatch: one wire message carrying many procedure calls.
//
// Line.GoBatch coalesces calls whose bindings land in the same
// procedure process into one KBatch envelope sent directly to it.
// Client.GoBatchHosts goes a level up: calls from any of the client's
// lines whose processes merely share a machine ride one KBatch to that
// machine's Server, which fans the sub-calls out to its local
// processes in-memory. Either way a whole wavefront of calls costs one
// round trip per destination instead of one per call.
//
// Batching is an optimization, never a semantic change: each call in a
// batch carries exactly the KCall message it would have carried alone,
// and any failure to deliver a batch falls back to the per-call path
// with its full retry/rebind machinery.

// BatchCall names one procedure invocation of a Line.GoBatch.
type BatchCall struct {
	Name string
	Args []uts.Value
}

// CrossCall names one procedure invocation of a Client.GoBatchHosts:
// the call runs on its Line, with that line's import and binding.
type CrossCall struct {
	Line *Line
	Name string
	Args []uts.Value
}

// preparedCall is one batch member after marshaling and binding.
// rawArgs keeps the caller's unconverted arguments for the fallback
// path (prepare's conversion must not run twice).
type preparedCall struct {
	line    *Line
	name    string
	rawArgs []uts.Value
	pend    Pending // the member's Pending lives inline; &pc.pend is returned
	imp     *uts.ProcSpec
	pol     CallPolicy
	data    []byte
	b       *binding
}

// finish completes a pending with the counter semantics of Call.
func (pc *preparedCall) finish(res []uts.Value, err error) {
	tally(err)
	pc.pend.complete(res, err)
}

// fallback re-runs the call through the ordinary per-call path — full
// retry, rebind, and failover machinery — and completes the pending
// with its outcome. Call does its own counting.
func (pc *preparedCall) fallback() {
	pc.pend.complete(pc.line.Call(pc.name, pc.rawArgs...))
}

// route is where a batch's envelopes go. The process route (the zero
// value) sends one to each procedure process several members are bound
// to, on that binding's pipelined connection. The host route sends one
// to each machine's Server on the client's shared connection to it,
// every sub-frame tagged with the process it is for. Grouping, the
// envelope and its round trip, and every fallback are the same on both.
type route struct {
	hosts *Client // nil on the process route
}

// key is what members of one envelope have in common.
func (r route) key(m *preparedCall) string {
	if r.hosts != nil {
		return addrHost(m.b.addr)
	}
	return m.b.addr
}

// GoBatch begins the given calls together and returns one Pending per
// call, in order. Calls that bind to the same procedure process are
// coalesced into a single KBatch wire message — one round trip for the
// lot, executed in order at the process — and the rest dispatch
// individually. Any batch-level failure falls back to per-call
// dispatch, so GoBatch never fails in a way Go would not.
func (l *Line) GoBatch(calls []BatchCall) []*Pending {
	return route{}.start(len(calls), func(i int) CrossCall {
		return CrossCall{Line: l, Name: calls[i].Name, Args: calls[i].Args}
	})
}

// GoBatchHosts begins the given calls — possibly from different lines
// of this client — together, coalescing calls whose processes share a
// machine into one KBatch sent to that machine's Server. The Server
// fans the sub-calls out to its processes in-memory, so calls to
// procedures in different processes on one host still cost a single
// round trip. Returns one Pending per call, in order.
func (c *Client) GoBatchHosts(calls []CrossCall) []*Pending {
	return route{hosts: c}.start(len(calls), func(i int) CrossCall { return calls[i] })
}

// start builds the n members call(i) names and dispatches them on
// their own goroutine, on the first member's line clock.
func (r route) start(n int, call func(int) CrossCall) []*Pending {
	pends := make([]*Pending, n)
	if n == 0 {
		return pends
	}
	members := make([]*preparedCall, n)
	// One backing array for the members, with each call's Pending
	// inline: batches sit on the hot path, where per-element
	// allocations add up.
	mback := make([]preparedCall, n)
	for i := range mback {
		cc := call(i)
		mback[i] = preparedCall{line: cc.Line, name: cc.Name, rawArgs: cc.Args,
			pend: Pending{done: cc.Line.clock.NewSlot()}}
		members[i] = &mback[i]
		pends[i] = &mback[i].pend
	}
	members[0].line.clock.Go("schooner.dispatchBatch", func() { r.dispatch(members) })
	return pends
}

// bindMembers marshals every member and resolves its binding. Members
// that fail to marshal are completed with the error; members that fail
// to bind fall back to the per-call path (which retries the lookup).
// The survivors are returned.
func bindMembers(members []*preparedCall) []*preparedCall {
	ready := members[:0] // filter in place; callers only use the result
	for _, m := range members {
		imp, pol, data, err := m.line.prepare(m.name, m.rawArgs)
		if err != nil {
			m.finish(nil, err)
			continue
		}
		m.imp, m.pol, m.data = imp, pol, data
		m.line.mu.Lock()
		b := m.line.bindings[m.name]
		m.line.mu.Unlock()
		if b == nil {
			b, err = m.line.lookup(m.name, imp, nil)
			if err != nil {
				goFallback(m)
				continue
			}
		}
		m.b = b
		ready = append(ready, m)
	}
	return ready
}

// dispatch groups the members by the route's key and sends one KBatch
// per group of several; singletons go per-call.
func (r route) dispatch(members []*preparedCall) {
	ready := bindMembers(members)
	if len(ready) == 0 {
		return
	}
	// Fast path: every member under one key — the common shape —
	// dispatches without grouping maps or a second goroutine.
	first := r.key(ready[0])
	if !slices.ContainsFunc(ready[1:], func(m *preparedCall) bool { return r.key(m) != first }) {
		if len(ready) == 1 {
			ready[0].fallback()
			return
		}
		r.send(first, ready)
		return
	}
	groups := make(map[string][]*preparedCall)
	var order []string
	for _, m := range ready {
		k := r.key(m)
		if len(groups[k]) == 0 {
			order = append(order, k)
		}
		groups[k] = append(groups[k], m)
	}
	for _, k := range order {
		group := groups[k]
		if len(group) == 1 {
			goFallback(group[0])
			continue
		}
		group[0].line.clock.Go("schooner.sendBatch", func() { r.send(k, group) })
	}
}

// send delivers one group as a KBatch envelope to the destination its
// key names and completes the members from the reply.
func (r route) send(key string, group []*preparedCall) {
	owner := group[0]
	// lost is what an envelope that cannot be delivered comes to: each
	// call retries alone through the ordinary machinery. The process may
	// be gone or moving, so its binding is invalidated — once, the group
	// shares it; a Server that does not answer says nothing about the
	// bindings behind it.
	lost := func() {
		if r.hosts == nil {
			owner.line.invalidate(owner.name, owner.b)
			trace.Count("schooner.client.stale")
		}
		fallbackAll(group)
	}
	var g *demuxConn
	var err error
	env := wire.Message{Kind: wire.KBatch}
	counter := "schooner.client.host_batches"
	if r.hosts != nil {
		g, err = r.hosts.serverConn(key, owner.line.clock)
	} else {
		g, err = owner.b.get(owner.line.client.Transport, owner.line.clock, owner.line.client.Host)
		env.Line = owner.line.id
		counter = "schooner.client.batches"
	}
	if err != nil {
		lost()
		return
	}
	// One attempt span covers the whole envelope's round trip; each
	// sub-call carries its context so the remote dispatch spans parent
	// under it and the wire transit shows up as the attempt's
	// self-time, exactly as on the per-call path.
	var att *trace.Span
	if trace.Enabled() {
		att = trace.StartSpan(fmt.Sprintf("attempt batch ×%d %s", len(group), addrHost(owner.b.addr)), owner.line.client.Host)
	}
	attCtx := att.Context()
	// The envelope payload is dead once exchange returns (the reply is
	// a fresh message), so a pooled scratch buffer carries it; one
	// request message is reused across the sub-frames (AppendSub
	// encodes it immediately and keeps nothing). Sub-frames carry no
	// Seq: they are matched to their replies by position.
	subs := wire.GetBuf()
	defer func() { wire.PutBuf(subs) }()
	var req wire.Message
	for _, m := range group {
		req = wire.Message{
			Kind: wire.KCall, Line: m.line.id,
			Name: m.b.exportName, Str: m.imp.Signature(), Data: m.data,
			Trace: attCtx.Trace, Span: attCtx.Span,
		}
		tag := ""
		if r.hosts != nil {
			tag = m.b.addr
		}
		if subs, err = wire.AppendSub(subs, tag, &req); err != nil {
			att.End()
			fallbackAll(group)
			return
		}
	}
	env.Data = subs
	resp, err := g.exchange(&env, owner.pol.Timeout)
	if att != nil && err != nil {
		att.Annotate("error", err.Error())
	}
	att.End()
	if err != nil {
		lost()
		return
	}
	trace.Count(counter)
	completeBatch(group, resp)
}

// completeBatch distributes a KBatchOK's reply sub-frames to the
// group, in request order. Sub-replies carrying the stale sentinel
// (the process died or moved mid-batch) fall back per-call; other
// errors are the call's final outcome.
func completeBatch(group []*preparedCall, resp *wire.Message) {
	if resp.Kind != wire.KBatchOK {
		_, err := callReplyData(resp)
		if err == nil {
			err = fmt.Errorf("schooner: unexpected %v reply to batch", resp.Kind)
		}
		if isStale(err) {
			// The whole envelope hit a terminated process — the group's
			// shared destination moved. Invalidate and retry per-call.
			for _, m := range group {
				m.line.invalidate(m.name, m.b)
			}
			trace.Count("schooner.client.stale")
			fallbackAll(group)
			return
		}
		failAll(group, err)
		return
	}
	// Walk the reply sub-frames in place; no intermediate slice.
	rest := resp.Data
	for i, m := range group {
		if len(rest) == 0 {
			failAll(group[i:], fmt.Errorf("schooner: batch of %d calls got %d replies", len(group), i))
			return
		}
		sub, r, err := wire.SplitSub(rest)
		if err != nil {
			failAll(group[i:], err)
			return
		}
		rest = r
		reply, err := callReplyData(sub.Msg)
		if err != nil {
			if isStale(err) {
				m.line.invalidate(m.name, m.b)
				trace.Count("schooner.client.stale")
				goFallback(m)
				continue
			}
			m.finish(nil, err)
			continue
		}
		res, err := m.line.decodeResults(m.imp, reply)
		m.finish(res, err)
	}
}

// goFallback runs one member's fallback on its own goroutine.
func goFallback(m *preparedCall) { m.line.clock.Go("schooner.batch.fallback", m.fallback) }

func fallbackAll(group []*preparedCall) {
	for _, m := range group {
		goFallback(m)
	}
}

func failAll(group []*preparedCall, err error) {
	for _, m := range group {
		m.finish(nil, err)
	}
}

// runBatch is the serving side of a KBatch: it walks the envelope's
// sub-frames in place, hands each to dispatch, and returns one KBatchOK
// with a reply sub-frame per sub-request. Sub-requests run in envelope
// order — a batch may carry calls to stateful procedures, so envelope
// order is execution order. A batch answered in full is counted under
// counter.
func runBatch(env *wire.Message, counter string, dispatch func(wire.Sub) *wire.Message) *wire.Message {
	// Replies are roughly request-sized; start at the envelope's size
	// to avoid growth reallocations.
	data := make([]byte, 0, len(env.Data))
	for rest := env.Data; len(rest) > 0; {
		sub, r, err := wire.SplitSub(rest)
		if err != nil {
			return &wire.Message{Kind: wire.KError, Err: err.Error()}
		}
		rest = r
		resp := dispatch(sub)
		resp.Seq = sub.Msg.Seq
		if data, err = wire.AppendSub(data, "", resp); err != nil {
			return &wire.Message{Kind: wire.KError, Err: err.Error()}
		}
	}
	trace.Count(counter)
	return &wire.Message{Kind: wire.KBatchOK, Data: data}
}
