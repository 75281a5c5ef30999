package schooner

import (
	"fmt"

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
	if err != nil {
		trace.Count("schooner.client.call_failures")
	} else {
		trace.Count("schooner.client.calls")
	}
	pc.pend.complete(res, err)
}

// fallback re-runs the call through the ordinary per-call path — full
// retry, rebind, and failover machinery — and completes the pending
// with its outcome. Call does its own counting.
func (pc *preparedCall) fallback() {
	pc.pend.complete(pc.line.Call(pc.name, pc.rawArgs...))
}

// GoBatch begins the given calls together and returns one Pending per
// call, in order. Calls that bind to the same procedure process are
// coalesced into a single KBatch wire message — one round trip for the
// lot, executed in order at the process — and the rest dispatch
// individually. Any batch-level failure falls back to per-call
// dispatch, so GoBatch never fails in a way Go would not.
func (l *Line) GoBatch(calls []BatchCall) []*Pending {
	pends := make([]*Pending, len(calls))
	members := make([]*preparedCall, len(calls))
	// One backing array for the members, with each call's Pending
	// inline: batches sit on the hot path, where per-element
	// allocations add up.
	mback := make([]preparedCall, len(calls))
	c := clk()
	for i, call := range calls {
		mback[i] = preparedCall{line: l, name: call.Name, rawArgs: call.Args,
			pend: Pending{done: c.NewSlot()}}
		members[i] = &mback[i]
		pends[i] = &mback[i].pend
	}
	c.Go("schooner.dispatchBatch", func() { dispatchBatch(members) })
	return pends
}

// GoBatchHosts begins the given calls — possibly from different lines
// of this client — together, coalescing calls whose processes share a
// machine into one KBatch sent to that machine's Server. The Server
// fans the sub-calls out to its processes in-memory, so calls to
// procedures in different processes on one host still cost a single
// round trip. Returns one Pending per call, in order.
func (c *Client) GoBatchHosts(calls []CrossCall) []*Pending {
	pends := make([]*Pending, len(calls))
	members := make([]*preparedCall, len(calls))
	mback := make([]preparedCall, len(calls))
	ck := clk()
	for i, call := range calls {
		mback[i] = preparedCall{line: call.Line, name: call.Name, rawArgs: call.Args,
			pend: Pending{done: ck.NewSlot()}}
		members[i] = &mback[i]
		pends[i] = &mback[i].pend
	}
	ck.Go("schooner.dispatchBatchHosts", func() { dispatchBatchHosts(c, members) })
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

// dispatchBatch groups one line's members by process address and sends
// one KBatch per multi-member process; singletons go per-call.
func dispatchBatch(members []*preparedCall) {
	ready := bindMembers(members)
	if len(ready) == 0 {
		return
	}
	// Fast path: every member bound to one process — the common shape —
	// dispatches without grouping maps or a second goroutine.
	if sameKey(ready, func(m *preparedCall) string { return m.b.addr }) {
		if len(ready) == 1 {
			ready[0].fallback()
			return
		}
		sendProcessBatch(ready)
		return
	}
	groups := make(map[string][]*preparedCall)
	var order []string
	for _, m := range ready {
		if len(groups[m.b.addr]) == 0 {
			order = append(order, m.b.addr)
		}
		groups[m.b.addr] = append(groups[m.b.addr], m)
	}
	for _, addr := range order {
		group := groups[addr]
		if len(group) == 1 {
			goFallback(group[0])
			continue
		}
		clk().Go("schooner.sendProcessBatch", func() { sendProcessBatch(group) })
	}
}

// sameKey reports whether every member maps to the same key.
func sameKey(members []*preparedCall, key func(*preparedCall) string) bool {
	first := key(members[0])
	for _, m := range members[1:] {
		if key(m) != first {
			return false
		}
	}
	return true
}

// sendProcessBatch delivers one group of same-process calls as a
// KBatch on the binding's pipelined connection.
func sendProcessBatch(group []*preparedCall) {
	l := group[0].line
	owner := group[0].b
	pc, err := owner.pipeline(l.client.Transport, l.client.Host, group[0].name)
	if err != nil {
		l.invalidate(group[0].name, owner)
		trace.Count("schooner.client.stale")
		fallbackAll(group)
		return
	}
	// One attempt span covers the whole envelope's round trip; each
	// sub-call carries its context so the remote dispatch spans parent
	// under it and the wire transit shows up as the attempt's
	// self-time, exactly as on the per-call path.
	var att *trace.Span
	if trace.Enabled() {
		att = trace.StartSpan(fmt.Sprintf("attempt batch ×%d %s", len(group), addrHost(owner.addr)), l.client.Host)
	}
	var attCtx trace.SpanContext
	if att != nil {
		attCtx = att.Context()
	}
	// The envelope payload is dead once exchange returns (the reply is
	// a fresh message), so a pooled scratch buffer carries it; one
	// request message is reused across the sub-frames (AppendSub
	// encodes it immediately and keeps nothing).
	subs := wire.GetBuf()
	defer func() { wire.PutBuf(subs) }()
	var req wire.Message
	for _, m := range group {
		req = wire.Message{
			Kind: wire.KCall, Seq: l.nextSeq(), Line: l.id,
			Name: m.b.exportName, Str: m.imp.Signature(), Data: m.data,
			Trace: attCtx.Trace, Span: attCtx.Span,
		}
		subs, err = wire.AppendSub(subs, "", &req)
		if err != nil {
			att.End()
			fallbackAll(group)
			return
		}
	}
	env := &wire.Message{Kind: wire.KBatch, Seq: l.nextSeq(), Line: l.id, Data: subs}
	resp, err := pc.exchange(env, group[0].pol.Timeout)
	if att != nil && err != nil {
		att.Annotate("error", err.Error())
	}
	att.End()
	if err != nil {
		// The envelope never made it (or timed out): the process may be
		// gone or moving. Invalidate once and let each call retry
		// through the ordinary machinery.
		l.invalidate(group[0].name, owner)
		trace.Count("schooner.client.stale")
		fallbackAll(group)
		return
	}
	trace.Count("schooner.client.batches")
	completeBatch(group, resp)
}

// dispatchBatchHosts groups members by destination machine and sends
// one addressed KBatch per multi-member host to its Server; singleton
// hosts go per-call.
func dispatchBatchHosts(c *Client, members []*preparedCall) {
	ready := bindMembers(members)
	if len(ready) == 0 {
		return
	}
	if sameKey(ready, func(m *preparedCall) string { return addrHost(m.b.addr) }) {
		if len(ready) == 1 {
			ready[0].fallback()
			return
		}
		sendHostBatch(c, addrHost(ready[0].b.addr), ready)
		return
	}
	groups := make(map[string][]*preparedCall)
	var order []string
	for _, m := range ready {
		host := addrHost(m.b.addr)
		if len(groups[host]) == 0 {
			order = append(order, host)
		}
		groups[host] = append(groups[host], m)
	}
	for _, host := range order {
		group := groups[host]
		if len(group) == 1 {
			goFallback(group[0])
			continue
		}
		clk().Go("schooner.sendHostBatch", func() { sendHostBatch(c, host, group) })
	}
}

// sendHostBatch delivers one group of same-host calls as an addressed
// KBatch to the host's Server on the client's shared connection.
func sendHostBatch(c *Client, host string, group []*preparedCall) {
	g, err := c.serverConn(host)
	if err != nil {
		fallbackAll(group)
		return
	}
	// As on the process-batch path: one attempt span for the envelope's
	// round trip, its context carried on every sub-call so the remote
	// dispatch spans parent under it.
	var att *trace.Span
	if trace.Enabled() {
		att = trace.StartSpan(fmt.Sprintf("attempt batch ×%d %s", len(group), host), c.Host)
	}
	var attCtx trace.SpanContext
	if att != nil {
		attCtx = att.Context()
	}
	subs := wire.GetBuf()
	defer func() { wire.PutBuf(subs) }()
	var req wire.Message
	for _, m := range group {
		req = wire.Message{
			Kind: wire.KCall, Seq: c.nextBatchSeq(), Line: m.line.id,
			Name: m.b.exportName, Str: m.imp.Signature(), Data: m.data,
			Trace: attCtx.Trace, Span: attCtx.Span,
		}
		subs, err = wire.AppendSub(subs, m.b.addr, &req)
		if err != nil {
			att.End()
			fallbackAll(group)
			return
		}
	}
	env := &wire.Message{Kind: wire.KBatch, Seq: c.nextBatchSeq(), Data: subs}
	resp, err := g.exchange(env, group[0].pol.Timeout)
	if att != nil && err != nil {
		att.Annotate("error", err.Error())
	}
	att.End()
	if err != nil {
		fallbackAll(group)
		return
	}
	trace.Count("schooner.client.host_batches")
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
func goFallback(m *preparedCall) { clk().Go("schooner.batch.fallback", m.fallback) }

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
