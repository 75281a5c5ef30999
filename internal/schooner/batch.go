package schooner

import (
	"fmt"
	"slices"

	"npss/internal/trace"
	"npss/internal/uts"
	"npss/internal/wire"
)

// Batched dispatch: one wire message carrying many procedure calls,
// so a whole wavefront of calls costs one round trip per machine
// instead of one per call (Client.GoBatchHosts; the serving side is
// Server.handleBatch).
//
// Batching is an optimization, never a semantic change: each call in a
// batch carries exactly the KCall message it would have carried alone,
// and any failure to deliver a batch falls back to the per-call path
// with its full retry/rebind machinery.

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

// GoBatchHosts begins the given calls — possibly from different lines
// of this client — together, coalescing calls whose processes share a
// machine into one KBatch sent to that machine's Server. The Server
// fans the sub-calls out to its processes in-memory, so calls to
// procedures in different processes on one host still cost a single
// round trip. Returns one Pending per call, in order. Any batch-level
// failure falls back to per-call dispatch, so GoBatchHosts never fails
// in a way Go would not.
func (c *Client) GoBatchHosts(calls []CrossCall) []*Pending {
	pends := make([]*Pending, len(calls))
	if len(calls) == 0 {
		return pends
	}
	members := make([]*preparedCall, len(calls))
	// One backing array for the members, with each call's Pending
	// inline: batches sit on the hot path, where per-element
	// allocations add up.
	mback := make([]preparedCall, len(calls))
	for i, cc := range calls {
		mback[i] = preparedCall{line: cc.Line, name: cc.Name, rawArgs: cc.Args,
			pend: Pending{done: cc.Line.clock.NewSlot()}}
		members[i] = &mback[i]
		pends[i] = &mback[i].pend
	}
	members[0].line.clock.Go("schooner.dispatchBatch", func() { c.dispatchBatch(members) })
	return pends
}

// bindMembers marshals every member and resolves its binding. Members
// that fail to marshal are completed with the error; members that fail
// to bind fall back to the per-call path (which retries the lookup).
// The survivors are returned.
func bindMembers(members []*preparedCall) []*preparedCall {
	ready := members[:0] // filter in place; callers only use the result
	for _, m := range members {
		imp, data, err := m.line.prepare(m.name, m.rawArgs)
		if err != nil {
			m.finish(nil, err)
			continue
		}
		m.imp, m.data = imp, data
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

// dispatchBatch groups the members by machine and sends one KBatch
// per group of several; singletons go per-call.
func (c *Client) dispatchBatch(members []*preparedCall) {
	ready := bindMembers(members)
	if len(ready) == 0 {
		return
	}
	// Fast path: every member on one machine — the common shape —
	// dispatches without grouping maps or a second goroutine.
	host := func(m *preparedCall) string { return addrHost(m.b.addr) }
	first := host(ready[0])
	if !slices.ContainsFunc(ready[1:], func(m *preparedCall) bool { return host(m) != first }) {
		if len(ready) == 1 {
			ready[0].fallback()
			return
		}
		c.sendBatch(first, ready)
		return
	}
	groups := make(map[string][]*preparedCall)
	var order []string
	for _, m := range ready {
		h := host(m)
		if len(groups[h]) == 0 {
			order = append(order, h)
		}
		groups[h] = append(groups[h], m)
	}
	for _, h := range order {
		group := groups[h]
		if len(group) == 1 {
			goFallback(group[0])
			continue
		}
		group[0].line.clock.Go("schooner.sendBatch", func() { c.sendBatch(h, group) })
	}
}

// sendBatch delivers one group as a KBatch envelope to its machine's
// Server, every sub-frame tagged with the process it is for, and
// completes the members from the reply. An envelope that cannot be
// delivered sends each call alone through the ordinary machinery; a
// Server that does not answer says nothing about the bindings behind
// it, so none is invalidated.
func (c *Client) sendBatch(host string, group []*preparedCall) {
	owner := group[0]
	g, err := c.servers.get(c.Transport, c.Host, host+":"+ServerPort)
	if err != nil {
		fallbackAll(group)
		return
	}
	// One attempt span covers the whole envelope's round trip; each
	// sub-call carries its context so the remote dispatch spans parent
	// under it and the wire transit shows up as the attempt's
	// self-time, exactly as on the per-call path.
	var att *trace.Span
	if trace.Enabled() {
		att = trace.StartSpan(fmt.Sprintf("attempt batch ×%d %s", len(group), host), c.Host)
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
		if subs, err = wire.AppendSub(subs, m.b.addr, &req); err != nil {
			att.End()
			fallbackAll(group)
			return
		}
	}
	resp, err := g.rpc(&wire.Message{Kind: wire.KBatch, Data: subs}, owner.line.policy.Timeout)
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

// completeBatch distributes a batch reply's sub-frames to the group,
// in request order. Sub-replies carrying the stale sentinel (the
// process died or moved mid-batch) fall back per-call; other errors
// are the call's final outcome.
func completeBatch(group []*preparedCall, resp *wire.Message) {
	if err := replyError(resp); err != nil {
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
		if err := replyError(sub.Msg); err != nil {
			if isStale(err) {
				m.line.invalidate(m.name, m.b)
				trace.Count("schooner.client.stale")
				goFallback(m)
				continue
			}
			m.finish(nil, err)
			continue
		}
		res, err := m.line.decodeResults(m.imp, sub.Msg.Data)
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
