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
// instead of one per call (Client.CallBatch; the serving side is
// Server.handleBatch).
//
// Batching is an optimization, never a semantic change: each call in a
// batch carries exactly the KCall message it would have carried alone,
// and a call that no envelope carries to its end runs alone, as
// Line.Go, with its full retry/rebind machinery.

// CrossCall names one procedure invocation of a Client.CallBatch: the
// call runs on its Line, with that line's import and binding.
type CrossCall struct {
	Line *Line
	Name string
	Args []uts.Value
}

// envelope is one machine's share of a batch: its members, marshaled
// and bound, its attempt span, and once it is on the wire, how to read
// its reply.
type envelope struct {
	host    string
	members []member
	att     *trace.Span
	reply   func() (*wire.Message, error)
}

// member is one call of an envelope: its index in the batch, its
// marshaled arguments and its binding.
type member struct {
	i    int
	imp  *uts.ProcSpec
	data []byte
	b    *binding
}

// batch is one CallBatch in progress.
type batch struct {
	c     *Client
	calls []CrossCall
	pends []*Pending
}

// CallBatch makes the given calls — possibly from different lines of
// this client — together, on the caller's goroutine, coalescing calls
// whose processes share a machine into one KBatch sent to that
// machine's Server. The Server fans the sub-calls out to its processes
// in-memory, so calls to procedures in different processes on one host
// still cost a single round trip. Every envelope is on the wire before
// any reply is read, so the machines' round trips overlap. It returns
// once every envelope has been answered, with one Pending per call, in
// order. A call no envelope carries to its end — alone on its machine,
// unbound, in an envelope that failed, or answered stale — is Line.Go
// of that call, so CallBatch never fails in a way Go would not.
func (c *Client) CallBatch(calls []CrossCall) []*Pending {
	bt := batch{c: c, calls: calls, pends: make([]*Pending, len(calls))}
	var envs []envelope
	for i, cc := range calls {
		imp, data, err := cc.Line.prepare(cc.Name, cc.Args)
		if err != nil {
			bt.settle(i, nil, err)
			continue
		}
		cc.Line.mu.Lock()
		b := cc.Line.bindings[cc.Name]
		cc.Line.mu.Unlock()
		if b == nil {
			// The per-call path retries the lookup.
			if b, err = cc.Line.lookup(cc.Name, imp, nil); err != nil {
				bt.alone(i)
				continue
			}
		}
		host := addrHost(b.addr)
		k := slices.IndexFunc(envs, func(e envelope) bool { return e.host == host })
		if k < 0 {
			k = len(envs)
			envs = append(envs, envelope{host: host})
		}
		envs[k].members = append(envs[k].members, member{i, imp, data, b})
	}
	for k := range envs {
		if e := &envs[k]; len(e.members) == 1 {
			bt.alone(e.members[0].i)
		} else {
			bt.send(e)
		}
	}
	for k := range envs {
		if e := &envs[k]; e.reply != nil {
			bt.receive(e)
		}
	}
	return bt.pends
}

// settle completes call i here, with the counter semantics of Call.
func (bt *batch) settle(i int, res []uts.Value, err error) {
	tally(err)
	bt.pends[i] = &Pending{res: res, err: err}
}

// alone runs call i by itself: Line.Go, which does its own counting.
func (bt *batch) alone(i int) {
	bt.pends[i] = bt.calls[i].Line.Go(bt.calls[i].Name, bt.calls[i].Args...)
}

// fail ends e's attempt span with err and runs every member alone. An
// envelope that cannot be delivered says nothing about the bindings
// behind its Server, so none is invalidated.
func (bt *batch) fail(e *envelope, err error) {
	e.att.Annotate("error", err.Error())
	e.att.End()
	for _, m := range e.members {
		bt.alone(m.i)
	}
}

// send puts e on the wire to its machine's Server as one KBatch, every
// sub-frame tagged with the process it is for, and sets e.reply to
// read the answer; an envelope it cannot send, it fails.
func (bt *batch) send(e *envelope) {
	g, err := bt.c.servers.get(bt.c.Transport, bt.c.Host, e.host+":"+ServerPort)
	if err != nil {
		bt.fail(e, err)
		return
	}
	// One attempt span covers the whole envelope's round trip; each
	// sub-call carries its context so the remote dispatch spans parent
	// under it and the wire transit shows up as the attempt's
	// self-time, exactly as on the per-call path.
	if trace.Enabled() {
		e.att = trace.StartSpan(fmt.Sprintf("attempt batch ×%d %s", len(e.members), e.host), bt.c.Host)
	}
	attCtx := e.att.Context()
	// The envelope payload is dead once send returns (every Conn
	// consumes a message in Send: netsim copies it, a stream encodes
	// it), so a pooled scratch buffer carries it; one request message
	// is reused across the sub-frames (AppendSub encodes it at once
	// and keeps nothing). Sub-frames carry no Seq: they are matched to
	// their replies by position.
	subs := wire.GetBuf()
	defer func() { wire.PutBuf(subs) }()
	var req wire.Message
	for _, m := range e.members {
		req = wire.Message{
			Kind: wire.KCall, Line: bt.calls[m.i].Line.id,
			Name: m.b.exportName, Str: m.imp.Signature(), Data: m.data,
			Trace: attCtx.Trace, Span: attCtx.Span,
		}
		if subs, err = wire.AppendSub(subs, m.b.addr, &req); err != nil {
			bt.fail(e, err)
			return
		}
	}
	req = wire.Message{Kind: wire.KBatch, Data: subs}
	timeout := bt.calls[e.members[0].i].Line.policy.Timeout
	slot, deadline, err := g.send(&req, timeout)
	if err != nil {
		bt.fail(e, err)
		return
	}
	trace.Count("schooner.client.rpcs")
	e.reply = func() (*wire.Message, error) { return g.wait(req.Seq, slot, deadline, timeout) }
}

// receive reads the reply to a sent envelope and distributes its
// sub-frames to the members, in request order. A member whose
// sub-reply carries the stale sentinel (the process died or moved
// mid-batch) runs alone; another error is the call's final outcome.
func (bt *batch) receive(e *envelope) {
	resp, err := e.reply()
	if err != nil {
		bt.fail(e, err)
		return
	}
	e.att.End()
	trace.Count("schooner.client.host_batches")
	if err := replyError(resp); err != nil {
		bt.failAll(e.members, err)
		return
	}
	// Walk the reply sub-frames in place; no intermediate slice.
	rest := resp.Data
	for k, m := range e.members {
		sub, r, err := wire.SplitSub(rest)
		if len(rest) == 0 {
			err = fmt.Errorf("schooner: batch of %d calls got %d replies", len(e.members), k)
		}
		if err != nil {
			bt.failAll(e.members[k:], err)
			return
		}
		rest = r
		ln := bt.calls[m.i].Line
		switch err := replyError(sub.Msg); {
		case isStale(err):
			ln.invalidate(bt.calls[m.i].Name, m.b)
			trace.Count("schooner.client.stale")
			bt.alone(m.i)
		case err != nil:
			bt.settle(m.i, nil, err)
		default:
			res, err := ln.decodeResults(m.imp, sub.Msg.Data)
			bt.settle(m.i, res, err)
		}
	}
}

// failAll settles every one of members with err.
func (bt *batch) failAll(members []member, err error) {
	for _, m := range members {
		bt.settle(m.i, nil, err)
	}
}
