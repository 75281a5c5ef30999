package netsim

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"npss/internal/vclock"
	"npss/internal/wire"
)

// delivery is one message in flight with its simulated arrival time.
type delivery struct {
	msg     *wire.Message
	arrival time.Time // arrival on the network's clock under the current TimeScale
}

// queue is one direction of a connection: the link's shaping state in
// front of a clock-parked FIFO, so on a virtual clock a message nobody
// has received yet keeps its receiver runnable.
type queue struct {
	mu sync.Mutex // orders shaping and enqueueing as one step
	q  vclock.Queue[delivery]
	// lastArrival keeps deliveries in order: a message cannot arrive
	// before its predecessor on the same direction.
	lastArrival time.Time
	// busyUntil models link serialization under a nonzero TimeScale: a
	// message's transmission cannot start before the previous one has
	// finished transmitting.
	busyUntil time.Time
}

func newQueue(c vclock.Clock) *queue {
	q := new(queue)
	q.q.Init(c)
	return q
}

// pushShaped enqueues a message whose transmission takes serial time
// on the link (serialized behind earlier messages) followed by prop
// propagation delay, both already scaled by the network's TimeScale.
// now is the send time on the network's clock.
func (q *queue) pushShaped(msg *wire.Message, now time.Time, serial, prop time.Duration) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	start := now
	if q.busyUntil.After(start) {
		start = q.busyUntil
	}
	busyUntil := start.Add(serial)
	arrival := busyUntil.Add(prop)
	if arrival.Before(q.lastArrival) {
		arrival = q.lastArrival
	}
	if !q.q.Push(delivery{msg: msg, arrival: arrival}) {
		return fmt.Errorf("netsim: send on closed connection")
	}
	q.busyUntil, q.lastArrival = busyUntil, arrival
	return nil
}

// peek returns the next delivery, leaving it queued, waiting no later
// than deadline (none if zero): past it, the error is
// os.ErrDeadlineExceeded.
func (q *queue) peek(deadline time.Time) (delivery, error) {
	d, err := q.q.PeekUntil(deadline)
	if errors.Is(err, vclock.ErrClosed) {
		return delivery{}, fmt.Errorf("netsim: connection closed")
	}
	return d, err
}

func (q *queue) close() { q.q.Close() }

// simConn is one endpoint of a shaped in-memory connection.
type simConn struct {
	net        *Network
	link       LinkSpec
	local      string
	remote     string
	in, out    *queue
	closedOnce sync.Once
	// deadline bounds Recv, in Unix nanoseconds on the network's clock;
	// 0 is none. Atomic, so it can be set while a Recv waits.
	deadline atomic.Int64
}

// newConnPair builds the two endpoints of a connection traversing the
// given link.
func newConnPair(n *Network, link LinkSpec, clientHost, serverHost string) (client, server *simConn) {
	clock := n.Clock()
	a2b := newQueue(clock)
	b2a := newQueue(clock)
	client = &simConn{net: n, link: link, local: clientHost, remote: serverHost, in: b2a, out: a2b}
	server = &simConn{net: n, link: link, local: serverHost, remote: clientHost, in: a2b, out: b2a}
	n.openConns.Add(2)
	return client, server
}

// Send shapes and enqueues a message toward the peer. The simulated
// delay (latency plus serialization) is recorded on the link; the
// receiver sleeps the TimeScale-scaled portion of it.
func (c *simConn) Send(m *wire.Message) error {
	if c.net.pathDown(c.local, c.remote) {
		return fmt.Errorf("netsim: link %s-%s down", c.local, c.remote)
	}
	// The receiver gets its own copy of the payload — the isolation a
	// real network provides; strings are immutable and shared. The link
	// charges the length of the message's encoding.
	size, err := m.Size()
	if err != nil {
		return err
	}
	copyMsg := *m
	copyMsg.Data = nil
	if len(m.Data) > 0 {
		copyMsg.Data = append([]byte(nil), m.Data...)
	}
	// Fault injection: a dropped message consumes the wire but never
	// arrives — the sender cannot tell, exactly as on a real network.
	drop, jitter := c.net.faultFor(c.local, c.remote)
	if drop {
		c.net.accountDrop(c.link, size)
		return nil
	}
	delay := c.link.Delay(size) + jitter
	c.net.account(c.link, size, delay)
	scale := c.net.scale()
	serial := time.Duration(float64(delay-c.link.Latency-jitter) * scale) // transmission time
	prop := time.Duration(float64(c.link.Latency+jitter) * scale)
	return c.out.pushShaped(&copyMsg, c.net.Clock().Now(), serial, prop)
}

// Recv blocks for the next message, honoring its shaped arrival time
// and the read deadline. A message that would arrive at or after the
// deadline is a timeout at the deadline, as a reply racing its
// caller's timer loses the tie; it stays queued for the next Recv.
func (c *simConn) Recv() (*wire.Message, error) {
	var deadline time.Time
	if ns := c.deadline.Load(); ns != 0 {
		deadline = time.Unix(0, ns)
	}
	d, err := c.in.peek(deadline)
	if err != nil {
		return nil, err
	}
	if !deadline.IsZero() && !d.arrival.Before(deadline) {
		c.net.Clock().SleepUntil(deadline)
		return nil, os.ErrDeadlineExceeded
	}
	c.net.Clock().SleepUntil(d.arrival)
	c.in.q.Pop() // d, which only this receiver takes
	if c.net.pathDown(c.local, c.remote) {
		return nil, fmt.Errorf("netsim: link %s-%s down", c.local, c.remote)
	}
	return d.msg, nil
}

// SetReadDeadline bounds every later Recv; a zero t removes the bound.
func (c *simConn) SetReadDeadline(t time.Time) error {
	var ns int64
	if !t.IsZero() {
		ns = t.UnixNano()
	}
	c.deadline.Store(ns)
	return nil
}

// Close closes both directions; peers see closed-connection errors
// after draining queued messages. Across a down path the peer never
// hears of it, as a dead host sends nothing: it stops reading only when
// it closes its own end, after its deadline or a failed send.
func (c *simConn) Close() error {
	c.closedOnce.Do(func() {
		c.in.close()
		if !c.net.pathDown(c.local, c.remote) {
			c.out.close()
		}
		c.net.openConns.Add(-1)
	})
	return nil
}

// RemoteLabel names the peer host.
func (c *simConn) RemoteLabel() string { return c.remote }
