package schooner

import (
	"fmt"
	"time"

	"npss/internal/vclock"
	"npss/internal/wire"
)

// CallPolicy bounds remote procedure calls so a Line.Call can never
// hang on a lost message, a dead process, or a partitioned machine.
// Transient wire failures (transport errors, timeouts, terminated
// processes) are retried with exponential backoff after re-asking the
// Manager for the procedure's current location; application errors
// returned by the procedure itself are surfaced immediately and never
// retried.
type CallPolicy struct {
	// Timeout is the per-attempt deadline covering one send/receive
	// round trip. Zero selects DefaultCallTimeout; negative disables
	// the deadline (the pre-fault-tolerance behavior).
	Timeout time.Duration
	// MaxRetries is the number of additional attempts after the first
	// for transient failures. Zero selects DefaultMaxRetries; negative
	// disables retrying.
	MaxRetries int
	// Backoff is the base delay before the first retry; each further
	// retry doubles it. Zero selects DefaultBackoff.
	Backoff time.Duration
	// MaxBackoff caps the doubled delay. Zero selects
	// DefaultMaxBackoff.
	MaxBackoff time.Duration
}

// Defaults for zero CallPolicy fields: bounded, so every call
// terminates even with no policy configured anywhere.
const (
	DefaultCallTimeout = 3 * time.Second
	DefaultMaxRetries  = 2
	DefaultBackoff     = 2 * time.Millisecond
	DefaultMaxBackoff  = 250 * time.Millisecond
)

// withDefaults fills zero fields with the default bounds.
func (p CallPolicy) withDefaults() CallPolicy {
	if p.Timeout == 0 {
		p.Timeout = DefaultCallTimeout
	}
	if p.MaxRetries == 0 {
		p.MaxRetries = DefaultMaxRetries
	}
	if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
	if p.Backoff == 0 {
		p.Backoff = DefaultBackoff
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = DefaultMaxBackoff
	}
	return p
}

// backoffFor computes the jittered delay before retry number n
// (0-based): half the exponential step plus the fraction f of the
// other half. f is a draw from the transport's jitter source, so
// colliding clients do not retry in lockstep.
func (p CallPolicy) backoffFor(n int, f float64) time.Duration {
	d := p.Backoff << uint(n)
	if d > p.MaxBackoff || d <= 0 {
		d = p.MaxBackoff
	}
	return d/2 + time.Duration(f*float64(d/2))
}

// timeoutError marks a receive that exceeded its deadline, so call
// sites can count timeouts separately from other transient failures.
type timeoutError struct {
	peer string
	d    time.Duration
}

func (e *timeoutError) Error() string {
	return fmt.Sprintf("schooner: receive from %s timed out after %v", e.peer, e.d)
}

// dial opens a demultiplexed connection from one host to addr, keeping
// time on clock. A refused dial is transient: the host may be
// mid-crash, with the Manager's failover about to repoint the names
// mapped to it; retry.
func dial(t Transport, clock vclock.Clock, from, addr string) (*demuxConn, error) {
	conn, err := t.Dial(from, addr)
	if err != nil {
		return nil, &staleError{fmt.Errorf("schooner: cannot reach %s: %w", addr, err)}
	}
	return newDemuxConn(conn, clock), nil
}

// roundTrip is the one-shot exchange every administrative query is
// made of: dial addr from one host, exchange on that connection alone,
// on the transport's clock and bounded by rpcTimeout, and close it.
func roundTrip(t Transport, from, addr string, req *wire.Message) (*wire.Message, error) {
	g, err := dial(t, t.Clock(), from, addr)
	if err != nil {
		return nil, err
	}
	defer g.Close()
	return g.exchange(req, rpcTimeout)
}
