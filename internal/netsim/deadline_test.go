package netsim

import (
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"npss/internal/vclock"
	"npss/internal/wire"
)

// deadlinePair connects two hosts over a 10 ms link on a virtual
// clock, the way a deterministic simulation runs it.
func deadlinePair(t *testing.T) (v *vclock.Virtual, client, server wire.Conn) {
	t.Helper()
	n, a, b := twoHosts(t)
	v = vclock.NewVirtual()
	t.Cleanup(func() { v.Stop() })
	n.SetClock(v)
	n.SetTimeScale(1)
	n.SetLink("avs-sparc", "cray-lerc", LinkSpec{Name: "test", Latency: 10 * time.Millisecond})
	l, err := b.Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	if client, err = a.Dial(l.Addr()); err != nil {
		t.Fatal(err)
	}
	if server, err = l.Accept(); err != nil {
		t.Fatal(err)
	}
	return v, client, server
}

// TestRecvDeadline pins the read deadline's contract on the virtual
// clock, where every instant is exact.
func TestRecvDeadline(t *testing.T) {
	ping := &wire.Message{Kind: wire.KPing}
	const latency = 10 * time.Millisecond

	t.Run("ArrivalBeforeDeadlineDelivered", func(t *testing.T) {
		v, c, srv := deadlinePair(t)
		t0 := v.Now()
		c.SetReadDeadline(t0.Add(latency + time.Nanosecond))
		srv.Send(ping)
		if m, err := c.Recv(); err != nil || m.Kind != wire.KPing {
			t.Fatalf("Recv = %v, %v, want the ping", m, err)
		}
		if got := v.Since(t0); got != latency {
			t.Errorf("delivered after %v, want the link's %v", got, latency)
		}
	})

	t.Run("ArrivalAtDeadlineTimesOut", func(t *testing.T) {
		v, c, srv := deadlinePair(t)
		t0 := v.Now()
		c.SetReadDeadline(t0.Add(latency))
		srv.Send(ping)
		if m, err := c.Recv(); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("Recv of a message arriving at the deadline = %v, %v, want a timeout", m, err)
		}
		if got := v.Since(t0); got != latency {
			t.Errorf("timed out after %v, want %v", got, latency)
		}
	})

	t.Run("TimedOutRecvLeavesTheMessage", func(t *testing.T) {
		v, c, srv := deadlinePair(t)
		t0 := v.Now()
		c.SetReadDeadline(t0.Add(latency / 2))
		srv.Send(ping)
		if m, err := c.Recv(); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("Recv before the arrival = %v, %v, want a timeout", m, err)
		}
		c.SetReadDeadline(t0.Add(time.Hour))
		if m, err := c.Recv(); err != nil || m.Kind != wire.KPing {
			t.Fatalf("Recv after a timeout = %v, %v, want the ping it left queued", m, err)
		}
		if got := v.Since(t0); got != latency {
			t.Errorf("delivered after %v, want the link's %v", got, latency)
		}
	})

	t.Run("EmptyQueueTimesOutAtDeadline", func(t *testing.T) {
		v, c, _ := deadlinePair(t)
		t0 := v.Now()
		c.SetReadDeadline(t0.Add(3 * time.Second))
		if m, err := c.Recv(); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("Recv on a silent connection = %v, %v, want a timeout", m, err)
		}
		if got := v.Since(t0); got != 3*time.Second {
			t.Errorf("timed out after %v of virtual time, want exactly 3s", got)
		}
	})

	t.Run("ClearedDeadlineUnbounded", func(t *testing.T) {
		v, c, srv := deadlinePair(t)
		t0 := v.Now()
		c.SetReadDeadline(t0.Add(time.Second))
		c.SetReadDeadline(time.Time{})
		v.Go("late-sender", func() {
			v.Sleep(time.Hour)
			srv.Send(ping)
		})
		if m, err := c.Recv(); err != nil || m.Kind != wire.KPing {
			t.Fatalf("Recv with the deadline cleared = %v, %v, want the ping", m, err)
		}
		if got := v.Since(t0); got != time.Hour+latency {
			t.Errorf("delivered after %v, want %v", got, time.Hour+latency)
		}
	})

	t.Run("CloseWhileWaitingIsNotATimeout", func(t *testing.T) {
		v, c, srv := deadlinePair(t)
		t0 := v.Now()
		c.SetReadDeadline(t0.Add(time.Hour))
		v.Go("closer", func() {
			v.Sleep(latency)
			srv.Close()
		})
		_, err := c.Recv()
		if err == nil || errors.Is(err, os.ErrDeadlineExceeded) || !strings.Contains(err.Error(), "closed") {
			t.Fatalf("Recv on a connection closed under it = %v, want closed", err)
		}
		if got := v.Since(t0); got != latency {
			t.Errorf("closed receive returned after %v, want %v", got, latency)
		}
	})
}
