package schooner

import (
	"sync/atomic"
	"time"

	"npss/internal/vclock"
)

// clockBox wraps the interface value so it fits atomic.Pointer.
type clockBox struct{ c vclock.Clock }

// clockPtr is the package clock every timed operation reads: retry
// backoff, per-attempt call deadlines, Manager RPC deadlines, and the
// health prober's sweep ticker. It defaults to the wall clock; the
// deterministic simulation harness swaps in a vclock.Virtual so the
// whole runtime keeps time on the simulation's clock.
var clockPtr atomic.Pointer[clockBox]

func init() { clockPtr.Store(&clockBox{c: vclock.Real()}) }

// clk reads the package clock.
func clk() vclock.Clock { return clockPtr.Load().c }

// DefaultVirtualRetrySeed seeds the retry-jitter RNG when a virtual
// clock is installed without an explicit SetRetrySeed, so virtual-time
// runs are deterministic by default rather than inheriting the
// wall-clock seed chosen at process start.
const DefaultVirtualRetrySeed = 1993

// SwapClock installs c as the package clock and returns the previous
// one; nil restores the wall clock. Installing a virtual clock also
// re-seeds the retry-jitter RNG deterministically (see
// DefaultVirtualRetrySeed) — callers wanting a specific jitter
// sequence call SetRetrySeed afterwards. Swap the clock only while no
// calls are in flight.
func SwapClock(c vclock.Clock) vclock.Clock {
	if c == nil {
		c = vclock.Real()
	}
	prev := clockPtr.Swap(&clockBox{c: c})
	if _, virtual := c.(*vclock.Virtual); virtual {
		SetRetrySeed(DefaultVirtualRetrySeed)
	}
	return prev.c
}

// await parks until a one-shot event has been signalled, and leaves it
// signalled for whoever else waits on it. It reports false when the
// wait was cut short instead: the virtual clock under it has stopped.
func await(event *vclock.Slot) bool {
	_, ok := event.Wait(0)
	if ok {
		event.Fill(nil)
	}
	return ok
}

// loop is a periodic background task on the package clock.
type loop struct {
	stop *vclock.Slot // filled to end it
	done *vclock.Slot // filled once it has returned
}

// every starts fn running once per interval of the package clock, so
// with a virtual clock installed it advances purely in virtual time.
func every(site string, interval time.Duration, fn func()) *loop {
	c := clk()
	l := &loop{stop: c.NewSlot(), done: c.NewSlot()}
	c.Go(site, func() {
		defer l.done.Fill(nil)
		vclock.Every(c, interval, l.stop, func() bool { fn(); return true })
	})
	return l
}

// halt ends the loop, waiting for a tick in flight to finish.
func (l *loop) halt() {
	l.stop.Fill(nil)
	l.done.Wait(0)
}
