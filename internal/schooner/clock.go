package schooner

import (
	"time"

	"npss/internal/vclock"
)

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

// loop is a periodic background task on a component's clock.
type loop struct {
	stop *vclock.Slot // filled to end it
	done *vclock.Slot // filled once it has returned
}

// every starts fn running once per interval of clock c, so on a
// virtual clock it advances purely in virtual time.
func every(c vclock.Clock, site string, interval time.Duration, fn func()) *loop {
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
