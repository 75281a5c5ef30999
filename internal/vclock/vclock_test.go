package vclock

import (
	"errors"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// atProcs runs f at several GOMAXPROCS settings: nothing the virtual
// clock promises may depend on how many threads run its participants.
func atProcs(t *testing.T, f func(t *testing.T)) {
	for _, n := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(n)
		f(t)
		runtime.GOMAXPROCS(prev)
	}
}

// TestVirtualSleepNoWallTime checks that sleeping hours of virtual
// time costs essentially no real time.
func TestVirtualSleepNoWallTime(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	start := time.Now()
	v.Sleep(3 * time.Hour)
	if real := time.Since(start); real > 5*time.Second {
		t.Fatalf("3h virtual sleep took %v of real time", real)
	}
	if got := v.Elapsed(); got != 3*time.Hour {
		t.Fatalf("virtual clock advanced %v, want exactly 3h", got)
	}
}

// TestVirtualFiringOrder checks that sleepers wake in deadline order
// regardless of the order they went to sleep, and that sleepers due at
// one instant wake in the order they registered — at any GOMAXPROCS.
func TestVirtualFiringOrder(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		v := NewVirtual()
		defer v.Stop()
		var order []int // participants take turns, so no lock
		durations := []time.Duration{50, 10, 30, 10, 30, 10}
		for i, d := range durations {
			v.Go("sleeper", func() {
				v.Sleep(d * time.Millisecond)
				order = append(order, i)
			})
		}
		v.Sleep(time.Second)
		if want := []int{1, 3, 5, 2, 4, 0}; !reflect.DeepEqual(order, want) {
			t.Fatalf("wake order %v, want %v", order, want)
		}
	})
}

// TestVirtualNoFireWhileRunnable pins the invariant from the runnable
// side: a participant that computes for 50ms of real time without
// parking sees no time pass and no other participant's deadline fire.
func TestVirtualNoFireWhileRunnable(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	var fired atomic.Int32
	for i := 0; i < 4; i++ {
		v.Go("sleeper", func() {
			v.Sleep(time.Microsecond)
			fired.Add(1)
		})
	}
	t0 := v.Now()
	for start := time.Now(); time.Since(start) < 50*time.Millisecond; {
		if n := fired.Load(); n != 0 || !v.Now().Equal(t0) {
			t.Fatalf("%d deadlines fired and the clock moved %v while the driver was runnable", n, v.Since(t0))
		}
	}
	v.Sleep(time.Millisecond)
	if n := fired.Load(); n != 4 {
		t.Fatalf("%d of 4 sleepers woke once the driver parked", n)
	}
}

// TestVirtualTimerStop checks that a wait satisfied before its
// deadline leaves no timer behind: time later passes the deadline and
// the next wait on the same slot sees only its own.
func TestVirtualTimerStop(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	s := v.NewSlot()
	v.Go("filler", func() {
		v.Sleep(time.Minute)
		s.Fill("reply")
	})
	if x, ok := s.Wait(time.Hour); !ok || x != "reply" {
		t.Fatalf("Wait = %v, %v; want the reply", x, ok)
	}
	if got := v.Elapsed(); got != time.Minute {
		t.Fatalf("reply took %v of virtual time, want 1m", got)
	}
	v.Sleep(2 * time.Hour) // past the abandoned deadline
	if x, ok := s.Wait(time.Second); ok {
		t.Fatalf("empty slot yielded %v", x)
	}
	if got := v.Elapsed(); got != time.Minute+2*time.Hour+time.Second {
		t.Fatalf("clock at %v: a stale deadline fired", got)
	}
}

// TestVirtualTicker checks periodic firing in virtual time: Every
// ticks on a fixed grid however long each tick's work takes, skips
// the ticks that work overran, and passes each tick the instant it
// fell due.
func TestVirtualTicker(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	var ticks, due []time.Duration
	l := Every(v, "ticker", time.Second, func(at time.Time) bool {
		ticks = append(ticks, v.Elapsed())
		due = append(due, at.Sub(Epoch1993))
		if len(ticks) == 2 {
			v.Sleep(2500 * time.Millisecond) // overruns ticks 3 and 4
		} else {
			v.Sleep(100 * time.Millisecond)
		}
		return true
	})
	v.Sleep(6500 * time.Millisecond)
	l.Stop()
	want := []time.Duration{1 * time.Second, 2 * time.Second, 5 * time.Second, 6 * time.Second}
	if !reflect.DeepEqual(ticks, want) || !reflect.DeepEqual(due, want) {
		t.Fatalf("ticks at %v, due at %v, want %v", ticks, due, want)
	}
	if got := v.Elapsed(); got != 6500*time.Millisecond {
		t.Fatalf("Stop returned at %v, want at once (6.5s)", got)
	}
}

// TestLoopStop: Stop ends a loop and may be called again, also after
// fn ended the loop itself, on either clock.
func TestLoopStop(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	for _, c := range []Clock{v, Real()} {
		const interval = time.Millisecond
		ticks, ticked := 0, c.NewSlot()
		l := Every(c, "ticker", interval, func(time.Time) bool {
			ticks++
			ticked.Fill(nil)
			return true
		})
		ticked.Wait(0)
		l.Stop()
		n := ticks
		l.Stop()
		c.Sleep(3 * interval)
		if ticks != n {
			t.Errorf("%T: %d ticks after Stop", c, ticks-n)
		}

		ticks = 0
		ended := c.NewSlot()
		l = Every(c, "ticker", interval, func(time.Time) bool {
			if ticks++; ticks < 2 {
				return true
			}
			ended.Fill(nil)
			return false
		})
		ended.Wait(0)
		l.Stop()
		l.Stop()
		c.Sleep(3 * interval)
		if ticks != 2 {
			t.Errorf("%T: fn returned false on its 2nd tick, then ran %d ticks in all", c, ticks)
		}
	}
}

// TestEveryNonPositiveInterval: for an interval that is not positive
// Every starts nothing, since its grid would never move forward: no
// tick, no goroutine, and Stop returns at once, on either clock.
func TestEveryNonPositiveInterval(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	for _, c := range []Clock{v, Real()} {
		for _, interval := range []time.Duration{0, -1} {
			ticks := 0
			l := Every(c, "ticker", interval, func(time.Time) bool { ticks++; return true })
			l.Stop()
			l.Stop()
			if ticks != 0 {
				t.Errorf("Every(%v) on %T ticked %d times, want none", interval, c, ticks)
			}
		}
	}
	if _, starts := v.Handoffs(); starts["ticker"] != 0 || v.Elapsed() != 0 {
		t.Errorf("Every with a non-positive interval started %d goroutines and took %v", starts["ticker"], v.Elapsed())
	}
}

// TestSlotAwait: Await leaves the value it waited for in the slot, so
// every waiter of a slot filled once gets it, on either clock.
func TestSlotAwait(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	for _, c := range []Clock{v, Real()} {
		s, got := c.NewSlot(), NewQueue[any](c)
		for range 3 {
			c.Go("awaiter", func() {
				x, ok := s.Await()
				if !ok {
					x = "stopped"
				}
				got.Push(x)
			})
		}
		c.Sleep(time.Millisecond)
		s.Fill(7)
		for range 3 {
			if x, ok := got.Pop(); !ok || x != 7 {
				t.Errorf("%T: an awaiter got %v, %v, want 7", c, x, ok)
			}
		}
		if x, ok := s.Await(); !ok || x != 7 {
			t.Errorf("%T: Await of a filled slot = %v, %v, want 7", c, x, ok)
		}
	}
}

// TestVirtualStopReleasesWaiters checks that Stop releases sleepers,
// tickers and slot waiters of every kind and waits for them: when it
// returns the goroutine count is back where it started.
func TestVirtualStopReleasesWaiters(t *testing.T) {
	before := runtime.NumGoroutine()
	v := NewVirtual()
	never := v.NewSlot()
	q := NewQueue[int](v)
	v.Go("sleeper", func() { v.Sleep(1000 * time.Hour) })
	Every(v, "ticker", time.Hour, func(time.Time) bool { return true })
	v.Go("waiter", func() { never.Wait(0) })
	v.Go("deadline waiter", func() { never.Wait(1000 * time.Hour) })
	v.Go("consumer", func() {
		for _, ok := q.Pop(); ok; _, ok = q.Pop() {
		}
	})
	v.Go("anchor", func() { v.SleepUntil(v.Now().Add(24 * time.Hour)) })
	v.Sleep(90 * time.Minute) // everyone parked, the ticker once around
	if err := v.Stop(); err != nil {
		t.Fatal(err)
	}
	// Stop returns once the last participant has signed off, which is
	// the last thing it does before its goroutine ends.
	for spins := 0; runtime.NumGoroutine() > before; spins++ {
		if spins > 1e6 {
			t.Fatalf("%d goroutines before, %d after Stop", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
	// A stopped clock never parks anyone.
	v.Sleep(time.Hour)
	if _, ok := never.Wait(0); ok {
		t.Fatal("empty slot yielded a value on a stopped clock")
	}
	done := make(chan struct{})
	v.Go("late", func() { close(done) })
	<-done
}

// TestVirtualLedgerNamesTheStuck checks the failure mode of exact
// accounting: a participant blocked where the clock cannot see it
// holds time still, and the ledger — read from outside — names it. The
// same goes for teardown: Stop reports a goroutine it could not
// release by site instead of waiting it out.
func TestVirtualLedgerNamesTheStuck(t *testing.T) {
	defer func(d time.Duration) { stopGrace = d }(stopGrace)
	stopGrace = 50 * time.Millisecond
	v := NewVirtual()
	release := make(chan struct{})
	v.Go("blocked on a bare channel", func() {
		<-release
		v.Sleep(time.Hour)
		<-release
	})
	watchdog := make(chan string)
	go func() { // not a participant
		const stuck = "busy holders: blocked on a bare channel × 1; parked: driver × 1 (1 with deadlines, next in 1s)"
		for !strings.HasSuffix(v.Ledger(), stuck) {
			runtime.Gosched()
		}
		l := v.Ledger()
		release <- struct{}{}
		watchdog <- l
	}()
	v.Sleep(time.Second) // the turn passes to the goroutine that blocks
	if l := <-watchdog; !strings.HasPrefix(l, "at +0s;") {
		t.Fatalf("time moved while a participant was busy: %s", l)
	}
	err := v.Stop() // releases the hour's sleep, not the channel receive
	if err == nil || !strings.Contains(err.Error(), "still running: blocked on a bare channel × 1") {
		t.Fatalf("Stop = %v, want the straggler named", err)
	}
	close(release)
}

// TestSlotReplyRacesDeadline fills slots from outside the simulation
// while their waiters' deadlines expire, 10⁵ times: whichever wins,
// exactly one of them wakes the waiter, and the ledger ends balanced —
// one runnable participant, nobody parked, no timer left.
func TestSlotReplyRacesDeadline(t *testing.T) {
	rounds := 100000
	if testing.Short() {
		rounds = 10000
	}
	v := NewVirtual()
	slots := make(chan *Slot, 1)
	fillerDone := make(chan struct{})
	go func() { // not a participant: Fill is open to anyone
		defer close(fillerDone)
		for s := range slots {
			s.Fill(1)
		}
	}()
	replies := 0
	for i := 0; i < rounds; i++ {
		s := v.NewSlot()
		slots <- s
		if _, ok := s.Wait(time.Millisecond); ok {
			replies++
		}
	}
	close(slots)
	<-fillerDone
	if got := v.Elapsed(); got != time.Duration(rounds-replies)*time.Millisecond {
		t.Fatalf("%d timeouts but %v of virtual time", rounds-replies, got)
	}
	if l := v.Ledger(); !strings.HasSuffix(l, "busy holders: driver × 1; parked: none") {
		t.Fatalf("ledger unbalanced after %d rounds (%d replies): %s", rounds, replies, l)
	}
	if len(v.timers) != 0 || len(v.ready) != 0 {
		t.Fatalf("%d timers and %d ready waiters left behind", len(v.timers), len(v.ready))
	}
	if err := v.Stop(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d replies beat their deadline", replies, rounds)
}

// TestQueueOrderAndClose checks the FIFO on both clocks.
func TestQueueOrderAndClose(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	for _, c := range []Clock{Real(), v} {
		q := NewQueue[int](c)
		got := make(chan []int, 1)
		c.Go("consumer", func() {
			var seen []int
			for x, ok := q.Pop(); ok; x, ok = q.Pop() {
				seen = append(seen, x)
			}
			got <- seen
		})
		for i := 0; i < 5; i++ {
			if !q.Push(i) {
				t.Fatal("push on an open queue failed")
			}
		}
		if c == v {
			v.Sleep(time.Millisecond) // let the consumer drain, then park
			if q.Len() != 0 {
				t.Fatalf("%d items left after the consumer's turn", q.Len())
			}
		}
		q.Push(5)
		q.Close()
		if q.Push(6) {
			t.Fatal("push on a closed queue succeeded")
		}
		if c == v {
			v.Sleep(time.Millisecond)
		}
		if seen := <-got; !reflect.DeepEqual(seen, []int{0, 1, 2, 3, 4, 5}) {
			t.Fatalf("popped %v", seen)
		}
	}
}

// TestQueuePopUntil checks the deadline-bounded pop on both clocks: an
// empty queue times out at the deadline, an item already queued is
// taken past it, and a closed queue reports closed, not a timeout.
func TestQueuePopUntil(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	for _, c := range []Clock{Real(), v} {
		q := NewQueue[int](c)
		deadline := c.Now().Add(5 * time.Millisecond)
		if _, err := q.PopUntil(deadline); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("PopUntil on an empty queue = %v, want os.ErrDeadlineExceeded", err)
		}
		if now := c.Now(); now.Before(deadline) || (c == v && !now.Equal(deadline)) {
			t.Fatalf("timed out %v after the deadline", now.Sub(deadline))
		}
		q.Push(1)
		if x, err := q.PopUntil(deadline); err != nil || x != 1 {
			t.Fatalf("PopUntil past the deadline with an item queued = %v, %v", x, err)
		}
		q.Close()
		if _, err := q.PopUntil(c.Now().Add(time.Hour)); !errors.Is(err, ErrClosed) {
			t.Fatalf("PopUntil on a closed queue = %v, want ErrClosed", err)
		}
	}
}

// TestVirtualTurnAllocatesNothing pins the cost of a turn: a Fill/Wait
// round trip between the driver and one echo participant reuses the
// clock's ready list and the slots' waiter lists, so it allocates
// nothing once warm.
func TestVirtualTurnAllocatesNothing(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	ping, pong := v.NewSlot(), v.NewSlot()
	v.Go("echo", func() {
		for x, ok := ping.Wait(0); ok; x, ok = ping.Wait(0) {
			pong.Fill(x)
		}
	})
	ball := new(int)
	allocs := testing.AllocsPerRun(1000, func() {
		ping.Fill(ball)
		pong.Wait(0)
	})
	if allocs > poolSlack {
		t.Errorf("a Fill/Wait round trip allocates %v objects, want 0 (slack %v)", allocs, poolSlack)
	}
}

// poolSlack is how many objects a warm turn may allocate because
// sync.Pool lost a pooled waiter: none in a plain build.
var poolSlack = 0.0

// TestVirtualHandoffs: the clock counts a turn per wake-up and a start
// per Go, by site. The driver's first turn is its creation, not a
// wake-up.
func TestVirtualHandoffs(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	done := v.NewSlot()
	v.Go("sleeper", func() {
		v.Sleep(time.Second)
		v.Sleep(time.Second)
		done.Fill(nil)
	})
	done.Wait(0)
	turns, starts := v.Handoffs()
	if want := map[string]int{"sleeper": 3, "driver": 1}; !reflect.DeepEqual(turns, want) {
		t.Errorf("turns = %v, want %v", turns, want)
	}
	if want := map[string]int{"sleeper": 1}; !reflect.DeepEqual(starts, want) {
		t.Errorf("starts = %v, want %v", starts, want)
	}
}

// TestRealSlotReusesItsTimer: a bounded wait on a real-clock slot
// re-arms the slot's one timer instead of building a new one, and a
// second waiter at the same time still gets a deadline of its own.
func TestRealSlotReusesItsTimer(t *testing.T) {
	s := Real().NewSlot()
	go func() { time.Sleep(time.Millisecond); s.Fill(1) }()
	if x, ok := s.Wait(time.Hour); !ok || x != 1 {
		t.Fatalf("Wait = %v, %v, want the value filled before the deadline", x, ok)
	}
	t0 := time.Now()
	if _, ok := s.Wait(5 * time.Millisecond); ok {
		t.Fatal("empty slot yielded a value")
	}
	if d := time.Since(t0); d < 5*time.Millisecond {
		t.Fatalf("a re-armed wait timed out after %v, want at least 5ms", d)
	}
	if allocs := testing.AllocsPerRun(20, func() { s.Wait(time.Microsecond) }); allocs != 0 {
		t.Errorf("a bounded wait allocates %v objects, want 0", allocs)
	}
	errs := make(chan bool, 2)
	for i := 0; i < 2; i++ {
		go func() { _, ok := s.Wait(time.Millisecond); errs <- ok }()
	}
	for i := 0; i < 2; i++ {
		if <-errs {
			t.Fatal("empty slot yielded a value to a concurrent waiter")
		}
	}
}

// TestQueuePeekUntil: a peek leaves the item for the next pop, and
// times out like PopUntil on an empty queue.
func TestQueuePeekUntil(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	q := NewQueue[int](v)
	if _, err := q.PeekUntil(v.Now().Add(time.Second)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("PeekUntil on an empty queue = %v, want os.ErrDeadlineExceeded", err)
	}
	q.Push(1)
	q.Push(2)
	if x, err := q.PeekUntil(time.Time{}); err != nil || x != 1 {
		t.Fatalf("PeekUntil = %v, %v, want 1", x, err)
	}
	for want := 1; want <= 2; want++ {
		if x, ok := q.Pop(); !ok || x != want {
			t.Fatalf("Pop after a peek = %v, %v, want %d", x, ok, want)
		}
	}
}

// TestRealClock smoke-tests the wall-clock implementation.
func TestRealClock(t *testing.T) {
	c := Real()
	t0 := c.Now()
	c.Sleep(time.Millisecond)
	if c.Since(t0) <= 0 {
		t.Fatal("real clock did not advance")
	}
	s := c.NewSlot()
	if _, ok := s.Wait(time.Millisecond); ok {
		t.Fatal("empty slot yielded a value")
	}
	c.Go("filler", func() { s.Fill(7) })
	if x, ok := s.Wait(0); !ok || x != 7 {
		t.Fatalf("Wait = %v, %v", x, ok)
	}
	if !s.Fill(1) || s.Fill(2) {
		t.Fatal("a slot holds exactly one value")
	}
	if x, ok := s.WaitUntil(c.Now()); !ok || x != 1 {
		t.Fatalf("WaitUntil(now) on a full slot = %v, %v", x, ok)
	}
	c.Go("filler", func() { c.Sleep(time.Millisecond); s.Fill(3) })
	if x, ok := s.WaitUntil(time.Time{}); !ok || x != 3 {
		t.Fatalf("WaitUntil(zero) = %v, %v, want to wait without a deadline", x, ok)
	}
	ticks, ended := 0, c.NewSlot()
	Every(c, "ticker", time.Millisecond, func(time.Time) bool {
		if ticks++; ticks < 3 {
			return true
		}
		ended.Fill(nil)
		return false
	})
	ended.Wait(0)
	if ticks != 3 {
		t.Fatalf("Every ran %d ticks", ticks)
	}
}
