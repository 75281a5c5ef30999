// Package vclock abstracts the passage of time behind a Clock
// interface with two implementations: the real wall clock, and a
// virtual clock whose time advances deterministically, driven only by
// the sleeps and waits registered against it.
//
// The virtual clock is the foundation of deterministic simulation
// testing (package dst). It does not guess when the simulation has
// gone quiet: it keeps a ledger of its participants — the goroutine
// that created it and every goroutine started with Go — and of which
// of them are runnable. A participant stops being runnable only by
// parking on the clock (Sleep, SleepUntil, Slot.Wait) or by returning,
// and becomes runnable again only when the clock or another
// participant wakes it, the wake-up carrying its place in the ledger
// with it. Time advances iff nobody is runnable, at once, from
// whichever participant parks last.
//
// Runnable participants take turns, in the order they were woken, so a
// run is a pure function of its inputs at any GOMAXPROCS. The price is
// a rule: inside a simulation every goroutine is started with Go and
// every wait that can outlast the current instant goes through the
// clock. A participant blocked on something the clock cannot see
// freezes time; Ledger names it.
//
// On the real clock Go is a go statement and a Slot is a one-place
// channel with a time.Timer beside it, re-armed by each bounded wait.
package vclock

import (
	"container/heap"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Clock tells time, starts goroutines and parks them. The
// package-level Real clock delegates to package time and the Go
// scheduler; a Virtual clock runs the same API against simulated time.
type Clock interface {
	// Now reports the current time on this clock.
	Now() time.Time
	// Since is Now().Sub(t).
	Since(t time.Time) time.Duration
	// Until is t.Sub(Now()).
	Until(t time.Time) time.Duration
	// Sleep pauses the calling goroutine for at least d of this
	// clock's time. Non-positive d returns at once.
	Sleep(d time.Duration)
	// SleepUntil pauses until the clock reaches t.
	SleepUntil(t time.Time)
	// Go runs fn on a new goroutine that takes part in this clock's
	// time: a virtual clock counts it runnable from here until fn
	// returns, except while it is parked on the clock. site is a static
	// name for diagnostics.
	Go(site string, fn func())
	// NewSlot returns an empty Slot whose waits run on this clock.
	NewSlot() *Slot
}

// Slot is the clock's wait primitive: a one-place mailbox that is
// filled or times out. Fill never blocks; Wait takes the value,
// parking the caller until there is one. A Slot may be reused, and any
// number of goroutines may wait on it: each Fill releases one of them,
// oldest first.
type Slot struct {
	ch chan any // real clock
	// timer bounds a real-clock wait. The waiter that claims it re-arms
	// it; one that finds it claimed builds its own.
	timer   *time.Timer
	claimed atomic.Bool

	v       *Virtual // virtual clock; the rest is guarded by v.mu
	full    bool
	val     any
	waiters []*waiter
}

// Fill puts x in the slot, handing it straight to the oldest waiter if
// there is one. It reports false, leaving the slot alone, when the
// slot already holds a value nobody has taken.
func (s *Slot) Fill(x any) bool {
	if s.v != nil {
		return s.v.fill(s, x)
	}
	select {
	case s.ch <- x:
		return true
	default:
		return false
	}
}

// Wait takes the slot's value, parking until it is filled or timeout
// of the clock's time has passed; ok is false on timeout. A
// non-positive timeout waits without a deadline. On a stopped virtual
// clock Wait never parks: an empty slot reports ok false at once.
func (s *Slot) Wait(timeout time.Duration) (x any, ok bool) {
	if s.v != nil {
		return s.v.wait(s, timeout, time.Time{})
	}
	if timeout <= 0 {
		return <-s.ch, true
	}
	select {
	case x = <-s.ch:
		return x, true
	default:
	}
	var t *time.Timer
	if s.claimed.CompareAndSwap(false, true) {
		defer s.claimed.Store(false)
		if t = s.timer; t == nil {
			t = time.NewTimer(timeout)
			s.timer = t
		} else {
			t.Reset(timeout)
		}
	} else {
		t = time.NewTimer(timeout)
	}
	select {
	case x = <-s.ch:
		if !t.Stop() {
			// go.mod says go 1.22, so a timer that fired keeps its tick
			// in the channel, where the next Reset would find it.
			select {
			case <-t.C:
			default:
			}
		}
		return x, true
	case <-t.C:
		return nil, false
	}
}

// WaitUntil is Wait with an absolute deadline; a deadline already
// reached takes the value only if it is there, and a zero one is none.
func (s *Slot) WaitUntil(t time.Time) (x any, ok bool) {
	if s.v != nil {
		return s.v.wait(s, 0, t)
	}
	if t.IsZero() {
		return <-s.ch, true
	}
	if d := time.Until(t); d > 0 {
		return s.Wait(d)
	}
	select {
	case x = <-s.ch:
		return x, true
	default:
		return nil, false
	}
}

// now reads the clock the slot's waits run on.
func (s *Slot) now() time.Time {
	if s.v != nil {
		return s.v.Now()
	}
	return time.Now()
}

// Await waits for the slot's value and leaves it there for the next
// waiter: a Slot filled once is an event anyone may wait for. ok is
// false when the wait was cut short instead, which only a stopped
// virtual clock does.
func (s *Slot) Await() (x any, ok bool) {
	if x, ok = s.Wait(0); ok {
		s.Fill(x)
	}
	return x, ok
}

// Loop is a periodic task started by Every.
type Loop struct {
	stop *Slot // filled to end it
	done *Slot // filled once it has returned
}

// Every starts a participant of c, named site, that calls fn once per
// interval of c's time on a fixed grid from now, passing the instant
// each tick fell due. A tick that falls due while fn runs is skipped,
// not queued. The loop ends when fn returns false, when Stop is
// called, or when a wait comes back early, which only a stopped
// virtual clock does. For an interval that is not positive it starts
// nothing: its grid would never move forward.
func Every(c Clock, site string, interval time.Duration, fn func(at time.Time) bool) *Loop {
	l := &Loop{stop: c.NewSlot(), done: c.NewSlot()}
	if interval <= 0 {
		l.done.Fill(nil)
		return l
	}
	next := c.Now().Add(interval)
	c.Go(site, func() {
		defer l.done.Fill(nil)
		for {
			if _, stopped := l.stop.WaitUntil(next); stopped || c.Now().Before(next) || !fn(next) {
				return
			}
			for now := c.Now(); !next.After(now); {
				next = next.Add(interval)
			}
		}
	})
	return l
}

// Stop ends the loop, waiting for a tick in flight to finish. It may
// be called any number of times, also after the loop has ended.
func (l *Loop) Stop() {
	l.stop.Fill(nil)
	l.done.Await()
}

// realClock delegates to package time.
type realClock struct{}

// Real returns the wall clock.
func Real() Clock { return realClock{} }

func (realClock) Now() time.Time                  { return time.Now() }
func (realClock) Since(t time.Time) time.Duration { return time.Since(t) }
func (realClock) Until(t time.Time) time.Duration { return time.Until(t) }
func (realClock) Sleep(d time.Duration)           { time.Sleep(d) }
func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
func (realClock) Go(_ string, fn func()) { go fn() }
func (realClock) NewSlot() *Slot         { return &Slot{ch: make(chan any, 1)} }

// Epoch1993 is the default origin of virtual time: the month the
// paper's HPDC-2 proceedings went to press. Any fixed origin works;
// a recognizable one makes timeline dumps self-describing.
var Epoch1993 = time.Date(1993, time.July, 1, 0, 0, 0, 0, time.UTC)

// driver is the ledger name of the goroutine that created the clock.
const driver = "driver"

// waiter is one parked participant.
type waiter struct {
	site  string
	ch    chan struct{} // capacity 1: the wake-up
	slot  *Slot         // what it waits on; nil for a plain sleep
	timed bool
	when  time.Time
	seq   uint64 // registration order among equal deadlines
	idx   int    // position in the timer heap
	val   any
	ok    bool
}

var waiterPool = sync.Pool{New: func() any { return &waiter{ch: make(chan struct{}, 1)} }}

// timerHeap orders timed waiters by (deadline, registration).
type timerHeap []*waiter

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *timerHeap) Push(x any)   { w := x.(*waiter); w.idx = len(*h); *h = append(*h, w) }
func (h *timerHeap) Pop() any {
	old := *h
	w := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return w
}

// Virtual is a deterministic clock. The invariant: time advances iff
// no participant is runnable, and a wake-up moves the woken participant
// into the runnable ledger under the same lock that took it off the
// parked one, so there is no instant at which everyone looks parked
// while a wake-up is in flight. Runnable participants run one at a
// time in wake order; waiters due at one instant wake in registration
// order.
//
// The goroutine that calls NewVirtual is the first participant. Only
// participants may park; anyone may Fill a Slot.
type Virtual struct {
	mu     sync.Mutex
	now    time.Time
	origin time.Time
	seq    uint64

	cur    string               // site of the participant whose turn it is; "" when all are parked
	ready  []*waiter            // woken, waiting for their turn, in wake order
	busy   map[string]int       // runnable participants by site: cur plus ready
	timers timerHeap            // parked with a deadline
	parked map[*waiter]struct{} // every parked participant, for Stop and Ledger

	turns  map[string]int // turns passed, by the site that took them
	starts map[string]int // goroutines started with Go, by site

	halted bool
	live   map[string]int // goroutines started with Go and not yet returned, by site
	nlive  int
	idle   chan struct{} // closed once halted and nlive is zero
}

// NewVirtual creates a virtual clock starting at Epoch1993. The caller
// becomes its first participant and must call Stop when the
// simulation is over.
func NewVirtual() *Virtual {
	return &Virtual{
		now:    Epoch1993,
		origin: Epoch1993,
		cur:    driver,
		busy:   map[string]int{driver: 1},
		parked: make(map[*waiter]struct{}),
		turns:  make(map[string]int),
		starts: make(map[string]int),
		live:   make(map[string]int),
		idle:   make(chan struct{}),
	}
}

// stopGrace bounds how long Stop waits, in real time, for released
// goroutines to return.
var stopGrace = 5 * time.Second

// Stop freezes time and releases every parked participant: sleeps
// return, waits report a timeout, and from here on nothing parks and
// goroutines run freely. It then waits for every goroutine started
// with Go to return. One that does not within a few real seconds is
// blocked on something the clock cannot release; Stop gives up on it
// and returns the ledger naming it.
func (v *Virtual) Stop() error {
	v.mu.Lock()
	if !v.halted {
		v.halted = true
		for w := range v.parked {
			w.ch <- struct{}{}
		}
		for _, w := range v.ready {
			w.ch <- struct{}{}
		}
		v.parked, v.ready, v.timers = nil, nil, nil
		v.settle()
	}
	v.mu.Unlock()
	t := time.NewTimer(stopGrace)
	defer t.Stop()
	select {
	case <-v.idle:
		return nil
	case <-t.C:
		return fmt.Errorf("vclock: %v after Stop, %s", stopGrace, v.Ledger())
	}
}

// settle tells a waiting Stop that the last goroutine has returned.
func (v *Virtual) settle() {
	if v.nlive == 0 {
		select {
		case <-v.idle:
		default:
			close(v.idle)
		}
	}
}

// Ledger describes who holds time still — the runnable participants by
// site — and who is parked on what. It is the first thing to read when
// a simulation hangs: a site listed as busy that should be waiting is
// blocked somewhere the clock cannot see.
func (v *Virtual) Ledger() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	parked := make(map[string]int)
	var next time.Duration
	timed := 0
	for w := range v.parked {
		parked[w.site]++
		if w.timed {
			if d := w.when.Sub(v.now); timed == 0 || d < next {
				next = d
			}
			timed++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "at +%v", v.now.Sub(v.origin))
	if v.halted {
		b.WriteString(" stopped; still running:")
		writeCounts(&b, v.live)
		return b.String()
	}
	b.WriteString("; busy holders:")
	writeCounts(&b, v.busy)
	b.WriteString("; parked:")
	writeCounts(&b, parked)
	if timed > 0 {
		fmt.Fprintf(&b, " (%d with deadlines, next in %v)", timed, next)
	}
	return b.String()
}

func writeCounts(b *strings.Builder, m map[string]int) {
	sites := make([]string, 0, len(m))
	for s, n := range m {
		if n != 0 {
			sites = append(sites, s)
		}
	}
	if len(sites) == 0 {
		b.WriteString(" none")
		return
	}
	sort.Strings(sites)
	for _, s := range sites {
		fmt.Fprintf(b, " %s × %d", s, m[s])
	}
}

// Handoffs reports, by site, how many turns the clock has passed and
// how many goroutines Go has started since it was created. A turn is
// one wake-up: a participant's first run, or its return from a park.
// Both counts are a function of the run's inputs, so a test can pin
// what a code path costs in hand-offs by equality.
func (v *Virtual) Handoffs() (turns, starts map[string]int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return maps.Clone(v.turns), maps.Clone(v.starts)
}

// Now reports the current virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Elapsed reports how much virtual time has passed since the clock
// was created.
func (v *Virtual) Elapsed() time.Duration { return v.Now().Sub(v.origin) }

// Since is Now().Sub(t).
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Until is t.Sub(Now()).
func (v *Virtual) Until(t time.Time) time.Duration { return t.Sub(v.Now()) }

// NewSlot returns an empty slot on this clock.
func (v *Virtual) NewSlot() *Slot { return &Slot{v: v} }

// Go starts a participant. It is runnable from birth, queued behind
// whoever was woken before it.
func (v *Virtual) Go(site string, fn func()) {
	v.mu.Lock()
	v.starts[site]++
	v.live[site]++
	v.nlive++
	var w *waiter // its first turn; none on a stopped clock
	if !v.halted {
		w = waiterPool.Get().(*waiter)
		w.site = site
		v.wake(w)
	}
	v.mu.Unlock()
	go func() {
		defer v.exit(site)
		if w != nil {
			<-w.ch
			waiterPool.Put(w)
		}
		fn()
	}()
}

// exit retires a participant started with Go and passes the turn on.
func (v *Virtual) exit(site string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.live[site]--
	v.nlive--
	if v.halted {
		v.settle()
		return
	}
	v.busy[site]--
	v.next()
}

// Sleep parks the caller for d of virtual time.
func (v *Virtual) Sleep(d time.Duration) {
	if d > 0 {
		v.wait(nil, d, time.Time{})
	}
}

// SleepUntil parks the caller until virtual time reaches t.
func (v *Virtual) SleepUntil(t time.Time) { v.wait(nil, 0, t) }

// enqueue moves a waiter into the runnable ledger, behind everyone
// woken before it. Callers hold v.mu.
func (v *Virtual) enqueue(w *waiter) {
	v.busy[w.site]++
	v.ready = append(v.ready, w)
}

// wake enqueues a waiter and, if everyone else is parked, gives it the
// turn. Callers hold v.mu.
func (v *Virtual) wake(w *waiter) {
	v.enqueue(w)
	if v.cur == "" {
		v.next()
	}
}

// next passes the turn to the participant woken longest ago. With
// nobody runnable it advances time to the earliest deadline and wakes
// everything due then, in (deadline, registration) order. Callers hold
// v.mu and have already given up their own turn.
func (v *Virtual) next() {
	for len(v.ready) == 0 {
		if len(v.timers) == 0 {
			v.cur = ""
			return
		}
		if t := v.timers[0].when; t.After(v.now) {
			v.now = t
		}
		for len(v.timers) > 0 && !v.timers[0].when.After(v.now) {
			w := heap.Pop(&v.timers).(*waiter)
			if s := w.slot; s != nil {
				for i, o := range s.waiters {
					if o == w {
						s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
						break
					}
				}
			}
			delete(v.parked, w)
			v.enqueue(w)
		}
	}
	w := v.ready[0]
	v.ready[0] = nil
	if len(v.ready) == 1 {
		v.ready = v.ready[:0] // drained: the next wake reuses the array
	} else {
		v.ready = v.ready[1:]
	}
	v.cur = w.site
	v.turns[w.site]++
	w.ch <- struct{}{}
}

// wait parks the caller on s (nil for a plain sleep) until it is
// filled or the deadline — timeout from now, or the absolute time
// until when timeout is zero — passes. Neither given means no
// deadline.
func (v *Virtual) wait(s *Slot, timeout time.Duration, until time.Time) (x any, ok bool) {
	v.mu.Lock()
	if s != nil && s.full {
		x, s.val, s.full = s.val, nil, false
		v.mu.Unlock()
		return x, true
	}
	timed := timeout > 0 || !until.IsZero()
	if timeout > 0 {
		until = v.now.Add(timeout)
	}
	if v.halted || (timed && !until.After(v.now)) {
		v.mu.Unlock()
		return nil, false
	}
	if v.cur == "" {
		v.mu.Unlock()
		panic("vclock: a goroutine that is not a participant parked on a virtual clock (start it with Clock.Go)")
	}
	w := waiterPool.Get().(*waiter)
	w.site, w.slot, w.timed, w.val, w.ok = v.cur, s, timed, nil, false
	if s != nil {
		s.waiters = append(s.waiters, w)
	}
	if timed {
		v.seq++
		w.when, w.seq = until, v.seq
		heap.Push(&v.timers, w)
	}
	v.parked[w] = struct{}{}
	v.busy[w.site]--
	v.next()
	v.mu.Unlock()
	<-w.ch
	x, ok = w.val, w.ok
	w.slot, w.val = nil, nil
	waiterPool.Put(w)
	return x, ok
}

// fill hands x to the oldest waiter on s, or leaves it in the slot.
func (v *Virtual) fill(s *Slot, x any) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.halted {
		s.waiters = nil // Stop released them
	}
	if len(s.waiters) == 0 {
		if s.full {
			return false
		}
		s.full, s.val = true, x
		return true
	}
	w := s.waiters[0]
	s.waiters[0] = nil
	if len(s.waiters) == 1 {
		s.waiters = s.waiters[:0] // drained: the next wait reuses the array
	} else {
		s.waiters = s.waiters[1:]
	}
	if w.timed {
		heap.Remove(&v.timers, w.idx)
	}
	delete(v.parked, w)
	w.val, w.ok = x, true
	v.wake(w)
	return true
}
