package vclock

import (
	"errors"
	"os"
	"sync"
	"time"
)

// ErrClosed is what a Queue's PopUntil reports once the queue is closed
// and drained, or its clock has stopped.
var ErrClosed = errors.New("vclock: queue closed")

// Queue is an unbounded FIFO whose Pop parks on a clock's Slot, so on
// a virtual clock an item nobody has taken yet keeps its consumer
// runnable: Push wakes it before Push returns.
type Queue[T any] struct {
	mu     sync.Mutex
	items  []T // items[head:] are queued; the array is reused once drained
	head   int
	closed bool
	ready  *Slot // filled while items, or the closure, await a Pop
}

// NewQueue returns an empty queue whose consumers park on c.
func NewQueue[T any](c Clock) *Queue[T] {
	q := new(Queue[T])
	q.Init(c)
	return q
}

// Init readies a zero Queue embedded in a larger struct, in place of
// NewQueue.
func (q *Queue[T]) Init(c Clock) { q.ready = c.NewSlot() }

// Push appends x, reporting false if the queue is closed.
func (q *Queue[T]) Push(x T) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.items = append(q.items, x)
	q.mu.Unlock()
	q.ready.Fill(nil)
	return true
}

// Pop removes the oldest item, parking while the queue is empty. It
// reports false once the queue is closed and drained, or when the
// clock it parks on has stopped.
func (q *Queue[T]) Pop() (x T, ok bool) {
	x, err := q.PopUntil(time.Time{})
	return x, err == nil
}

// PopUntil is Pop bounded by a deadline on the queue's clock; a zero
// deadline is none. An item already queued is taken even at or past
// the deadline. It fails with os.ErrDeadlineExceeded once the deadline
// passes with the queue empty and open, and with ErrClosed where Pop
// reports false.
func (q *Queue[T]) PopUntil(deadline time.Time) (x T, err error) {
	return q.next(deadline, true)
}

// PeekUntil is PopUntil that leaves the item it returns at the head of
// the queue, for the next Pop to take.
func (q *Queue[T]) PeekUntil(deadline time.Time) (x T, err error) {
	return q.next(deadline, false)
}

func (q *Queue[T]) next(deadline time.Time, take bool) (x T, err error) {
	for {
		q.mu.Lock()
		if q.head < len(q.items) {
			if !take {
				x = q.items[q.head]
				q.mu.Unlock()
				return x, nil
			}
			x, q.items[q.head] = q.items[q.head], x
			if q.head++; q.head == len(q.items) {
				q.items, q.head = q.items[:0], 0
			}
			more := q.head < len(q.items) || q.closed
			q.mu.Unlock()
			if more {
				q.ready.Fill(nil) // another consumer may be parked
			}
			return x, nil
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			q.ready.Fill(nil)
			return x, ErrClosed
		}
		if _, ok := q.ready.WaitUntil(deadline); !ok {
			if !deadline.IsZero() && !q.ready.now().Before(deadline) {
				return x, os.ErrDeadlineExceeded
			}
			return x, ErrClosed // the clock has stopped
		}
	}
}

// Close stops further pushes. Items already queued can still be
// popped; after them, and for every parked consumer, Pop reports false.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.ready.Fill(nil)
}

// Len reports how many items are queued.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}
