//go:build race

package vclock

// Under the race detector sync.Pool drops a random quarter of the
// waiters put back, and a new waiter is two objects (it and its
// channel), so a round trip of two waits allocates one on average.
func init() { poolSlack = 2 }
