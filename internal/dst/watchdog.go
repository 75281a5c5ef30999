package dst

import (
	"fmt"
	"os"
	"time"
)

// Watchdog is for tests that drive a cluster: it arms a wall-clock
// limit and returns the function that disarms it. Exact quiescence has
// one failure mode a test cannot see from inside — a goroutine of the
// cluster blocked where the virtual clock cannot reach it stops time
// for good — so when the limit passes the watchdog prints StuckReport
// (who holds time still, who is parked, the flight recorder) and
// panics, which adds every goroutine's stack.
func Watchdog(limit time.Duration) (disarm func()) {
	t := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "dst: no result after %v of real time\n%s\n", limit, StuckReport())
		panic("dst: run stuck; ledger and flight dump above")
	})
	return func() { t.Stop() }
}
