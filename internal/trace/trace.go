// Package trace provides lightweight instrumentation used by the
// experiment harness: named counters and log-bucketed latency
// histograms, all safe for concurrent use, the spans of a run, and the
// Prometheus exposition writer every observability plane renders
// through.
package trace

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// global is the process-wide set. It is swappable (see Swap) so a
// harness can scope a phase of a run to its own set — the chaos
// experiment gives its baseline and its crash-recovery phase separate
// sets, so each phase reports its own retry/failover counts.
var global atomic.Pointer[Set]

func init() { global.Store(NewSet()) }

func cur() *Set { return global.Load() }

// Swap installs s as the global set and returns the previous one.
// A nil s installs a fresh empty set. Recording goroutines pick up
// the new set on their next operation.
func Swap(s *Set) *Set {
	if s == nil {
		s = NewSet()
	}
	return global.Swap(s)
}

// Set is an independent collection of counters and histograms.
type Set struct {
	mu       sync.Mutex
	counters map[string]int64
	hists    map[string]*Histogram
}

// NewSet creates an empty instrumentation set.
func NewSet() *Set {
	return &Set{counters: make(map[string]int64), hists: make(map[string]*Histogram)}
}

// Count increments a named counter by one in the set.
func (s *Set) Count(name string) { s.Add(name, 1) }

// Add increments a named counter by n.
func (s *Set) Add(name string, n int64) {
	s.mu.Lock()
	s.counters[name] += n
	s.mu.Unlock()
}

// Get reads a counter.
func (s *Set) Get(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters[name]
}

// Observe records a duration into the named histogram.
func (s *Set) Observe(name string, d time.Duration) {
	s.mu.Lock()
	h, ok := s.hists[name]
	if !ok {
		h = NewHistogram()
		s.hists[name] = h
	}
	s.mu.Unlock()
	h.Observe(d)
}

// Reset clears all counters and histograms.
func (s *Set) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters = make(map[string]int64)
	s.hists = make(map[string]*Histogram)
}

// Count increments a global counter.
func Count(name string) { cur().Count(name) }

// Add increments a global counter by n.
func Add(name string, n int64) { cur().Add(name, n) }

// Get reads a global counter.
func Get(name string) int64 { return cur().Get(name) }

// Observe records into a global histogram.
func Observe(name string, d time.Duration) { cur().Observe(name, d) }

// Reset clears the global set.
func Reset() { cur().Reset() }

// Snapshot reports the global counters and histograms. When a span
// recorder is active and has hit its cap, a trailing
// "trace.spans.dropped" line surfaces the truncation so a short
// timeline is visibly short.
func Snapshot() string {
	s := Export().Format()
	if r := ActiveRecorder(); r != nil {
		if d := r.Dropped(); d > 0 {
			s += fmt.Sprintf("trace.spans.dropped=%d\n", d)
		}
	}
	return s
}

// Histogram is a log-2-bucketed latency histogram from 1µs to ~17min.
type Histogram struct {
	mu      sync.Mutex
	buckets [31]int64
	count   int64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram { return &Histogram{min: math.MaxInt64} }

func bucketOf(d time.Duration) int {
	// Zero and negative durations (clock steps, sub-microsecond
	// observations) land in bucket 0 with upper bound 0, not 1µs.
	if d <= 0 {
		return 0
	}
	us := d.Microseconds()
	b := 0
	for us > 0 && b < len((&Histogram{}).buckets)-1 {
		us >>= 1
		b++
	}
	return b
}

// Observe records one duration. Negative durations are clamped to
// zero so the exported extremes and quantiles stay within physically
// meaningful bounds.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.buckets[bucketOf(d)]++
	h.count++
	h.sum += d
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}
