package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounters(t *testing.T) {
	s := NewSet()
	s.Count("a")
	s.Count("a")
	s.Add("b", 5)
	if s.Get("a") != 2 || s.Get("b") != 5 || s.Get("missing") != 0 {
		t.Errorf("counters: a=%d b=%d", s.Get("a"), s.Get("b"))
	}
	snap := s.Export().Format()
	if !strings.Contains(snap, "a=2") || !strings.Contains(snap, "b=5") {
		t.Errorf("snapshot = %q", snap)
	}
	// Sorted output is stable.
	if strings.Index(snap, "a=") > strings.Index(snap, "b=") {
		t.Error("snapshot not sorted")
	}
	s.Reset()
	if s.Get("a") != 0 {
		t.Error("reset failed")
	}
}

func TestGlobalSet(t *testing.T) {
	Reset()
	Count("x")
	Add("x", 2)
	if Get("x") != 3 {
		t.Errorf("global x = %d", Get("x"))
	}
	Observe("lat", time.Millisecond)
	if h, ok := Export().Hists["lat"]; !ok || h.Count != 1 {
		t.Error("global histogram missing")
	}
	if !strings.Contains(Snapshot(), "x=3") {
		t.Error("global snapshot missing x")
	}
	Reset()
	if _, ok := Export().Hists["lat"]; ok {
		t.Error("reset kept histogram")
	}
}

// TestHistogram observes into a live Histogram and reads it back
// through its export, the only read path.
func TestHistogram(t *testing.T) {
	h := NewHistogram()
	if e := h.export(); e.Mean() != 0 || e.Min != 0 || e.Quantile(0.5) != 0 {
		t.Error("empty histogram not zero")
	}
	durations := []time.Duration{
		100 * time.Microsecond, 200 * time.Microsecond, 400 * time.Microsecond,
		time.Millisecond, 10 * time.Millisecond,
	}
	for _, d := range durations {
		h.Observe(d)
	}
	e := h.export()
	if e.Count != 5 {
		t.Errorf("count = %d", e.Count)
	}
	if time.Duration(e.Min) != 100*time.Microsecond || time.Duration(e.Max) != 10*time.Millisecond {
		t.Errorf("min/max = %v/%v", time.Duration(e.Min), time.Duration(e.Max))
	}
	wantMean := (100 + 200 + 400 + 1000 + 10000) * time.Microsecond / 5
	if e.Mean() != wantMean {
		t.Errorf("mean = %v, want %v", e.Mean(), wantMean)
	}
	// Median bucket upper bound should be near 400us (within 2x).
	med := e.Quantile(0.5)
	if med < 200*time.Microsecond || med > 800*time.Microsecond {
		t.Errorf("median = %v", med)
	}
	if e.Quantile(1.0) < e.Quantile(0.0) {
		t.Error("quantiles not monotone")
	}
	if line := (MetricsSnapshot{Hists: map[string]HistSnapshot{"h": e}}).Format(); !strings.Contains(line, "h: n=5") {
		t.Errorf("Format = %q", line)
	}
}

func TestConcurrentUse(t *testing.T) {
	s := NewSet()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				s.Count("n")
				s.Observe("h", time.Microsecond*time.Duration(j))
			}
		}()
	}
	wg.Wait()
	if s.Get("n") != 8000 {
		t.Errorf("n = %d", s.Get("n"))
	}
	if n := s.Export().Hists["h"].Count; n != 8000 {
		t.Errorf("h count = %d", n)
	}
}

// TestQuantileClampedToObservedRange pins the clamp fix: the bucket
// upper bound for a single 3µs observation is 4µs, but no quantile of
// a histogram whose largest observation is 3µs may exceed 3µs.
func TestQuantileClampedToObservedRange(t *testing.T) {
	live := NewHistogram()
	live.Observe(3 * time.Microsecond)
	h := live.export()
	if got := h.Quantile(1.0); got != 3*time.Microsecond {
		t.Errorf("Quantile(1.0) = %v, want Max 3µs", got)
	}
	if got := h.Quantile(0.0); got != 3*time.Microsecond {
		t.Errorf("Quantile(0.0) = %v, want 3µs", got)
	}
	min, max := time.Duration(h.Min), time.Duration(h.Max)
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 1} {
		if v := h.Quantile(q); v < min || v > max {
			t.Errorf("Quantile(%g) = %v outside [%v, %v]", q, v, min, max)
		}
	}
}

// TestObserveZeroAndNegative pins the d <= 0 handling: such
// observations land in bucket 0 and report zero throughout, instead
// of a fictitious 1µs.
func TestObserveZeroAndNegative(t *testing.T) {
	live := NewHistogram()
	live.Observe(0)
	live.Observe(-5 * time.Millisecond)
	h := live.export()
	if h.Count != 2 {
		t.Fatalf("count = %d", h.Count)
	}
	if h.Min != 0 || h.Max != 0 {
		t.Errorf("min/max = %v/%v, want 0/0", time.Duration(h.Min), time.Duration(h.Max))
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("Quantile(0.5) = %v, want 0", got)
	}
	if h.Mean() != 0 {
		t.Errorf("mean = %v, want 0", h.Mean())
	}
}

// TestQuantileBoundaries pins the exact boundary semantics: q<=0 is
// the recorded minimum and q>=1 the recorded maximum — not a bucket
// bound near them.
func TestQuantileBoundaries(t *testing.T) {
	live := NewHistogram()
	// 3µs and 100µs sit strictly inside their buckets (4µs and 128µs
	// upper bounds), so a bucket-walk answer would differ.
	live.Observe(3 * time.Microsecond)
	live.Observe(100 * time.Microsecond)
	h := live.export()
	if got := h.Quantile(0); got != 3*time.Microsecond {
		t.Errorf("Quantile(0) = %v, want Min 3µs exactly", got)
	}
	if got := h.Quantile(-0.5); got != 3*time.Microsecond {
		t.Errorf("Quantile(-0.5) = %v, want Min 3µs", got)
	}
	if got := h.Quantile(1); got != 100*time.Microsecond {
		t.Errorf("Quantile(1) = %v, want Max 100µs exactly", got)
	}
	if got := h.Quantile(1.5); got != 100*time.Microsecond {
		t.Errorf("Quantile(1.5) = %v, want Max 100µs", got)
	}
}

func TestQuantileSingleObservation(t *testing.T) {
	live := NewHistogram()
	live.Observe(7 * time.Microsecond)
	h := live.export()
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		if got := h.Quantile(q); got != 7*time.Microsecond {
			t.Errorf("Quantile(%g) = %v, want the only observation 7µs", q, got)
		}
	}
}

// TestSnapshotHistograms pins the one-line histogram summaries in the
// snapshot's text form: counters first, then "name: n=... min=... mean=...
// p95=... max=..." lines, all sorted.
func TestSnapshotHistograms(t *testing.T) {
	s := NewSet()
	s.Count("z.counter")
	s.Observe("a.lat", 2*time.Microsecond)
	s.Observe("a.lat", 4*time.Microsecond)
	s.Observe("b.lat", time.Millisecond)
	snap := s.Export().Format()
	if !strings.Contains(snap, "z.counter=1") {
		t.Errorf("snapshot missing counter: %q", snap)
	}
	if !strings.Contains(snap, "a.lat: n=2 min=2µs mean=3µs") {
		t.Errorf("snapshot missing a.lat summary: %q", snap)
	}
	if !strings.Contains(snap, "b.lat: n=1") {
		t.Errorf("snapshot missing b.lat summary: %q", snap)
	}
	// Histogram lines are sorted among themselves.
	if strings.Index(snap, "a.lat:") > strings.Index(snap, "b.lat:") {
		t.Errorf("histogram lines not sorted: %q", snap)
	}
}

// TestSwap pins the phase-scoping contract: Swap installs a new global
// set and returns the old one, so a harness can give each phase of a
// run its own counters.
func TestSwap(t *testing.T) {
	phase1 := NewSet()
	prev := Swap(phase1)
	defer Swap(prev)
	Count("phase.ops")
	phase2 := NewSet()
	if got := Swap(phase2); got != phase1 {
		t.Fatal("Swap did not return the previous set")
	}
	Count("phase.ops")
	Count("phase.ops")
	if phase1.Get("phase.ops") != 1 || phase2.Get("phase.ops") != 2 {
		t.Errorf("phase counts = %d/%d, want 1/2",
			phase1.Get("phase.ops"), phase2.Get("phase.ops"))
	}
	if got := Swap(nil); got != phase2 {
		t.Fatal("Swap(nil) did not return the previous set")
	}
	if Get("phase.ops") != 0 {
		t.Error("Swap(nil) did not install a fresh set")
	}
}

func TestBucketOf(t *testing.T) {
	if bucketOf(0) != 0 {
		t.Error("bucketOf(0)")
	}
	if bucketOf(-time.Second) != 0 {
		t.Error("bucketOf(negative)")
	}
	if bucketOf(time.Microsecond) != 1 {
		t.Errorf("bucketOf(1us) = %d", bucketOf(time.Microsecond))
	}
	// Monotone in duration.
	prev := 0
	for d := time.Microsecond; d < time.Hour; d *= 3 {
		b := bucketOf(d)
		if b < prev {
			t.Fatalf("bucketOf not monotone at %v", d)
		}
		prev = b
	}
	// Huge values saturate at the last bucket.
	if bucketOf(24*time.Hour) != 30 {
		t.Errorf("bucketOf(24h) = %d", bucketOf(24*time.Hour))
	}
}

// TestExportConcurrentWithLabeledWrites hammers a set with labeled
// counter increments and histogram observations while another
// goroutine continuously exports snapshots — the sampler's exact
// access pattern. Run under -race this pins Export's two-phase
// locking (set lock for the maps, per-histogram lock for the
// buckets); the final export must account for every write.
func TestExportConcurrentWithLabeledWrites(t *testing.T) {
	s := NewSet()
	const workers, perWorker = 8, 2000
	stop := make(chan struct{})
	exported := make(chan int, 1)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				exported <- n
				return
			default:
			}
			snap := s.Export()
			// Read everything the snapshot holds, so a torn copy
			// would trip the race detector or the bounds checks.
			for _, h := range snap.Hists {
				var inBuckets int64
				for _, b := range h.Buckets {
					inBuckets += b
				}
				if inBuckets != h.Count {
					panic("snapshot buckets disagree with count")
				}
			}
			n++
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			host := Label{Key: "host", Value: fmt.Sprintf("h%d", w%3)}
			for j := 0; j < perWorker; j++ {
				s.Count(LKey("calls", host))
				s.Observe(LKey("lat", host), time.Duration(j)*time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if n := <-exported; n == 0 {
		t.Fatal("exporter never ran")
	}

	final := s.Export()
	var calls, lats int64
	for k, v := range final.Counters {
		if strings.HasPrefix(k, "calls{") {
			calls += v
		}
	}
	for k, h := range final.Hists {
		if strings.HasPrefix(k, "lat{") {
			lats += h.Count
		}
	}
	if calls != workers*perWorker || lats != workers*perWorker {
		t.Fatalf("final export: calls=%d lats=%d, want %d each", calls, lats, workers*perWorker)
	}
}
