package main

import (
	"math"
	"testing"
	"time"
)

func TestSummarizeMedianAndQuartiles(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.N != 5 || s.Median != 3 || s.P25 != 2 || s.P75 != 4 {
		t.Fatalf("summarize = %+v, want n=5 median=3 quartiles 2 and 4", s)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("median of an even count = %v, want 2.5", got)
	}
	if got := spread([]float64{5, 1, 4, 2, 3}); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("spread = %v, want (4-2)/3", got)
	}
}

// The reported tail is the highest percentile that still has at least
// ten samples beyond it.
func TestSummarizeTopPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i)
		}
		return v
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{50, 0},         // p90 would leave 5 beyond it
		{100, 90},       // p90 leaves 10, p95 leaves 5
		{1000, 99},      // p99 leaves 10
		{10000, 99.9},   // p99.9 leaves 10
		{100000, 99.99}, // p99.99 leaves 10
	} {
		if got := summarize(ramp(c.n)).TopPctName; got != c.want {
			t.Errorf("n=%d: top percentile p%v, want p%v", c.n, got, c.want)
		}
	}
	if s := summarize(ramp(1000)); math.Abs(s.TopPct-989.01) > 1e-9 {
		t.Errorf("p99 of 0..999 = %v, want 989.01", s.TopPct)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []interval{{10, 40}, {30, 50}}, 60},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"sticking out both ends", []interval{{-20, 10}, {90, 150}}, 80},
		{"outside entirely", []interval{{200, 300}}, 100},
		{"unsorted and touching", []interval{{50, 60}, {40, 50}}, 80},
		{"covering everything", []interval{{-5, 105}}, 0},
	} {
		if got := selfTime(0, 100, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// A failed operation counts as attempted and has no latency.
func TestFailedOpsCountAgainstAttempted(t *testing.T) {
	m := &measurement{}
	m.record(10*time.Microsecond, 3, true)
	m.record(99*time.Microsecond, 2, false)
	m.count(1, false)
	if m.Attempted != 6 || m.Failed != 3 || m.Ops != 6 {
		t.Fatalf("attempted=%d failed=%d ops=%d, want 6, 3, 6", m.Attempted, m.Failed, m.Ops)
	}
	if len(m.Waits) != 1 || m.Waits[0] != 10*time.Microsecond {
		t.Fatalf("waits = %v: a failed unit must not contribute a latency", m.Waits)
	}
	if r := newResult(m); r.Correct {
		t.Fatal("a run with failed operations must not be reported correct")
	}
}
