package trace

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestExportRoundTripJSON(t *testing.T) {
	s := NewSet()
	s.Add("a.calls", 7)
	s.Observe("a.lat", 2*time.Microsecond)
	s.Observe("a.lat", 4*time.Microsecond)

	snap := s.Export()
	data, err := snap.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var got MetricsSnapshot
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Counters["a.calls"] != 7 {
		t.Errorf("counter a.calls = %d, want 7", got.Counters["a.calls"])
	}
	h := got.Hists["a.lat"]
	if h.Count != 2 || time.Duration(h.Sum) != 6*time.Microsecond {
		t.Errorf("hist count/sum = %d/%d, want 2/6µs", h.Count, h.Sum)
	}
	if time.Duration(h.Min) != 2*time.Microsecond || time.Duration(h.Max) != 4*time.Microsecond {
		t.Errorf("hist min/max = %d/%d", h.Min, h.Max)
	}
	if q := h.Quantile(1); q != 4*time.Microsecond {
		t.Errorf("Quantile(1) = %v, want 4µs", q)
	}
	if q := h.Quantile(0); q != 2*time.Microsecond {
		t.Errorf("Quantile(0) = %v, want 2µs", q)
	}
}

func TestMergeAggregatesAcrossSets(t *testing.T) {
	a := NewSet()
	a.Add("calls", 3)
	a.Observe("lat", 1*time.Microsecond)
	b := NewSet()
	b.Add("calls", 4)
	b.Add("retries", 1)
	b.Observe("lat", 8*time.Microsecond)
	b.Observe("lat", 16*time.Microsecond)

	m := a.Export()
	m.Merge(b.Export())

	if m.Counters["calls"] != 7 || m.Counters["retries"] != 1 {
		t.Errorf("merged counters = %v", m.Counters)
	}
	h := m.Hists["lat"]
	if h.Count != 3 {
		t.Errorf("merged count = %d, want 3", h.Count)
	}
	if time.Duration(h.Sum) != 25*time.Microsecond {
		t.Errorf("merged sum = %v, want 25µs", time.Duration(h.Sum))
	}
	if time.Duration(h.Min) != 1*time.Microsecond || time.Duration(h.Max) != 16*time.Microsecond {
		t.Errorf("merged min/max = %v/%v", time.Duration(h.Min), time.Duration(h.Max))
	}
}

func TestMergeIntoEmpty(t *testing.T) {
	b := NewSet()
	b.Add("x", 2)
	b.Observe("y", 5*time.Microsecond)
	var m MetricsSnapshot
	m.Merge(b.Export())
	m.Merge(b.Export())
	if m.Counters["x"] != 4 {
		t.Errorf("x = %d, want 4", m.Counters["x"])
	}
	if h := m.Hists["y"]; h.Count != 2 || time.Duration(h.Min) != 5*time.Microsecond {
		t.Errorf("y = %+v", m.Hists["y"])
	}
}

func TestMergeDoesNotAliasBuckets(t *testing.T) {
	b := NewSet()
	b.Observe("y", 5*time.Microsecond)
	src := b.Export()
	var m MetricsSnapshot
	m.Merge(src)
	m.Merge(src) // second merge mutates m's buckets; src's must not move
	if src.Hists["y"].Count != 1 {
		t.Errorf("source snapshot mutated: %+v", src.Hists["y"])
	}
	want := src.Hists["y"].Buckets[len(src.Hists["y"].Buckets)-1]
	if want != 1 {
		t.Errorf("source bucket mutated by merge: %v", src.Hists["y"].Buckets)
	}
}

func TestFormatDeterministic(t *testing.T) {
	s := NewSet()
	s.Add("b", 2)
	s.Add("a", 1)
	s.Observe("z.lat", 2*time.Microsecond)
	m := s.Export()
	out := m.Format()
	if !strings.Contains(out, "a=1\nb=2\n") {
		t.Errorf("counters not sorted:\n%s", out)
	}
	if !strings.Contains(out, "z.lat: n=1") || !strings.Contains(out, "sum=2µs") {
		t.Errorf("histogram line missing count/sum:\n%s", out)
	}
	if out != m.Format() {
		t.Errorf("Format not deterministic")
	}
}

func TestSnapshotSurfacesDroppedSpans(t *testing.T) {
	r := NewRecorder()
	r.limit = 1
	SetRecorder(r)
	defer SetRecorder(nil)
	old := Swap(NewSet())
	defer Swap(old)

	for i := 0; i < 3; i++ {
		StartSpan("s", "h").End()
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.Dropped())
	}
	if !strings.Contains(Snapshot(), "trace.spans.dropped=2") {
		t.Errorf("Snapshot missing dropped-span line:\n%s", Snapshot())
	}
}

func TestChromeTraceSurfacesDropped(t *testing.T) {
	r := NewRecorder()
	r.limit = 1
	SetRecorder(r)
	defer SetRecorder(nil)
	StartSpan("a", "h").End()
	StartSpan("b", "h").End()

	var b strings.Builder
	if err := r.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"dropped_spans"`) || !strings.Contains(b.String(), `"count":"1"`) {
		t.Errorf("Chrome trace missing dropped_spans metadata:\n%s", b.String())
	}
}

// TestMergeSkewedSnapshotsQuantileBounds merges two hosts' snapshots
// whose observations occupy disjoint bucket ranges — one all-fast (a
// short, trimmed bucket array) and one all-slow (a much longer one) —
// and demands the merged quantiles stay inside the merged [Min, Max].
// This is the cluster roll-up shape: a Cray answering in microseconds
// merged with a congested workstation answering in milliseconds.
func TestMergeSkewedSnapshotsQuantileBounds(t *testing.T) {
	fast := NewSet()
	for i := 0; i < 90; i++ {
		fast.Observe("lat", 2*time.Microsecond)
	}
	slow := NewSet()
	for i := 0; i < 10; i++ {
		slow.Observe("lat", 30*time.Millisecond)
	}

	for _, order := range []string{"fast<-slow", "slow<-fast"} {
		var m MetricsSnapshot
		if order == "fast<-slow" {
			m = fast.Export()
			m.Merge(slow.Export())
		} else {
			m = slow.Export()
			m.Merge(fast.Export())
		}
		h := m.Hists["lat"]
		if h.Count != 100 {
			t.Fatalf("%s: merged count = %d, want 100", order, h.Count)
		}
		if len(h.Buckets) == 0 {
			t.Fatalf("%s: merged snapshot lost its buckets", order)
		}
		min, max := time.Duration(h.Min), time.Duration(h.Max)
		if min != 2*time.Microsecond || max < 30*time.Millisecond {
			t.Fatalf("%s: merged min/max = %v/%v", order, min, max)
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.95, 0.99, 1} {
			v := h.Quantile(q)
			if v < min || v > max {
				t.Errorf("%s: q%.2f = %v outside [%v, %v]", order, q, v, min, max)
			}
		}
		// 90 of 100 observations are 2µs: the median must report the
		// fast bucket, not be dragged into the slow host's range.
		if med := h.Quantile(0.5); med > 4*time.Microsecond {
			t.Errorf("%s: median = %v, want <= 4µs", order, med)
		}
	}
}
