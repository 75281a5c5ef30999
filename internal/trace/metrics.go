package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Machine-readable metrics export. MetricsSnapshot is the wire/JSON
// form of a Set: plain maps and integers, mergeable across processes,
// so every component can serve its live counters on the metrics plane
// of a wire.KObserve request and an operator tool can roll several
// components' snapshots into one cluster-wide view.

// HistSnapshot is the exportable state of one Histogram. Durations
// are nanoseconds so the JSON is unit-unambiguous. Buckets carries
// the raw log-2 bucket counts, which is what makes two snapshots
// mergeable without losing quantile resolution.
type HistSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Min     int64   `json:"min"`
	Max     int64   `json:"max"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// Quantile reports an approximate quantile (0..1) from the bucket
// counts: the upper bound 2^i µs of the bucket containing the q-th
// observation, clamped into [Min, Max] so a bucket bound can never
// exceed the largest (or undercut the smallest) observation recorded.
// The boundaries are exact: q<=0 returns Min and q>=1 returns Max.
func (h HistSnapshot) Quantile(q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	if q <= 0 {
		return time.Duration(h.Min)
	}
	if q >= 1 {
		return time.Duration(h.Max)
	}
	target := int64(q * float64(h.Count))
	if target >= h.Count {
		target = h.Count - 1
	}
	var seen int64
	for i, n := range h.Buckets {
		seen += n
		if seen > target {
			d := time.Duration(1<<uint(i)) * time.Microsecond
			if d > time.Duration(h.Max) {
				d = time.Duration(h.Max)
			}
			if d < time.Duration(h.Min) {
				d = time.Duration(h.Min)
			}
			return d
		}
	}
	return time.Duration(h.Max)
}

// Mean reports the mean observation, or zero when empty.
func (h HistSnapshot) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.Sum / h.Count)
}

// MetricsSnapshot is a point-in-time, mergeable copy of a Set.
type MetricsSnapshot struct {
	Counters map[string]int64        `json:"counters,omitempty"`
	Hists    map[string]HistSnapshot `json:"hists,omitempty"`
}

// Export copies the set's current state into a MetricsSnapshot.
func (s *Set) Export() MetricsSnapshot {
	s.mu.Lock()
	counters := make(map[string]int64, len(s.counters))
	for k, v := range s.counters {
		counters[k] = v
	}
	hists := make([]*Histogram, 0, len(s.hists))
	hnames := make([]string, 0, len(s.hists))
	for k, h := range s.hists {
		hnames = append(hnames, k)
		hists = append(hists, h)
	}
	s.mu.Unlock()

	out := MetricsSnapshot{Counters: counters, Hists: make(map[string]HistSnapshot, len(hists))}
	for i, h := range hists {
		out.Hists[hnames[i]] = h.export()
	}
	return out
}

// export copies one histogram's state.
func (h *Histogram) export() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	hs := HistSnapshot{Count: h.count, Sum: int64(h.sum), Max: int64(h.max)}
	if h.count > 0 {
		hs.Min = int64(h.min)
	}
	// Trim trailing empty buckets so typical snapshots stay small.
	last := -1
	for i, n := range h.buckets {
		if n != 0 {
			last = i
		}
	}
	if last >= 0 {
		hs.Buckets = make([]int64, last+1)
		copy(hs.Buckets, h.buckets[:last+1])
	}
	return hs
}

// Export copies the global set.
func Export() MetricsSnapshot { return cur().Export() }

// Merge folds other into m: counters add, histogram counts/sums add,
// extremes widen, buckets add element-wise. Merging two live
// components' snapshots yields the cluster view.
func (m *MetricsSnapshot) Merge(other MetricsSnapshot) {
	if m.Counters == nil {
		m.Counters = make(map[string]int64)
	}
	if m.Hists == nil {
		m.Hists = make(map[string]HistSnapshot)
	}
	for k, v := range other.Counters {
		m.Counters[k] += v
	}
	for k, o := range other.Hists {
		h, ok := m.Hists[k]
		if !ok {
			// Copy the bucket slice so later merges don't alias other's.
			h = o
			h.Buckets = append([]int64(nil), o.Buckets...)
			m.Hists[k] = h
			continue
		}
		if o.Count > 0 && (h.Count == 0 || o.Min < h.Min) {
			h.Min = o.Min
		}
		if o.Max > h.Max {
			h.Max = o.Max
		}
		h.Count += o.Count
		h.Sum += o.Sum
		if len(o.Buckets) > len(h.Buckets) {
			h.Buckets = append(h.Buckets, make([]int64, len(o.Buckets)-len(h.Buckets))...)
		}
		for i, n := range o.Buckets {
			h.Buckets[i] += n
		}
		m.Hists[k] = h
	}
}

// EncodeJSON renders the snapshot as JSON (the metrics-plane payload
// and the npss-exp -metrics file format).
func (m MetricsSnapshot) EncodeJSON() ([]byte, error) {
	return json.Marshal(m)
}

// WriteProm renders the snapshot in the Prometheus text exposition
// format. Counters become counter families; histograms become
// summaries (quantile series plus _sum and _count). Metric keys in the
// runtime's schooner.client.call{proc=add} style split into a
// sanitized family name and labels. The leading `npss_metrics_keys`
// gauge (how many counter and histogram keys the snapshot holds) keeps
// a scrape of an idle component a conforming exposition.
func (m MetricsSnapshot) WriteProm(w io.Writer) error {
	e := Exposition{}
	e.Gauge("npss_metrics_keys", fmt.Sprintf("%d", len(m.Counters)+len(m.Hists)))
	for key, v := range m.Counters {
		name, labels := PromKey(key)
		e.Add(name, "counter", name, labels, fmt.Sprintf("%d", v))
	}
	for key, h := range m.Hists {
		name, labels := PromKey(key)
		for _, q := range []float64{0.5, 0.95, 0.99} {
			e.Add(name, "summary", name, PromLabel(labels, fmt.Sprintf(`quantile="%g"`, q)), PromSeconds(h.Quantile(q)))
		}
		e.Add(name, "summary", name+"_sum", labels, PromSeconds(time.Duration(h.Sum)))
		e.Add(name, "summary", name+"_count", labels, fmt.Sprintf("%d", h.Count))
	}
	return e.Write(w, "npss_metrics_keys")
}

// Format renders the snapshot as stable text: sorted "name=value"
// counter lines, then sorted histogram summary lines with count, sum,
// extremes, and quantiles.
func (m MetricsSnapshot) Format() string {
	names := make([]string, 0, len(m.Counters))
	for n := range m.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	hnames := make([]string, 0, len(m.Hists))
	for n := range m.Hists {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)

	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d\n", n, m.Counters[n])
	}
	for _, n := range hnames {
		h := m.Hists[n]
		fmt.Fprintf(&b, "%s: n=%d min=%v mean=%v sum=%v p95=%v max=%v\n",
			n, h.Count, time.Duration(h.Min), h.Mean(), time.Duration(h.Sum),
			h.Quantile(0.95), time.Duration(h.Max))
	}
	return b.String()
}
