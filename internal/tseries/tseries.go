// Package tseries is the time dimension of the observability plane: a
// fixed-interval sampler over the labeled trace metrics Set that
// materializes windowed series — counter deltas/rates and per-window
// histogram quantiles keyed by whatever labels the metrics carry
// (proc, host, line) — into a bounded ring of Windows.
//
// The sampler is driven by a vclock.Clock, so a deterministic
// simulation run (package dst) produces virtual-time series that are
// bit-identical across same-seed replays, while a daemon samples on
// the wall clock. Sampling is pull-based: the hot path is untouched
// except for tail-latency exemplar capture, which costs exactly one
// atomic load when no sampler is installed (the same discipline as
// trace.Enabled).
//
// Exemplars are the bridge from aggregates back to causes: each
// window's histograms carry the trace/span IDs of the slowest
// observations recorded in that window, so a p99 spike in a report
// links to the exact spans in the Chrome-trace timeline of the same
// run.
package tseries

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"npss/internal/flight"
	"npss/internal/trace"
	"npss/internal/vclock"
)

// Exemplar is one tail-latency specimen: the duration of one of the
// slowest observations in a window, with the span context that was in
// flight when it was recorded (zero when tracing was off).
type Exemplar struct {
	Dur   int64  `json:"dur"` // nanoseconds
	Trace uint64 `json:"trace,omitempty"`
	Span  uint64 `json:"span,omitempty"`
}

// exemplarLess is the total order exemplar sets are kept in: slowest
// first, ties broken by IDs so the retained top-K is a pure function
// of the observation multiset, not of arrival order.
func exemplarLess(a, b Exemplar) bool {
	if a.Dur != b.Dur {
		return a.Dur > b.Dur
	}
	if a.Trace != b.Trace {
		return a.Trace < b.Trace
	}
	return a.Span < b.Span
}

// WindowHist is one histogram's delta over one window: the
// observations recorded between two consecutive samples, with
// quantiles estimated from the bucket deltas (the same log-2 estimator
// trace.HistSnapshot uses) and the window's slowest exemplars.
type WindowHist struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"` // nanoseconds
	Buckets []int64 `json:"buckets,omitempty"`
	P50     int64   `json:"p50,omitempty"` // nanoseconds
	P95     int64   `json:"p95,omitempty"`
	P99     int64   `json:"p99,omitempty"`
	// Exemplars are the slowest observations of the window, slowest
	// first.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Window is one sampling interval's worth of activity: counter deltas
// and histogram deltas since the previous sample. Keys with no
// activity in the window are absent; a consumer charting a series
// fills zeros for missing keys.
type Window struct {
	Seq   int64     `json:"seq"`
	Start time.Time `json:"start"`
	Dur   int64     `json:"dur"` // nanoseconds actually covered
	// Counters holds per-window counter deltas. Rate = delta/Dur.
	Counters map[string]int64      `json:"counters,omitempty"`
	Hists    map[string]WindowHist `json:"hists,omitempty"`
}

// Rate reports a counter's per-second rate over the window.
func (w *Window) Rate(key string) float64 {
	if w.Dur <= 0 {
		return 0
	}
	return float64(w.Counters[key]) / (float64(w.Dur) / float64(time.Second))
}

// Series is the exportable, mergeable form of a sampler's retained
// windows — the series-plane payload and the report generator's input.
type Series struct {
	Interval int64    `json:"interval"` // nanoseconds
	Windows  []Window `json:"windows,omitempty"`
	// Dropped counts windows that fell off the ring.
	Dropped int64 `json:"dropped,omitempty"`
}

// EncodeJSON renders the series as JSON. Go's encoding/json sorts map
// keys, so same-content series encode to identical bytes — the
// property the DST replay-identity check rides on.
func (s Series) EncodeJSON() ([]byte, error) { return json.Marshal(s) }

// Merge folds other into s, aligning windows by start time: counters
// add, histogram counts/sums/buckets add with quantiles re-estimated,
// exemplar sets merge keeping the slowest. Merging the per-component
// series of one cluster yields the cluster-wide view, mirroring
// trace.MetricsSnapshot.Merge.
func (s *Series) Merge(other Series) {
	if s.Interval == 0 {
		s.Interval = other.Interval
	}
	s.Dropped += other.Dropped
	for _, ow := range other.Windows {
		i := sort.Search(len(s.Windows), func(i int) bool {
			return !s.Windows[i].Start.Before(ow.Start)
		})
		if i < len(s.Windows) && s.Windows[i].Start.Equal(ow.Start) {
			mergeWindow(&s.Windows[i], ow)
			continue
		}
		// Insert a deep-enough copy so later merges don't alias other.
		w := ow
		w.Counters = copyCounters(ow.Counters)
		w.Hists = copyHists(ow.Hists)
		s.Windows = append(s.Windows, Window{})
		copy(s.Windows[i+1:], s.Windows[i:])
		s.Windows[i] = w
	}
}

func copyCounters(in map[string]int64) map[string]int64 {
	if in == nil {
		return nil
	}
	out := make(map[string]int64, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

func copyHists(in map[string]WindowHist) map[string]WindowHist {
	if in == nil {
		return nil
	}
	out := make(map[string]WindowHist, len(in))
	for k, h := range in {
		h.Buckets = append([]int64(nil), h.Buckets...)
		h.Exemplars = append([]Exemplar(nil), h.Exemplars...)
		out[k] = h
	}
	return out
}

func mergeWindow(w *Window, o Window) {
	if o.Dur > w.Dur {
		w.Dur = o.Dur
	}
	for k, v := range o.Counters {
		if w.Counters == nil {
			w.Counters = make(map[string]int64)
		}
		w.Counters[k] += v
	}
	for k, oh := range o.Hists {
		if w.Hists == nil {
			w.Hists = make(map[string]WindowHist)
		}
		h, ok := w.Hists[k]
		if !ok {
			oh.Buckets = append([]int64(nil), oh.Buckets...)
			oh.Exemplars = append([]Exemplar(nil), oh.Exemplars...)
			w.Hists[k] = oh
			continue
		}
		h.Count += oh.Count
		h.Sum += oh.Sum
		if len(oh.Buckets) > len(h.Buckets) {
			h.Buckets = append(h.Buckets, make([]int64, len(oh.Buckets)-len(h.Buckets))...)
		}
		for i, n := range oh.Buckets {
			h.Buckets[i] += n
		}
		h.P50, h.P95, h.P99 = bucketQuantiles(h.Count, h.Buckets)
		h.Exemplars = append(h.Exemplars, oh.Exemplars...)
		sort.Slice(h.Exemplars, func(i, j int) bool { return exemplarLess(h.Exemplars[i], h.Exemplars[j]) })
		if len(h.Exemplars) > DefaultExemplarK {
			h.Exemplars = h.Exemplars[:DefaultExemplarK]
		}
		w.Hists[k] = h
	}
}

// bucketQuantiles estimates p50/p95/p99 from log-2 bucket deltas with
// trace.HistSnapshot's estimator. A window carries no exact extremes,
// so the bounds of its first and last occupied buckets stand in for
// the [Min, Max] clamp.
func bucketQuantiles(count int64, buckets []int64) (p50, p95, p99 int64) {
	first, last := -1, -1
	for i, n := range buckets {
		if n != 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	h := trace.HistSnapshot{Count: count, Min: bucketBound(first - 1), Max: bucketBound(last), Buckets: buckets}
	return int64(h.Quantile(0.50)), int64(h.Quantile(0.95)), int64(h.Quantile(0.99))
}

// bucketBound is the upper bound of bucket i in nanoseconds — the same
// 2^i µs scale trace.Histogram uses. Bound(-1) and below are 0.
func bucketBound(i int) int64 {
	if i < 0 {
		return 0
	}
	return int64(time.Microsecond) << uint(i)
}

// Format renders the series as a stable text report, one block per
// window — the `schooner-manager -status` and flight-dump form.
func (s Series) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "series: interval=%v windows=%d", time.Duration(s.Interval), len(s.Windows))
	if s.Dropped > 0 {
		fmt.Fprintf(&b, " (%d older windows dropped)", s.Dropped)
	}
	b.WriteByte('\n')
	for i := range s.Windows {
		formatWindow(&b, &s.Windows[i])
	}
	return b.String()
}

// WriteProm renders the latest window in the Prometheus text
// exposition format: per-window counter rates as `<family>_rate`
// gauges (events per second), per-window histogram quantiles as
// `<family>_window{quantile=...}` gauges in seconds with a
// `<family>_window_count` companion. The leading meta gauges
// (`npss_series_windows`, `npss_series_interval_seconds`) keep a
// scrape of an idle sampler a conforming exposition.
func (s Series) WriteProm(w io.Writer) error {
	e := trace.Exposition{}
	e.Gauge("npss_series_windows", fmt.Sprintf("%d", len(s.Windows)))
	e.Gauge("npss_series_interval_seconds", trace.PromSeconds(time.Duration(s.Interval)))
	if n := len(s.Windows); n > 0 {
		win := s.Windows[n-1]
		for key := range win.Counters {
			name, labels := trace.PromKey(key)
			e.Add(name+"_rate", "gauge", name+"_rate", labels, fmt.Sprintf("%g", win.Rate(key)))
		}
		for key, h := range win.Hists {
			name, labels := trace.PromKey(key)
			name += "_window"
			for _, q := range []struct {
				v     int64
				label string
			}{{h.P50, "0.5"}, {h.P95, "0.95"}, {h.P99, "0.99"}} {
				e.Add(name, "gauge", name, trace.PromLabel(labels, `quantile="`+q.label+`"`), trace.PromSeconds(time.Duration(q.v)))
			}
			e.Add(name+"_count", "gauge", name+"_count", labels, fmt.Sprintf("%d", h.Count))
		}
	}
	return e.Write(w, "npss_series_windows", "npss_series_interval_seconds")
}

func formatWindow(b *strings.Builder, w *Window) {
	fmt.Fprintf(b, "w#%d %s +%v\n", w.Seq, w.Start.UTC().Format(time.RFC3339Nano), time.Duration(w.Dur).Round(time.Microsecond))
	ckeys := make([]string, 0, len(w.Counters))
	for k := range w.Counters {
		ckeys = append(ckeys, k)
	}
	sort.Strings(ckeys)
	for _, k := range ckeys {
		fmt.Fprintf(b, "  %s +%d\n", k, w.Counters[k])
	}
	hkeys := make([]string, 0, len(w.Hists))
	for k := range w.Hists {
		hkeys = append(hkeys, k)
	}
	sort.Strings(hkeys)
	for _, k := range hkeys {
		h := w.Hists[k]
		fmt.Fprintf(b, "  %s: n=%d p50=%v p95=%v p99=%v", k, h.Count,
			time.Duration(h.P50), time.Duration(h.P95), time.Duration(h.P99))
		for _, e := range h.Exemplars {
			fmt.Fprintf(b, " ex=%v/%016x/%016x", time.Duration(e.Dur), e.Trace, e.Span)
		}
		b.WriteByte('\n')
	}
}

// DefaultExemplarK is how many exemplars each (window, histogram)
// pair retains.
const DefaultExemplarK = 3

// Config parameterizes a Sampler. Every field is optional.
type Config struct {
	// Interval is the window length (default 250ms).
	Interval time.Duration
	// Capacity bounds the window ring (default 512).
	Capacity int
	// Clock drives sampling (default the wall clock). A dst run passes
	// its vclock.Virtual so windows advance in virtual time.
	Clock vclock.Clock
	// Source provides the snapshot to difference (default the global
	// trace set). The sampler is reset-aware: a source whose counters
	// shrink (trace.Swap, trace.Reset) contributes its new absolute
	// values as that window's delta, the Prometheus rate() convention.
	Source func() trace.MetricsSnapshot
	// ExemplarK caps exemplars per histogram per window (default 3).
	ExemplarK int
}

// Sampler materializes windows from a metrics source on a fixed
// interval until stopped.
type Sampler struct {
	cfg Config

	mu       sync.Mutex
	prev     trace.MetricsSnapshot
	ring     []Window
	next     int
	wrapped  bool
	seq      int64
	winStart time.Time
	pending  map[string][]Exemplar

	loop    *vclock.Loop
	stopped sync.Once
}

// Start creates a sampler and begins sampling on its clock.
func Start(cfg Config) *Sampler {
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * time.Millisecond
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 512
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real()
	}
	if cfg.Source == nil {
		cfg.Source = trace.Export
	}
	if cfg.ExemplarK <= 0 {
		cfg.ExemplarK = DefaultExemplarK
	}
	s := &Sampler{
		cfg:     cfg,
		ring:    make([]Window, cfg.Capacity),
		pending: make(map[string][]Exemplar),
	}
	s.prev = cfg.Source()
	s.winStart = cfg.Clock.Now()
	// Each window closes at the grid point it fell due at. A window
	// whose sampling overran the next boundaries simply runs on to the
	// next grid point after it: windows get longer, and no delta is
	// lost.
	s.loop = vclock.Every(cfg.Clock, "tseries.run", cfg.Interval, func(at time.Time) bool { s.sample(at); return true })
	return s
}

// Stop halts sampling, flushing the in-progress window (so a short
// run still yields its tail). Safe to call more than once.
func (s *Sampler) Stop() {
	s.stopped.Do(func() {
		s.loop.Stop()
		s.sample(s.cfg.Clock.Now())
	})
}

// sample closes the current window at boundary time now.
func (s *Sampler) sample(now time.Time) {
	cur := s.cfg.Source()
	s.mu.Lock()
	defer s.mu.Unlock()
	w := Window{
		Seq:   s.seq,
		Start: s.winStart,
		Dur:   int64(now.Sub(s.winStart)),
	}
	if w.Dur < 0 {
		w.Dur = 0
	}
	for k, v := range cur.Counters {
		d := v - s.prev.Counters[k]
		if d < 0 {
			d = v // source was reset/swapped: the new value is the delta
		}
		if d != 0 {
			if w.Counters == nil {
				w.Counters = make(map[string]int64)
			}
			w.Counters[k] = d
		}
	}
	for k, h := range cur.Hists {
		dh, ok := subHist(h, s.prev.Hists[k])
		if !ok {
			continue
		}
		if w.Hists == nil {
			w.Hists = make(map[string]WindowHist)
		}
		w.Hists[k] = dh
	}
	for k, ex := range s.pending {
		if w.Hists == nil {
			w.Hists = make(map[string]WindowHist)
		}
		wh := w.Hists[k]
		wh.Exemplars = ex
		w.Hists[k] = wh
	}
	s.prev = cur
	s.pending = make(map[string][]Exemplar)
	s.winStart = now
	s.seq++
	s.ring[s.next] = w
	s.next++
	if s.next == len(s.ring) {
		s.next, s.wrapped = 0, true
	}
}

// subHist computes the window delta of one histogram, detecting source
// resets (shrinking counts or buckets mean a fresh set was swapped in,
// so the new snapshot is itself the delta). The bool is false for an
// empty delta.
func subHist(cur, prev trace.HistSnapshot) (WindowHist, bool) {
	dc := cur.Count - prev.Count
	reset := dc < 0 || len(cur.Buckets) < len(prev.Buckets)
	var buckets []int64
	if !reset {
		buckets = make([]int64, len(cur.Buckets))
		for i, n := range cur.Buckets {
			d := n
			if i < len(prev.Buckets) {
				d -= prev.Buckets[i]
			}
			if d < 0 {
				reset = true
				break
			}
			buckets[i] = d
		}
	}
	if reset {
		dc = cur.Count
		buckets = append([]int64(nil), cur.Buckets...)
	}
	if dc <= 0 {
		return WindowHist{}, false
	}
	ds := cur.Sum - prev.Sum
	if reset || ds < 0 {
		ds = cur.Sum
	}
	// Trim trailing empty buckets, as HistSnapshot does.
	last := -1
	for i, n := range buckets {
		if n != 0 {
			last = i
		}
	}
	buckets = buckets[:last+1]
	wh := WindowHist{Count: dc, Sum: ds, Buckets: buckets}
	wh.P50, wh.P95, wh.P99 = bucketQuantiles(dc, buckets)
	return wh, true
}

// observe records an exemplar candidate into the current window,
// keeping the top-K by exemplarLess so the retained set is
// arrival-order independent.
func (s *Sampler) observe(key string, d time.Duration, traceID, spanID uint64) {
	e := Exemplar{Dur: int64(d), Trace: traceID, Span: spanID}
	s.mu.Lock()
	lst := s.pending[key]
	i := sort.Search(len(lst), func(i int) bool { return !exemplarLess(lst[i], e) })
	if i < s.cfg.ExemplarK {
		lst = append(lst, Exemplar{})
		copy(lst[i+1:], lst[i:])
		lst[i] = e
		if len(lst) > s.cfg.ExemplarK {
			lst = lst[:s.cfg.ExemplarK]
		}
		s.pending[key] = lst
	}
	s.mu.Unlock()
}

// Snapshot copies the retained windows, oldest first.
func (s *Sampler) Snapshot() Series {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Series{Interval: int64(s.cfg.Interval)}
	var ws []Window
	if s.wrapped {
		ws = append(ws, s.ring[s.next:]...)
		ws = append(ws, s.ring[:s.next]...)
		out.Dropped = s.seq - int64(len(s.ring))
	} else {
		ws = append(ws, s.ring[:s.next]...)
	}
	out.Windows = make([]Window, len(ws))
	for i := range ws {
		out.Windows[i] = ws[i]
		out.Windows[i].Counters = copyCounters(ws[i].Counters)
		out.Windows[i].Hists = copyHists(ws[i].Hists)
	}
	return out
}

// TailDump renders the last few windows plus the still-open one — the
// flight recorder's post-mortem section, showing the interval *before*
// a failure rather than just the instant.
func (s *Sampler) TailDump() string {
	const tail = 8
	snap := s.Snapshot()
	if n := len(snap.Windows); n > tail {
		snap.Dropped += int64(n - tail)
		snap.Windows = snap.Windows[n-tail:]
	}
	// The open window, sampled in place without closing it.
	cur := s.cfg.Source()
	s.mu.Lock()
	prev := s.prev
	start := s.winStart
	seq := s.seq
	s.mu.Unlock()
	open := Window{Seq: seq, Start: start, Dur: int64(s.cfg.Clock.Now().Sub(start))}
	for k, v := range cur.Counters {
		if d := v - prev.Counters[k]; d != 0 {
			if open.Counters == nil {
				open.Counters = make(map[string]int64)
			}
			if d < 0 {
				d = v
			}
			open.Counters[k] = d
		}
	}
	var b strings.Builder
	b.WriteString(snap.Format())
	b.WriteString("open ")
	formatWindow(&b, &open)
	return b.String()
}

// active is the process-wide sampler exemplar capture feeds; nil means
// series collection is off and Observe costs one atomic load.
var active atomic.Pointer[Sampler]

// SetActive installs s as the process-wide sampler (nil uninstalls),
// returning the previous one. The active sampler also contributes its
// window tail to flight-recorder dumps, so a chaos/DST post-mortem
// shows the minutes before the violation.
func SetActive(s *Sampler) *Sampler {
	var prev *Sampler
	if s == nil {
		prev = active.Swap(nil)
		flight.SetAuxDump("series tail", nil)
	} else {
		prev = active.Swap(s)
		flight.SetAuxDump("series tail", s.TailDump)
	}
	return prev
}

// Active returns the installed sampler, or nil.
func Active() *Sampler { return active.Load() }

// Enabled reports whether a sampler is installed — the hot-path gate
// callers use before building labeled keys for Observe.
func Enabled() bool { return active.Load() != nil }

// Observe feeds one observation to the active sampler's exemplar
// selection. A no-op costing one atomic load when no sampler is
// installed.
func Observe(key string, d time.Duration, traceID, spanID uint64) {
	if s := active.Load(); s != nil {
		s.observe(key, d, traceID, spanID)
	}
}

// ActiveSnapshot returns the active sampler's series, or an empty
// Series — the series-plane answer.
func ActiveSnapshot() Series {
	if s := active.Load(); s != nil {
		return s.Snapshot()
	}
	return Series{}
}
