package tseries

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"npss/internal/flight"
	"npss/internal/trace"
	"npss/internal/vclock"
)

// manualSource is a Source whose snapshot the test controls exactly.
type manualSource struct {
	mu   sync.Mutex
	snap trace.MetricsSnapshot
}

func (m *manualSource) set(s trace.MetricsSnapshot) {
	m.mu.Lock()
	m.snap = s
	m.mu.Unlock()
}

func (m *manualSource) get() trace.MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snap
}

// virtualSampler starts a sampler on a fresh virtual clock.
func virtualSampler(t *testing.T, cfg Config) (*Sampler, *vclock.Virtual) {
	t.Helper()
	v := vclock.NewVirtual()
	cfg.Clock = v
	s := Start(cfg)
	t.Cleanup(func() { s.Stop(); v.Stop() })
	return s, v
}

func TestWindowCounterDeltas(t *testing.T) {
	src := &manualSource{}
	src.set(trace.MetricsSnapshot{Counters: map[string]int64{"calls": 10}})
	s, v := virtualSampler(t, Config{Interval: 100 * time.Millisecond, Source: src.get})

	src.set(trace.MetricsSnapshot{Counters: map[string]int64{"calls": 17, "fresh": 3}})
	v.Sleep(150 * time.Millisecond) // crosses the first boundary

	snap := s.Snapshot()
	if len(snap.Windows) != 1 {
		t.Fatalf("want 1 window, got %d: %s", len(snap.Windows), snap.Format())
	}
	w := snap.Windows[0]
	if w.Counters["calls"] != 7 || w.Counters["fresh"] != 3 {
		t.Fatalf("bad deltas: %v", w.Counters)
	}
	if w.Dur != int64(100*time.Millisecond) {
		t.Fatalf("window dur = %v, want 100ms", time.Duration(w.Dur))
	}
	if got := w.Rate("calls"); got != 70 {
		t.Fatalf("rate = %v, want 70/s", got)
	}
}

func TestWindowSkipsIdleKeys(t *testing.T) {
	src := &manualSource{}
	src.set(trace.MetricsSnapshot{Counters: map[string]int64{"idle": 5}})
	s, v := virtualSampler(t, Config{Interval: 50 * time.Millisecond, Source: src.get})

	v.Sleep(60 * time.Millisecond)
	snap := s.Snapshot()
	if len(snap.Windows) != 1 {
		t.Fatalf("want 1 window, got %d", len(snap.Windows))
	}
	if len(snap.Windows[0].Counters) != 0 {
		t.Fatalf("idle counter leaked into window: %v", snap.Windows[0].Counters)
	}
}

func TestResetAwareDeltas(t *testing.T) {
	src := &manualSource{}
	src.set(trace.MetricsSnapshot{
		Counters: map[string]int64{"calls": 100},
		Hists: map[string]trace.HistSnapshot{
			"lat": {Count: 100, Sum: int64(time.Second), Min: 1, Max: 2, Buckets: []int64{0, 0, 100}},
		},
	})
	s, v := virtualSampler(t, Config{Interval: 50 * time.Millisecond, Source: src.get})

	// A trace.Swap mid-run: the source now reports a much smaller
	// absolute state. The window must carry the new absolute values,
	// not a negative delta.
	src.set(trace.MetricsSnapshot{
		Counters: map[string]int64{"calls": 4},
		Hists: map[string]trace.HistSnapshot{
			"lat": {Count: 3, Sum: int64(30 * time.Microsecond), Min: 1, Max: 2, Buckets: []int64{0, 0, 0, 3}},
		},
	})
	v.Sleep(60 * time.Millisecond)

	snap := s.Snapshot()
	w := snap.Windows[0]
	if w.Counters["calls"] != 4 {
		t.Fatalf("reset counter delta = %d, want 4", w.Counters["calls"])
	}
	h := w.Hists["lat"]
	if h.Count != 3 || h.Sum != int64(30*time.Microsecond) {
		t.Fatalf("reset hist delta = %+v", h)
	}
}

func TestHistWindowQuantiles(t *testing.T) {
	src := &manualSource{}
	src.set(trace.MetricsSnapshot{})
	s, v := virtualSampler(t, Config{Interval: 50 * time.Millisecond, Source: src.get})

	// 90 observations in bucket 3 (≤8µs), 10 in bucket 10 (≤1024µs).
	buckets := make([]int64, 11)
	buckets[3] = 90
	buckets[10] = 10
	src.set(trace.MetricsSnapshot{Hists: map[string]trace.HistSnapshot{
		"lat": {Count: 100, Sum: int64(10 * time.Millisecond), Buckets: buckets},
	}})
	v.Sleep(60 * time.Millisecond)

	h := s.Snapshot().Windows[0].Hists["lat"]
	if got := time.Duration(h.P50); got != 8*time.Microsecond {
		t.Fatalf("p50 = %v, want 8µs", got)
	}
	if got := time.Duration(h.P95); got != 1024*time.Microsecond {
		t.Fatalf("p95 = %v, want 1.024ms", got)
	}
	if got := time.Duration(h.P99); got != 1024*time.Microsecond {
		t.Fatalf("p99 = %v, want 1.024ms", got)
	}
	// Quantiles never escape the occupied-bucket bounds.
	if h.P50 < bucketBound(2) || h.P99 > bucketBound(10) {
		t.Fatalf("quantiles escape bucket bounds: %+v", h)
	}
}

func TestExemplarTopKDeterministic(t *testing.T) {
	src := &manualSource{}
	src.set(trace.MetricsSnapshot{})
	s, v := virtualSampler(t, Config{Interval: 50 * time.Millisecond, Source: src.get, ExemplarK: 2})

	obs := []Exemplar{
		{Dur: int64(5 * time.Millisecond), Trace: 1, Span: 11},
		{Dur: int64(9 * time.Millisecond), Trace: 2, Span: 22},
		{Dur: int64(1 * time.Millisecond), Trace: 3, Span: 33},
		{Dur: int64(9 * time.Millisecond), Trace: 1, Span: 44},
	}
	// Feed in two different arrival orders; the retained set must match.
	for _, e := range obs {
		s.observe("lat", time.Duration(e.Dur), e.Trace, e.Span)
	}
	src.set(trace.MetricsSnapshot{Hists: map[string]trace.HistSnapshot{
		"lat": {Count: 4, Sum: 1, Buckets: []int64{4}},
	}})
	v.Sleep(60 * time.Millisecond)
	got := s.Snapshot().Windows[0].Hists["lat"].Exemplars

	want := []Exemplar{
		{Dur: int64(9 * time.Millisecond), Trace: 1, Span: 44},
		{Dur: int64(9 * time.Millisecond), Trace: 2, Span: 22},
	}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("exemplars = %+v, want %+v", got, want)
	}
}

func TestRingCapacityAndDropped(t *testing.T) {
	src := &manualSource{}
	src.set(trace.MetricsSnapshot{})
	s, v := virtualSampler(t, Config{Interval: 10 * time.Millisecond, Capacity: 4, Source: src.get})

	v.Sleep(100 * time.Millisecond) // ~10 windows into a 4-slot ring
	snap := s.Snapshot()
	if len(snap.Windows) != 4 {
		t.Fatalf("ring holds %d windows, want 4", len(snap.Windows))
	}
	if snap.Dropped <= 0 {
		t.Fatalf("dropped = %d, want > 0", snap.Dropped)
	}
	for i := 1; i < len(snap.Windows); i++ {
		if snap.Windows[i].Seq != snap.Windows[i-1].Seq+1 {
			t.Fatalf("windows out of order: %+v", snap.Windows)
		}
	}
}

func TestStopFlushesPartialWindow(t *testing.T) {
	src := &manualSource{}
	src.set(trace.MetricsSnapshot{})
	v := vclock.NewVirtual()
	defer v.Stop()
	s := Start(Config{Interval: time.Hour, Clock: v, Source: src.get})

	src.set(trace.MetricsSnapshot{Counters: map[string]int64{"calls": 5}})
	s.Stop()
	snap := s.Snapshot()
	var calls int64
	for _, w := range snap.Windows {
		calls += w.Counters["calls"]
	}
	if len(snap.Windows) == 0 || calls != 5 {
		t.Fatalf("stop did not flush partial window: %s", snap.Format())
	}
}

func TestVirtualClockSeriesDeterministic(t *testing.T) {
	run := func() []byte {
		v := vclock.NewVirtual()
		defer v.Stop()
		set := trace.NewSet()
		s := Start(Config{
			Interval: 20 * time.Millisecond,
			Clock:    v,
			Source:   set.Export,
		})
		// A deterministic workload: observations at fixed virtual
		// instants across several windows.
		for i := 0; i < 10; i++ {
			set.Add("calls", int64(i+1))
			set.Observe("lat", time.Duration(i+1)*3*time.Millisecond)
			s.observe("lat", time.Duration(i+1)*3*time.Millisecond, uint64(i+1), uint64(100+i))
			v.Sleep(7 * time.Millisecond)
		}
		s.Stop()
		b, err := s.Snapshot().EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("virtual-time series not replay-identical:\n%s\n%s", a, b)
	}
	if !strings.Contains(string(a), `"exemplars"`) {
		t.Fatalf("series has no exemplars: %s", a)
	}
}

func TestSeriesMerge(t *testing.T) {
	t0 := vclock.Epoch1993
	a := Series{Interval: int64(time.Second), Windows: []Window{
		{Seq: 0, Start: t0, Dur: int64(time.Second),
			Counters: map[string]int64{"calls": 3},
			Hists: map[string]WindowHist{"lat": {Count: 2, Sum: 10, Buckets: []int64{2},
				Exemplars: []Exemplar{{Dur: 9, Trace: 1, Span: 1}}}}},
	}}
	b := Series{Interval: int64(time.Second), Windows: []Window{
		{Seq: 0, Start: t0, Dur: int64(time.Second),
			Counters: map[string]int64{"calls": 4},
			Hists: map[string]WindowHist{"lat": {Count: 1, Sum: 5, Buckets: []int64{0, 1},
				Exemplars: []Exemplar{{Dur: 30, Trace: 2, Span: 2}}}}},
		{Seq: 1, Start: t0.Add(time.Second), Dur: int64(time.Second),
			Counters: map[string]int64{"calls": 1}},
	}}
	a.Merge(b)
	if len(a.Windows) != 2 {
		t.Fatalf("merged windows = %d, want 2", len(a.Windows))
	}
	w := a.Windows[0]
	if w.Counters["calls"] != 7 {
		t.Fatalf("merged counter = %d, want 7", w.Counters["calls"])
	}
	h := w.Hists["lat"]
	if h.Count != 3 || h.Sum != 15 || len(h.Buckets) != 2 || h.Buckets[0] != 2 || h.Buckets[1] != 1 {
		t.Fatalf("merged hist = %+v", h)
	}
	if len(h.Exemplars) != 2 || h.Exemplars[0].Dur != 30 {
		t.Fatalf("merged exemplars = %+v", h.Exemplars)
	}
	if a.Windows[1].Counters["calls"] != 1 {
		t.Fatalf("unaligned window lost: %+v", a.Windows[1])
	}
}

func TestSeriesJSONRoundTrip(t *testing.T) {
	s := Series{Interval: int64(time.Second), Dropped: 2, Windows: []Window{
		{Seq: 5, Start: vclock.Epoch1993, Dur: 100,
			Counters: map[string]int64{"a": 1},
			Hists:    map[string]WindowHist{"h": {Count: 1, Sum: 2, P99: 3, Buckets: []int64{1}, Exemplars: []Exemplar{{Dur: 2, Trace: 3, Span: 4}}}}},
	}}
	b1, err := s.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var got Series
	if err := json.Unmarshal(b1, &got); err != nil {
		t.Fatal(err)
	}
	b2, err := got.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("round trip changed bytes:\n%s\n%s", b1, b2)
	}
}

func TestActiveObserveDisabledIsNoop(t *testing.T) {
	if prev := SetActive(nil); prev != nil {
		defer SetActive(prev)
	}
	if Enabled() {
		t.Fatal("Enabled with no sampler installed")
	}
	Observe("lat", time.Millisecond, 1, 2) // must not panic
}

func TestSetActiveRegistersFlightAuxDump(t *testing.T) {
	prevRec := flight.Swap(nil)
	defer flight.Swap(prevRec)

	src := &manualSource{}
	src.set(trace.MetricsSnapshot{})
	s, v := virtualSampler(t, Config{Interval: 10 * time.Millisecond, Source: src.get})
	prev := SetActive(s)
	defer SetActive(prev)

	src.set(trace.MetricsSnapshot{Counters: map[string]int64{"calls": 2}})
	v.Sleep(15 * time.Millisecond)

	dump := flight.DumpString()
	if !strings.Contains(dump, "-- series tail --") {
		t.Fatalf("flight dump lacks series section:\n%s", dump)
	}
	if !strings.Contains(dump, "calls +2") {
		t.Fatalf("flight dump series tail lacks window data:\n%s", dump)
	}

	SetActive(nil)
	if d := flight.DumpString(); strings.Contains(d, "-- series tail --") {
		t.Fatalf("aux dump survived SetActive(nil):\n%s", d)
	}
}

// TestSamplerOverrunStaysOnGrid: a Source that takes 2.5 intervals of
// virtual time to answer overruns every boundary after the first. Each
// window still closes at a grid point of the sampler's start (the
// next one after the overrun, as any vclock.Every loop resumes), and
// no delta is lost: the windows' deltas sum to the source's total.
func TestSamplerOverrunStaysOnGrid(t *testing.T) {
	const interval = 10 * time.Millisecond
	v := vclock.NewVirtual()
	defer v.Stop()
	var total int64
	slow := false
	src := func() trace.MetricsSnapshot {
		if slow {
			v.Sleep(interval * 5 / 2)
			total += 3
		}
		return trace.MetricsSnapshot{Counters: map[string]int64{"calls": total}}
	}
	s := Start(Config{Interval: interval, Clock: v, Source: src})
	origin := v.Now()
	slow = true
	v.Sleep(20 * interval)
	s.Stop()
	snap := s.Snapshot()
	var sum int64
	for i, w := range snap.Windows {
		sum += w.Counters["calls"]
		end := w.Start.Add(time.Duration(w.Dur))
		if i < len(snap.Windows)-1 && end.Sub(origin)%interval != 0 {
			t.Errorf("window %d ends at +%v, off the %v grid", w.Seq, end.Sub(origin), interval)
		}
		if i > 0 && !w.Start.Equal(snap.Windows[i-1].Start.Add(time.Duration(snap.Windows[i-1].Dur))) {
			t.Errorf("window %d does not start where window %d ended", w.Seq, w.Seq-1)
		}
	}
	if len(snap.Windows) < 3 || sum != total {
		t.Fatalf("%d windows with deltas summing to %d, want several summing to the source's %d:\n%s",
			len(snap.Windows), sum, total, snap.Format())
	}
}

// TestVirtualSamplerHandoffs pins what a window costs in hand-offs, by
// equality: one turn of the sampler's loop, woken at the boundary, and
// no goroutine start.
func TestVirtualSamplerHandoffs(t *testing.T) {
	const interval, n = 10 * time.Millisecond, 100
	_, v := virtualSampler(t, Config{Interval: interval, Source: (&manualSource{}).get})
	v.Sleep(interval / 2)
	turns0, starts0 := v.Handoffs()
	v.Sleep(n * interval)
	turns1, starts1 := v.Handoffs()
	want := map[string]int{"driver": 1, "tseries.run": n}
	if got := delta(turns0, turns1); !reflect.DeepEqual(got, want) {
		t.Errorf("%d windows: turns %v, want %v", n, got, want)
	}
	if got := delta(starts0, starts1); len(got) != 0 {
		t.Errorf("%d windows: goroutine starts %v, want none", n, got)
	}
}

// delta is after minus before, by site, without the sites that did
// not move.
func delta(before, after map[string]int) map[string]int {
	d := make(map[string]int)
	for site, k := range after {
		if k -= before[site]; k != 0 {
			d[site] = k
		}
	}
	return d
}

func TestSamplerConcurrencyStress(t *testing.T) {
	set := trace.NewSet()
	s := Start(Config{Interval: time.Millisecond, Source: set.Export})
	defer s.Stop()
	prev := SetActive(s)
	defer SetActive(prev)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("lat{g=%d}", g)
			for i := 0; i < 2000; i++ {
				set.Add("calls", 1)
				set.Observe(key, time.Duration(i)*time.Microsecond)
				Observe(key, time.Duration(i)*time.Microsecond, uint64(g), uint64(i))
				if i%100 == 0 {
					_ = s.Snapshot()
					_ = s.TailDump()
				}
			}
		}(g)
	}
	wg.Wait()
	s.Stop()

	snap := s.Snapshot()
	var calls int64
	for _, w := range snap.Windows {
		calls += w.Counters["calls"]
	}
	if calls != 8*2000 {
		t.Fatalf("windows account for %d calls, want %d", calls, 8*2000)
	}
}

func TestFormatStable(t *testing.T) {
	s := Series{Interval: int64(time.Second), Windows: []Window{
		{Seq: 0, Start: vclock.Epoch1993, Dur: int64(time.Second),
			Counters: map[string]int64{"b": 2, "a": 1},
			Hists: map[string]WindowHist{"lat": {Count: 1, Sum: 9, P50: 1000, P95: 1000, P99: 1000,
				Exemplars: []Exemplar{{Dur: 9, Trace: 0xabc, Span: 0xdef}}}}},
	}}
	got := s.Format()
	for _, want := range []string{"series: interval=1s windows=1", "w#0 1993-07-01", "a +1", "b +2", "lat: n=1", "ex=9ns/0000000000000abc/0000000000000def"} {
		if !strings.Contains(got, want) {
			t.Fatalf("Format missing %q:\n%s", want, got)
		}
	}
}
