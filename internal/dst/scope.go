package dst

import (
	"sync"
	"sync/atomic"
	"time"

	"npss/internal/flight"
	"npss/internal/trace"
	"npss/internal/tseries"
	"npss/internal/vclock"
)

// runMu serializes simulated runs: each scopes the process-global
// metric set, flight recorder and series sampler. active is the clock
// of the run in progress, for StuckReport.
var (
	runMu  sync.Mutex
	active atomic.Pointer[vclock.Virtual]
)

// StuckReport describes the run in progress when it appears hung: the
// virtual clock's ledger — which participants hold time still, who is
// parked — followed by the flight recorder's dump, through which it is
// also recorded. Tests call it from a watchdog; "" when no run is
// active.
func StuckReport() string {
	v := active.Load()
	if v == nil {
		return ""
	}
	ledger := v.Ledger()
	flight.Record(flight.Event{Kind: flight.KindNote, Component: "dst", Name: "stuck", Detail: ledger})
	return "virtual clock " + ledger + "\n" + flight.DumpString()
}

// Scope confines the process-global observability planes — metric
// set, flight recorder, series sampler — to one simulated run, and
// measures what simulating it cost in wall time. Every harness on the
// virtual clock (a Cluster, the scenario package's table2 run) scopes
// its run through one, in this order:
//
//	s := OpenScope()            // stand-up counts into a set of its own
//	set := s.Start(v, interval) // the run proper, on clock v
//	s.Collect(res, dump)        // while v still runs
//	res.RealElapsed = s.Close() // after v has stopped
//
// Only one Scope is open at a time: OpenScope waits for the last one
// to Close.
type Scope struct {
	start     time.Time
	base, set *trace.Set
	rec       *flight.Recorder
	sampler   *tseries.Sampler
	prevSet   *trace.Set
	prevRec   *flight.Recorder
}

// OpenScope waits for any other simulated run to finish, starts the
// wall-clock count, and installs a fresh metric set for what comes
// before Start: a stand-up's counts reach Result.Metrics but stay out
// of the run's own set and series.
func OpenScope() *Scope {
	runMu.Lock()
	s := &Scope{start: time.Now(), base: trace.NewSet()}
	s.prevSet = trace.Swap(s.base)
	return s
}

// Start begins the run proper on clock v: it registers v for
// StuckReport, installs a fresh metric set (returned) and a flight
// recorder stamping v, and, for a positive interval, a series sampler
// on v. The recorder is sized so tens of thousands of per-call events
// cannot evict the transition events a report overlays.
func (s *Scope) Start(v *vclock.Virtual, interval time.Duration) *trace.Set {
	active.Store(v)
	s.set = trace.NewSet()
	trace.Swap(s.set)
	s.rec = flight.NewRecorderClock(1<<16, v.Now)
	s.prevRec = flight.Swap(s.rec)
	if interval > 0 {
		// Installing it as the active sampler routes the runtime's
		// per-call exemplars into the windows and its tail into flight
		// dumps.
		s.sampler = tseries.Start(tseries.Config{Interval: interval, Clock: v, Source: s.set.Export})
		tseries.SetActive(s.sampler)
	}
	return s.set
}

// Collect fills res's Metrics, Series and transition Events, and with
// dump set its FlightDump. It must run while the run's clock still
// does: stopping the sampler flushes the final partial window at this
// virtual instant. The dump is taken first, so it carries the series
// tail.
func (s *Scope) Collect(res *Result, dump bool) {
	res.Metrics = s.set.Export()
	res.Metrics.Merge(s.base.Export())
	if dump {
		res.FlightDump = flight.DumpString()
	}
	if s.sampler != nil {
		s.stopSampler()
		res.Series = s.sampler.Snapshot()
	}
	// The per-call kinds stay out: the series already aggregates them.
	for _, e := range s.rec.Events() {
		if e.Kind.IsTransition() {
			res.Events = append(res.Events, e)
		}
	}
}

// stopSampler uninstalls and stops the sampler, if any. Stop is
// idempotent; it must come before the run's clock stops.
func (s *Scope) stopSampler() {
	if s.sampler != nil {
		tseries.SetActive(nil)
		s.sampler.Stop()
	}
}

// Close puts back the metric set and flight recorder the scope
// displaced, lets the next run open, and returns the wall time since
// OpenScope.
func (s *Scope) Close() time.Duration {
	active.Store(nil)
	if s.rec != nil {
		flight.Swap(s.prevRec)
	}
	trace.Swap(s.prevSet)
	runMu.Unlock()
	return time.Since(s.start)
}
