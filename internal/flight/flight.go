// Package flight is the always-on flight recorder: a bounded,
// lock-cheap ring of structured events that every component — client,
// Manager, Server, procedure process, and the simulated network —
// appends to even when tracing is disabled. When something dies or an
// invariant trips, the ring holds the last N things the process
// actually did, each stamped with the trace/span IDs that were in
// flight, so a post-mortem can be correlated with the span timeline
// and the structured log.
//
// The recording hot path is one short critical section copying a
// fixed-size Event struct into a ring slot: no formatting, no I/O, and
// no allocation beyond one chunk of slots per 1024 events until the
// ring has reached its limit. Formatting happens only at dump time.
package flight

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a flight-recorder event. The set mirrors the
// runtime's interesting state transitions rather than its log lines:
// these are the events a post-mortem needs to reconstruct what a
// component was doing when it died.
type Kind uint8

const (
	KindInvalid      Kind = iota
	KindCallAttempt       // client: one attempt of a Line.Call
	KindCallRetry         // client: attempt failed, will retry
	KindCallFail          // client: call terminally failed
	KindBind              // client: bound a procedure to a process
	KindRebind            // client: invalidated a cached binding
	KindSpawn             // manager/server: process spawned
	KindLineRegister      // manager: line registered
	KindLineQuit          // manager: line quit
	KindMigration         // manager: procedure moved between hosts
	KindHealthDown        // manager: host transitioned to down
	KindHealthUp          // manager: host transitioned back up
	KindFailover          // manager: stateless procs re-homed off a dead host
	KindFaultInject       // netsim: fault model dropped/killed a message
	KindDispatch          // process: procedure invocation dispatched
	KindPanic             // any: panic captured before re-raise
	KindViolation         // dst/chaos: invariant violation detected
	KindNote              // anything else worth keeping
	KindCheckpoint        // manager: stateful procedure state journaled
	KindStateRestore      // manager: stateful proc restored from checkpoint
	KindFailoverSkip      // manager: stateful proc NOT failed over (no checkpoint)
	KindReadopt           // manager: surviving process re-adopted after recovery
	KindRecover           // manager: name database rebuilt from the journal
	KindTakeover          // standby: leader declared dead, standby promoted
	KindAttribution       // critpath: a critical-path edge captured with a profile

	kindMax
)

var kindNames = [...]string{
	KindInvalid:      "invalid",
	KindCallAttempt:  "call-attempt",
	KindCallRetry:    "call-retry",
	KindCallFail:     "call-fail",
	KindBind:         "bind",
	KindRebind:       "rebind",
	KindSpawn:        "spawn",
	KindLineRegister: "line-register",
	KindLineQuit:     "line-quit",
	KindMigration:    "migration",
	KindHealthDown:   "health-down",
	KindHealthUp:     "health-up",
	KindFailover:     "failover",
	KindFaultInject:  "fault-inject",
	KindDispatch:     "dispatch",
	KindPanic:        "panic",
	KindViolation:    "violation",
	KindNote:         "note",
	KindCheckpoint:   "checkpoint",
	KindStateRestore: "state-restore",
	KindFailoverSkip: "failover-skip",
	KindReadopt:      "readopt",
	KindRecover:      "recover",
	KindTakeover:     "takeover",
	KindAttribution:  "attribution",
}

func (k Kind) String() string {
	if k < kindMax {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsTransition reports whether k marks a cluster-shape change — a
// crash, failover, takeover, migration, recovery, or violation —
// rather than per-call traffic. Transition events are the ones a
// run report overlays on its load timeline, and the ones worth
// keeping verbatim when the per-call kinds would flood a capture.
func (k Kind) IsTransition() bool {
	switch k {
	case KindHealthDown, KindHealthUp, KindFailover, KindFailoverSkip,
		KindTakeover, KindViolation, KindMigration, KindStateRestore,
		KindRecover:
		return true
	}
	return false
}

// Event is one flight-recorder entry. All fields are plain values;
// callers pass strings they already hold (procedure names, host
// names) rather than formatting new ones, so recording never
// allocates. Seq and Time are stamped by Record.
type Event struct {
	Seq       uint64
	Time      time.Time
	Kind      Kind
	Component string // "client", "manager", "server", "process", "netsim", ...
	Host      string
	Line      uint32
	Trace     uint64 // trace ID when a span was active, else 0
	Span      uint64
	Name      string // procedure / line / host the event concerns
	Detail    string // preexisting string only; no fmt on the hot path
}

// DefaultLimit is the ring capacity of the package-level recorder:
// enough to hold the full recent history of a chaos run without
// growing, small enough that a dump stays readable.
const DefaultLimit = 4096

// chunkEvents is how many slots the ring grows by. A recorder sized for
// the worst case (a DST cluster asks for 65536 slots, 8 MB) costs only
// what its run actually records: most runs never touch most of it, and
// zeroing it up front was a measurable share of standing a cluster up.
const chunkEvents = 1024

// Recorder is a bounded ring of Events. Once full it overwrites the
// oldest entry; Dropped reports how many were overwritten.
type Recorder struct {
	mu      sync.Mutex
	limit   int
	chunks  [][]Event // slot i is chunks[i/chunkEvents][i%chunkEvents]
	next    int       // ring index of the next write
	seq     uint64    // total events ever recorded
	wrapped bool
	now     func() time.Time // stamps events; nil reads the wall clock
}

// NewRecorder returns a recorder holding at most limit events.
// limit <= 0 selects DefaultLimit.
func NewRecorder(limit int) *Recorder {
	if limit <= 0 {
		limit = DefaultLimit
	}
	return &Recorder{limit: limit}
}

// NewRecorderClock is NewRecorder stamping events with now instead of
// the wall clock. A run on a virtual clock records on that clock, so
// its events line up with its series windows and replay identically.
func NewRecorderClock(limit int, now func() time.Time) *Recorder {
	r := NewRecorder(limit)
	r.now = now
	return r
}

// Record appends e to the ring, stamping its sequence number and
// time. The critical section is one struct copy, plus a chunk
// allocation the first time the ring reaches into a new chunk.
func (r *Recorder) Record(e Event) {
	stamp := clock
	if r.now != nil {
		stamp = r.now
	}
	now := stamp()
	r.mu.Lock()
	r.seq++
	e.Seq = r.seq
	e.Time = now
	c := r.next / chunkEvents
	if c == len(r.chunks) {
		r.chunks = append(r.chunks, make([]Event, min(chunkEvents, r.limit-r.next)))
	}
	r.chunks[c][r.next%chunkEvents] = e
	r.next++
	if r.next == r.limit {
		r.next = 0
		r.wrapped = true
	}
	r.mu.Unlock()
}

// appendSlots appends ring slots [from, to) to out, oldest first.
func (r *Recorder) appendSlots(out []Event, from, to int) []Event {
	for from < to {
		c, off := from/chunkEvents, from%chunkEvents
		n := min(to-from, chunkEvents-off)
		out = append(out, r.chunks[c][off:off+n]...)
		from += n
	}
	return out
}

// Events returns the recorded events oldest-first. The slice is a
// copy; the ring keeps recording.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.wrapped {
		return r.appendSlots(make([]Event, 0, r.next), 0, r.next)
	}
	out := r.appendSlots(make([]Event, 0, r.limit), r.next, r.limit)
	return r.appendSlots(out, 0, r.next)
}

// Len reports how many events the ring currently holds.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wrapped {
		return r.limit
	}
	return r.next
}

// Dropped reports how many events have been overwritten because the
// ring was full — the dump is truncated by exactly this many entries.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.wrapped {
		return 0
	}
	return r.seq - uint64(r.limit)
}

// Reset clears the ring and its counters.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.next, r.seq, r.wrapped = 0, 0, false
	r.mu.Unlock()
}

// Aux dumps are optional extra post-mortem sections appended to every
// Dump — the time-series plane registers the last few metric windows
// ("series tail"), the attribution plane the top critical-path edges
// ("critical path") — so a chaos/DST failure dump shows the minutes
// and the costs before the violation, not just the instant. Sections
// render sorted by name so dumps stay deterministic regardless of
// registration order.
var (
	auxMu    sync.Mutex
	auxDumps = map[string]func() string{}
)

// SetAuxDump registers fn to contribute the named section to future
// dumps; a nil fn unregisters that name. Re-registering a name
// replaces its section.
func SetAuxDump(name string, fn func() string) {
	auxMu.Lock()
	defer auxMu.Unlock()
	if fn == nil {
		delete(auxDumps, name)
		return
	}
	auxDumps[name] = fn
}

// auxSections snapshots the registered sections in name order.
func auxSections() (names []string, fns []func() string) {
	auxMu.Lock()
	defer auxMu.Unlock()
	for n := range auxDumps {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fns = append(fns, auxDumps[n])
	}
	return names, fns
}

// Dump writes the ring's events oldest-first as one line each:
//
//	#seq time kind component@host line=N trace=... span=... name detail
//
// A truncation header states how many events were overwritten, so a
// short dump is visibly short rather than silently so. Any section
// registered via SetAuxDump follows the event lines.
func (r *Recorder) Dump(w io.Writer) error {
	events := r.Events()
	dropped := r.Dropped()
	if _, err := fmt.Fprintf(w, "flight recorder: %d events", len(events)); err != nil {
		return err
	}
	if dropped > 0 {
		if _, err := fmt.Fprintf(w, " (%d older events overwritten)", dropped); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for i := range events {
		if _, err := io.WriteString(w, FormatEvent(&events[i])); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	names, fns := auxSections()
	for i, name := range names {
		if _, err := fmt.Fprintf(w, "-- %s --\n", name); err != nil {
			return err
		}
		out := fns[i]()
		if _, err := io.WriteString(w, out); err != nil {
			return err
		}
		if !strings.HasSuffix(out, "\n") {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

// DumpString renders Dump into a string.
func (r *Recorder) DumpString() string {
	var b strings.Builder
	r.Dump(&b)
	return b.String()
}

// FormatEvent renders one event as the stable single-line dump form.
func FormatEvent(e *Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %s %-13s %s", e.Seq, e.Time.Format("15:04:05.000000"), e.Kind, e.Component)
	if e.Host != "" {
		fmt.Fprintf(&b, "@%s", e.Host)
	}
	if e.Line != 0 {
		fmt.Fprintf(&b, " line=%d", e.Line)
	}
	if e.Trace != 0 {
		fmt.Fprintf(&b, " trace=%016x span=%016x", e.Trace, e.Span)
	}
	if e.Name != "" {
		fmt.Fprintf(&b, " %s", e.Name)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " %s", e.Detail)
	}
	return b.String()
}

// The package-level recorder is always on: every component records
// into it without checking any gate, because the whole point is to
// have history when nobody thought to enable anything.
var defaultRec atomic.Pointer[Recorder]

func init() { defaultRec.Store(NewRecorder(DefaultLimit)) }

// Default returns the package-level recorder.
func Default() *Recorder { return defaultRec.Load() }

// Swap installs r as the package-level recorder and returns the
// previous one; nil installs a fresh default-sized ring. Tests use it
// to isolate their event streams.
func Swap(r *Recorder) *Recorder {
	if r == nil {
		r = NewRecorder(DefaultLimit)
	}
	return defaultRec.Swap(r)
}

// Record appends e to the package-level recorder.
func Record(e Event) { defaultRec.Load().Record(e) }

// Dump writes the package-level recorder's contents to w.
func Dump(w io.Writer) error { return defaultRec.Load().Dump(w) }

// DumpString renders the package-level recorder's contents.
func DumpString() string { return defaultRec.Load().DumpString() }

// DumpOnPanic is deferred at the top of a daemon's serving goroutine:
// when the goroutine panics, the panic value is recorded, the ring is
// dumped to w, and the panic resumes — so a crashed daemon leaves its
// last N events behind.
func DumpOnPanic(w io.Writer) {
	if r := recover(); r != nil {
		Record(Event{Kind: KindPanic, Component: "panic", Detail: fmt.Sprint(r)})
		Dump(w)
		panic(r)
	}
}

// clock is swapped by tests that need deterministic timestamps.
var clock = time.Now
