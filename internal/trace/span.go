package trace

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Distributed tracing: spans describe timed operations, linked into
// trees by parent ids and grouped into traces by a shared trace id.
// The span context (trace id + span id) is small enough to ride in the
// wire protocol envelope, so a trace crosses process and machine
// boundaries: the client's call span, the Manager's request span, the
// Server's spawn span, and the procedure process's dispatch spans all
// share one trace id.
//
// Recording is off by default and costs one atomic load per check.
// StartSpan and friends return a nil *Span when no recorder is
// installed; every Span method is nil-safe, so instrumented code never
// branches on the recording state (but should guard any work done
// purely to build span arguments behind Enabled()).

// SpanContext identifies a span for cross-process propagation. The
// zero value is "not traced".
type SpanContext struct {
	Trace uint64
	Span  uint64
}

// Valid reports whether the context identifies a live trace.
func (c SpanContext) Valid() bool { return c.Trace != 0 }

// Label is one key=value annotation, shared by span arguments and
// labeled metric keys (see LKey).
type Label struct {
	Key   string
	Value string
}

// SpanRecord is one finished span as stored by the Recorder.
type SpanRecord struct {
	Trace  uint64
	ID     uint64
	Parent uint64 // 0 for a root span
	Name   string
	Host   string // machine the operation ran on ("" = local)
	Track  int64  // display lane hint; <0 means "use the trace id"
	Start  time.Time
	Dur    time.Duration
	Notes  []Label
}

// Span is an in-progress operation. A nil Span (recording disabled)
// accepts every method as a no-op.
type Span struct {
	rec    *Recorder
	trace  uint64
	id     uint64
	parent uint64
	name   string
	host   string
	start  time.Time

	mu    sync.Mutex
	track int64
	notes []Label
	ended bool
}

// recorder is the process-wide span sink; nil means recording is off.
var recorder atomic.Pointer[Recorder]

// Enabled reports whether a span recorder is installed. It is the
// hot-path gate: one atomic load, no allocation.
func Enabled() bool { return recorder.Load() != nil }

// SetRecorder installs (or, with nil, removes) the process-wide span
// recorder.
func SetRecorder(r *Recorder) { recorder.Store(r) }

// ActiveRecorder returns the installed recorder, or nil.
func ActiveRecorder() *Recorder { return recorder.Load() }

// StartSpan begins a root span (a fresh trace id) on the given host.
// Returns nil when recording is disabled.
func StartSpan(name, host string) *Span {
	r := recorder.Load()
	if r == nil {
		return nil
	}
	return r.start(name, host, SpanContext{})
}

// StartChild begins a span under an incoming context — the receive
// side of cross-process propagation. An invalid context starts a new
// root instead, so a traced process still records work triggered by an
// untraced peer. Returns nil when recording is disabled.
func StartChild(parent SpanContext, name, host string) *Span {
	r := recorder.Load()
	if r == nil {
		return nil
	}
	return r.start(name, host, parent)
}

// Context returns the span's propagatable identity; zero for nil.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.trace, Span: s.id}
}

// Child begins a sub-span of s in the same trace; nil begets nil.
func (s *Span) Child(name, host string) *Span {
	if s == nil {
		return nil
	}
	return s.rec.start(name, host, SpanContext{Trace: s.trace, Span: s.id})
}

// Annotate attaches a key=value note to the span.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.notes = append(s.notes, Label{Key: key, Value: value})
	s.mu.Unlock()
}

// SetTrack pins the span to a display lane (Chrome trace "tid");
// by default spans lane by trace id.
func (s *Span) SetTrack(track int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.track = track
	s.mu.Unlock()
}

// End finishes the span and hands it to the recorder. Multiple Ends
// record once.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := s.rec.now().Sub(s.start)
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := SpanRecord{
		Trace: s.trace, ID: s.id, Parent: s.parent,
		Name: s.name, Host: s.host, Track: s.track,
		Start: s.start, Dur: d, Notes: s.notes,
	}
	s.mu.Unlock()
	s.rec.add(rec)
}

// Recorder collects finished spans, bounded by a cap so a runaway
// traced run degrades to dropped spans rather than unbounded memory.
type Recorder struct {
	epoch time.Time
	limit int
	now   func() time.Time
	ids   *atomic.Uint64 // the last span id handed out; shared with forks

	mu      sync.Mutex
	spans   []SpanRecord
	dropped int64
}

// DefaultSpanLimit bounds how many spans one Recorder retains.
const DefaultSpanLimit = 1 << 20

// NewRecorder creates an empty recorder with the default span cap.
func NewRecorder() *Recorder {
	return NewRecorderClock(time.Now)
}

// NewRecorderClock creates a recorder that reads time from now
// instead of the wall clock. Under the DST virtual clock this makes
// every span timestamp deterministic, so a replay's profile is
// byte-identical to the original run's.
func NewRecorderClock(now func() time.Time) *Recorder {
	return &Recorder{epoch: now(), now: now, limit: DefaultSpanLimit, ids: new(atomic.Uint64)}
}

// Fork returns an empty recorder that stamps spans with now and draws
// span ids from r's sequence. A run on a clock of its own records into
// a fork and hands it back with Join; the ids its flight events and
// series exemplars carry stay valid in r.
func (r *Recorder) Fork(now func() time.Time) *Recorder {
	return &Recorder{epoch: now(), now: now, limit: r.limit, ids: r.ids}
}

// Join appends the spans of f, a fork of r, shifted so f's epoch lands
// at the end of the latest span r holds (at r's epoch when it holds
// none): runs joined one after another follow each other on r's
// timeline without overlapping. Spans over r's cap, and those f
// dropped, count as dropped.
func (r *Recorder) Join(f *Recorder) {
	spans, dropped := f.Spans(), f.Dropped()
	r.mu.Lock()
	defer r.mu.Unlock()
	at := r.epoch
	for _, s := range r.spans {
		if end := s.Start.Add(s.Dur); end.After(at) {
			at = end
		}
	}
	shift := at.Sub(f.epoch)
	for _, s := range spans {
		if len(r.spans) >= r.limit {
			r.dropped++
			continue
		}
		s.Start = s.Start.Add(shift)
		r.spans = append(r.spans, s)
	}
	r.dropped += dropped
}

// start allocates a span. Roots take their own id as the trace id, so
// ids never collide across the spans of one recorder.
func (r *Recorder) start(name, host string, parent SpanContext) *Span {
	s := &Span{rec: r, name: name, host: host, start: r.now(), track: -1}
	s.id = r.ids.Add(1)
	if parent.Valid() {
		s.trace = parent.Trace
		s.parent = parent.Span
	} else {
		s.trace = s.id
	}
	return s
}

func (r *Recorder) add(rec SpanRecord) {
	r.mu.Lock()
	if len(r.spans) >= r.limit {
		r.dropped++
	} else {
		r.spans = append(r.spans, rec)
	}
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans, in completion order.
func (r *Recorder) Spans() []SpanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SpanRecord(nil), r.spans...)
}

// Dropped reports how many spans were discarded at the cap.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// chromeEvent is one entry of the Chrome trace-event JSON format
// (chrome://tracing, Perfetto, speedscope all read it).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the recorded spans as Chrome trace-event
// JSON. Each host becomes a "process" row (named by a metadata event);
// within a host, spans lane by their track hint or, by default, by
// trace id, so concurrent calls render side by side. Timestamps are
// microseconds since the recorder was created.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	spans := r.Spans()
	dropped := r.Dropped()

	hostSet := make(map[string]bool)
	for _, s := range spans {
		hostSet[s.Host] = true
	}
	hosts := make([]string, 0, len(hostSet))
	for h := range hostSet {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	pidOf := make(map[string]int, len(hosts))
	events := make([]chromeEvent, 0, len(spans)+len(hosts))
	for i, h := range hosts {
		pidOf[h] = i + 1
		label := h
		if label == "" {
			label = "local"
		}
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: i + 1,
			Args: map[string]string{"name": label},
		})
	}

	for _, s := range spans {
		args := map[string]string{
			"trace": formatID(s.Trace),
			"span":  formatID(s.ID),
		}
		if s.Parent != 0 {
			args["parent"] = formatID(s.Parent)
		}
		for _, n := range s.Notes {
			args[n.Key] = n.Value
		}
		tid := s.Track
		if tid < 0 {
			tid = int64(s.Trace)
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: "schooner", Ph: "X",
			Ts:  float64(s.Start.Sub(r.epoch)) / float64(time.Microsecond),
			Dur: float64(s.Dur) / float64(time.Microsecond),
			Pid: pidOf[s.Host], Tid: tid,
			Args: args,
		})
	}

	// A truncated timeline announces itself: a metadata event carries
	// the number of spans the recorder discarded at its cap.
	if dropped > 0 {
		events = append(events, chromeEvent{
			Name: "dropped_spans", Ph: "M", Pid: 0,
			Args: map[string]string{"count": strconv.FormatInt(dropped, 10)},
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

func formatID(id uint64) string {
	const hex = "0123456789abcdef"
	var b [16]byte
	i := len(b)
	for {
		i--
		b[i] = hex[id&0xf]
		id >>= 4
		if id == 0 {
			break
		}
	}
	return string(b[i:])
}

// LKey renders a labeled metric key in the naming scheme
// schooner.<component>.<name>{k1=v1,k2=v2}. Labels are rendered in
// argument order; call sites use a fixed order so keys stay stable.
func LKey(name string, labels ...Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.Grow(len(name) + 16*len(labels))
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}
