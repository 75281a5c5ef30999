// Package critpath turns a run's span recording into a latency
// attribution: the critical path through the call→attempt→dispatch→
// proc span DAG with every nanosecond of each phase charged to one of
// five buckets (compute, network, queueing, retry/backoff,
// conversion/codec), plus per-host and per-link cost profiles usable
// as the placement cost model of ROADMAP item 5.
//
// The analysis is a pure function of the recorded spans and the link
// counters, so under the DST virtual clock the encoded profile is
// byte-identical across same-seed replays. Raw span and trace ids are
// deliberately absent from the output: id assignment order races
// between goroutines even when span content is deterministic, so the
// profile speaks only in names, hosts, buckets, and offsets from the
// earliest recorded span.
package critpath

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"npss/internal/trace"
)

// The attribution buckets. Every segment of a phase's critical path
// lands in exactly one.
const (
	Compute    = "compute"
	Network    = "network"
	Queueing   = "queueing"
	Retry      = "retry"
	Conversion = "conversion"
)

// Buckets lists the buckets in display order.
var Buckets = []string{Compute, Network, Queueing, Retry, Conversion}

// Profile is one run's full cost decomposition.
type Profile struct {
	// Phases are the top-level intervals of the run (the "local run"
	// and "remote run" spans of an experiment; one synthetic "run"
	// phase when the recording has no phase spans, as under DST), in
	// start order.
	Phases []Phase `json:"phases"`
	// Hosts are the per-machine cost profiles, sorted by host name.
	Hosts []HostProfile `json:"hosts"`
	// Links are the per-link cost profiles, sorted by link name;
	// empty when the caller had no link counters to contribute.
	Links []LinkProfile `json:"links,omitempty"`
	// Total rolls the phases up: what the attribution test pins.
	Total Totals `json:"total"`
	// Spans counts the records analyzed; Dropped what the recorder
	// discarded at its cap (a nonzero value taints the attribution).
	Spans   int   `json:"spans"`
	Dropped int64 `json:"dropped,omitempty"`
}

// Phase is one top-level interval with its critical path. The bucket
// sums partition the phase exactly: they add up to Dur by
// construction, which is what makes "bucket sums equal wall clock"
// checkable to within rounding.
type Phase struct {
	Name  string        `json:"name"`
	Host  string        `json:"host,omitempty"`
	Start time.Duration `json:"start"` // offset from the profile epoch
	Dur   time.Duration `json:"dur"`
	// Buckets is the phase duration decomposed along the critical
	// path. Keys are the bucket names; Go's JSON encoder emits map
	// keys sorted, so the encoding is deterministic.
	Buckets map[string]time.Duration `json:"buckets"`
	// Path is the critical path itself, chronological: a gap-free
	// partition of [Start, Start+Dur].
	Path []Edge `json:"path"`
}

// Edge is one segment of a critical path: the span whose self-time
// covers it, and the bucket that time is charged to.
type Edge struct {
	Name   string        `json:"name"`
	Host   string        `json:"host,omitempty"`
	Bucket string        `json:"bucket"`
	Start  time.Duration `json:"start"`
	Dur    time.Duration `json:"dur"`
}

// HostProfile is the per-machine side of the cost model.
type HostProfile struct {
	Host  string `json:"host"`
	Spans int    `json:"spans"`
	// Busy is the union of span intervals on the host: time it had
	// at least one operation open.
	Busy time.Duration `json:"busy"`
	// MaxDepth is the peak number of concurrently open spans — the
	// host's queue depth; AvgDepth its time-weighted mean over the
	// busy window.
	MaxDepth int     `json:"max_depth"`
	AvgDepth float64 `json:"avg_depth"`
	// Buckets is the span self-time on this host by bucket.
	Buckets map[string]time.Duration `json:"buckets"`
}

// LinkProfile is the per-link side of the cost model, from the
// netsim traffic counters.
type LinkProfile struct {
	Link     string        `json:"link"`
	Messages int64         `json:"messages"`
	Bytes    int64         `json:"bytes"`
	Delay    time.Duration `json:"delay"`
	Dropped  int64         `json:"dropped,omitempty"`
	// ByteDelay is bytes × mean per-message delay, in byte-seconds:
	// the single-number placement weight of moving this traffic over
	// this link.
	ByteDelay float64 `json:"byte_delay"`
}

// Totals is the roll-up of a profile's phases.
type Totals struct {
	// CriticalPath is the summed phase durations — the attributed
	// wall clock of the run.
	CriticalPath time.Duration            `json:"critical_path"`
	Buckets      map[string]time.Duration `json:"buckets"`
}

// LinkIO carries one link's traffic counters into Analyze. It mirrors
// netsim.LinkStats without importing netsim, so critpath stays
// importable from every layer.
type LinkIO struct {
	Messages int64
	Bytes    int64
	Delay    time.Duration
	Dropped  int64
}

// Classify maps a span name to its attribution bucket. The rules
// (documented in DESIGN.md §17) charge each span's *self-time* — the
// parts of its interval not covered by children on the critical path:
//
//   - decode/encode: conversion (the UTS codec work);
//   - attempt spans: network (self-time is wire transit, since the
//     remote dispatch span is a child);
//   - call spans: retry (self-time between attempts is backoff sleep);
//   - dispatch/manager/server/control spans: queueing (self-time is
//     instance serialization or control-plane wait);
//   - proc/node/batch/engine/phase spans: compute.
func Classify(name string) string {
	switch {
	case name == "decode" || name == "encode":
		return Conversion
	case strings.HasPrefix(name, "attempt "):
		return Network
	case strings.HasPrefix(name, "call "):
		return Retry
	case strings.HasPrefix(name, "dispatch "),
		strings.HasPrefix(name, "manager."),
		strings.HasPrefix(name, "server."),
		strings.HasPrefix(name, "failover "),
		strings.HasPrefix(name, "lookup "),
		strings.HasPrefix(name, "start "),
		strings.HasPrefix(name, "move "),
		name == synthRun, name == synthOther:
		return Queueing
	default:
		return Compute
	}
}

// isContainer reports whether a span may adopt parentless roots that
// fall inside its interval. Only the structural spans qualify —
// experiment phases, the engine's solver passes, and dataflow
// wavefront spans — so a call can never be adopted by an unrelated
// proc span that merely overlaps it. The solver passes ("balance",
// "transient") matter: they bracket the whole run, and without them
// the walk would charge everything inside to engine compute instead
// of descending into the node and call spans they drive.
func isContainer(name string) bool {
	return name == "local run" || name == "remote run" ||
		name == "balance" || name == "transient" ||
		strings.HasPrefix(name, "node ") ||
		strings.HasPrefix(name, "batch ") ||
		strings.HasPrefix(name, "phase ")
}

// Names of the synthetic phases the analyzer invents when the
// recording has no phase spans of its own.
const (
	synthRun   = "run"
	synthOther = "other"
)

type node struct {
	s        trace.SpanRecord
	end      time.Time
	bucket   string
	children []*node
	adopted  bool // attached by containment or parent link
	synth    bool
}

// Analyze builds the profile for one run. links may be nil. dropped
// is the recorder's discard count (0 when unknown).
func Analyze(spans []trace.SpanRecord, links map[string]LinkIO, dropped int64) *Profile {
	p := &Profile{
		Phases: []Phase{},
		Hosts:  []HostProfile{},
		Total:  Totals{Buckets: zeroBuckets()},
		Spans:  len(spans),
	}
	p.Dropped = dropped
	p.Links = linkProfiles(links)
	if len(spans) == 0 {
		return p
	}

	// Deterministic working order: insertion order reflects the race
	// of which goroutine finished first, so re-sort by content.
	spans = append([]trace.SpanRecord(nil), spans...)
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		if a.Dur != b.Dur {
			return a.Dur > b.Dur // parents before their same-instant children
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Host < b.Host
	})

	epoch := spans[0].Start
	var last time.Time
	nodes := make([]*node, len(spans))
	byID := make(map[uint64]*node, len(spans))
	for i, s := range spans {
		n := &node{s: s, end: s.Start.Add(s.Dur), bucket: Classify(s.Name)}
		nodes[i] = n
		byID[s.ID] = n
		if n.end.After(last) {
			last = n.end
		}
	}

	// Explicit parent links first.
	for _, n := range nodes {
		if n.s.Parent == 0 {
			continue
		}
		if par, ok := byID[n.s.Parent]; ok && par != n {
			par.children = append(par.children, n)
			n.adopted = true
		}
	}

	// Then containment: parentless roots attach to the smallest
	// container span whose interval strictly covers theirs.
	var containers []*node
	for _, n := range nodes {
		if isContainer(n.s.Name) {
			containers = append(containers, n)
		}
	}
	sort.Slice(containers, func(i, j int) bool {
		a, b := containers[i], containers[j]
		if a.s.Dur != b.s.Dur {
			return a.s.Dur < b.s.Dur
		}
		if !a.s.Start.Equal(b.s.Start) {
			return a.s.Start.Before(b.s.Start)
		}
		return a.s.Name < b.s.Name
	})
	for _, n := range nodes {
		if n.adopted {
			continue
		}
		for _, c := range containers {
			if c == n || c.s.Dur <= n.s.Dur {
				continue
			}
			if !c.s.Start.After(n.s.Start) && !n.end.After(c.end) {
				c.children = append(c.children, n)
				n.adopted = true
				break
			}
		}
	}

	// Phases: the unadopted containers, plus one synthetic phase for
	// whatever unadopted roots remain (all of them, under DST).
	var phaseNodes, strays []*node
	for _, n := range nodes {
		if n.adopted {
			continue
		}
		if isContainer(n.s.Name) {
			phaseNodes = append(phaseNodes, n)
		} else {
			strays = append(strays, n)
		}
	}
	if len(strays) > 0 {
		name := synthOther
		if len(phaseNodes) == 0 {
			name = synthRun
		}
		lo, hi := strays[0].s.Start, strays[0].end
		for _, n := range strays[1:] {
			if n.s.Start.Before(lo) {
				lo = n.s.Start
			}
			if n.end.After(hi) {
				hi = n.end
			}
		}
		syn := &node{
			s:      trace.SpanRecord{Name: name, Start: lo, Dur: hi.Sub(lo)},
			end:    hi,
			bucket: Classify(name),
			synth:  true,
		}
		syn.children = strays
		phaseNodes = append(phaseNodes, syn)
	}
	sort.Slice(phaseNodes, func(i, j int) bool {
		a, b := phaseNodes[i], phaseNodes[j]
		if !a.s.Start.Equal(b.s.Start) {
			return a.s.Start.Before(b.s.Start)
		}
		return a.s.Name < b.s.Name
	})

	// Children walk in end order.
	for _, n := range nodes {
		sortChildren(n.children)
	}
	for _, ph := range phaseNodes {
		sortChildren(ph.children)
	}

	for _, ph := range phaseNodes {
		phase := Phase{
			Name:    ph.s.Name,
			Host:    ph.s.Host,
			Start:   ph.s.Start.Sub(epoch),
			Dur:     ph.s.Dur,
			Buckets: zeroBuckets(),
			Path:    []Edge{},
		}
		walk(ph, ph.s.Start, ph.end, epoch, &phase)
		// The backward walk emits segments latest-first.
		for i, j := 0, len(phase.Path)-1; i < j; i, j = i+1, j-1 {
			phase.Path[i], phase.Path[j] = phase.Path[j], phase.Path[i]
		}
		p.Phases = append(p.Phases, phase)
		p.Total.CriticalPath += phase.Dur
		for k, v := range phase.Buckets {
			p.Total.Buckets[k] += v
		}
	}

	p.Hosts = hostProfiles(nodes)
	return p
}

func sortChildren(ch []*node) {
	sort.Slice(ch, func(i, j int) bool {
		a, b := ch[i], ch[j]
		if !a.end.Equal(b.end) {
			return a.end.Before(b.end)
		}
		if !a.s.Start.Equal(b.s.Start) {
			return a.s.Start.Before(b.s.Start)
		}
		if a.s.Name != b.s.Name {
			return a.s.Name < b.s.Name
		}
		return a.s.Host < b.s.Host
	})
}

// walk traces the critical path of n's subtree backward over [lo, hi]:
// from the end of the window, descend into the last-ending child,
// charging the uncovered remainder to n itself, and repeat from that
// child's start. The emitted segments partition [lo, hi] exactly, so
// the phase's bucket sums equal its duration by construction.
func walk(n *node, lo, hi time.Time, epoch time.Time, phase *Phase) {
	cursor := hi
	kids := n.children
	for i := len(kids) - 1; i >= 0 && cursor.After(lo); i-- {
		c := kids[i]
		cs := maxTime(c.s.Start, lo)
		ce := minTime(c.end, cursor)
		if !ce.After(lo) {
			break // children are end-sorted: the rest end even earlier
		}
		if !ce.After(cs) {
			continue // empty after clamping to the window
		}
		if ce.Before(cursor) {
			emit(n, ce, cursor, epoch, phase)
		}
		walk(c, cs, ce, epoch, phase)
		cursor = cs
	}
	if cursor.After(lo) {
		emit(n, lo, cursor, epoch, phase)
	}
}

func emit(n *node, from, to time.Time, epoch time.Time, phase *Phase) {
	d := to.Sub(from)
	phase.Buckets[n.bucket] += d
	phase.Path = append(phase.Path, Edge{
		Name:   n.s.Name,
		Host:   n.s.Host,
		Bucket: n.bucket,
		Start:  from.Sub(epoch),
		Dur:    d,
	})
}

// hostProfiles computes the per-machine cost profiles: busy time as
// the union of span intervals, queue depth from the concurrency
// sweep, and self-time by bucket.
func hostProfiles(nodes []*node) []HostProfile {
	type hostAcc struct {
		spans     []*node
		intervals [][2]time.Time
	}
	hosts := map[string]*hostAcc{}
	for _, n := range nodes {
		if n.synth {
			continue
		}
		h := hosts[n.s.Host]
		if h == nil {
			h = &hostAcc{}
			hosts[n.s.Host] = h
		}
		h.spans = append(h.spans, n)
		h.intervals = append(h.intervals, [2]time.Time{n.s.Start, n.end})
	}
	names := make([]string, 0, len(hosts))
	for h := range hosts {
		names = append(names, h)
	}
	sort.Strings(names)
	out := make([]HostProfile, 0, len(names))
	for _, name := range names {
		h := hosts[name]
		hp := HostProfile{Host: name, Spans: len(h.spans), Buckets: zeroBuckets()}
		hp.Busy = unionLen(h.intervals)
		hp.MaxDepth, hp.AvgDepth = depth(h.intervals, hp.Busy)
		for _, n := range h.spans {
			hp.Buckets[n.bucket] += selfTime(n)
		}
		out = append(out, hp)
	}
	return out
}

// selfTime is a span's duration minus the union of its children's
// intervals clipped to it — the time it was the deepest open span.
func selfTime(n *node) time.Duration {
	if len(n.children) == 0 {
		return n.s.Dur
	}
	iv := make([][2]time.Time, 0, len(n.children))
	for _, c := range n.children {
		cs := maxTime(c.s.Start, n.s.Start)
		ce := minTime(c.end, n.end)
		if ce.After(cs) {
			iv = append(iv, [2]time.Time{cs, ce})
		}
	}
	d := n.s.Dur - unionLen(iv)
	if d < 0 {
		d = 0
	}
	return d
}

func unionLen(iv [][2]time.Time) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	cur := iv[0]
	for _, x := range iv[1:] {
		if !x[0].After(cur[1]) {
			if x[1].After(cur[1]) {
				cur[1] = x[1]
			}
			continue
		}
		total += cur[1].Sub(cur[0])
		cur = x
	}
	return total + cur[1].Sub(cur[0])
}

// depth sweeps the interval starts and ends, returning the peak
// concurrency and its time-weighted mean over the busy window.
func depth(iv [][2]time.Time, busy time.Duration) (int, float64) {
	type ev struct {
		t     time.Time
		delta int
	}
	evs := make([]ev, 0, 2*len(iv))
	for _, x := range iv {
		evs = append(evs, ev{x[0], 1}, ev{x[1], -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if !evs[i].t.Equal(evs[j].t) {
			return evs[i].t.Before(evs[j].t)
		}
		return evs[i].delta < evs[j].delta // close before open at the same instant
	})
	var cur, max int
	var weighted float64
	var prev time.Time
	for i, e := range evs {
		if i > 0 && cur > 0 {
			weighted += float64(cur) * float64(e.t.Sub(prev))
		}
		cur += e.delta
		if cur > max {
			max = cur
		}
		prev = e.t
	}
	avg := 0.0
	if busy > 0 {
		avg = weighted / float64(busy)
	}
	return max, math.Round(avg*1000) / 1000
}

func linkProfiles(links map[string]LinkIO) []LinkProfile {
	if len(links) == 0 {
		return nil
	}
	names := make([]string, 0, len(links))
	for n := range links {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]LinkProfile, 0, len(names))
	for _, n := range names {
		l := links[n]
		lp := LinkProfile{
			Link:     n,
			Messages: l.Messages,
			Bytes:    l.Bytes,
			Delay:    l.Delay,
			Dropped:  l.Dropped,
		}
		if l.Messages > 0 {
			lp.ByteDelay = math.Round(float64(l.Bytes)*l.Delay.Seconds()/float64(l.Messages)*1e6) / 1e6
		}
		out = append(out, lp)
	}
	return out
}

func zeroBuckets() map[string]time.Duration {
	m := make(map[string]time.Duration, len(Buckets))
	for _, b := range Buckets {
		m[b] = 0
	}
	return m
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// TopEdges returns the k longest critical-path segments across all
// phases, longest first (ties: earlier start, then name).
func TopEdges(p *Profile, k int) []Edge {
	var all []Edge
	for _, ph := range p.Phases {
		all = append(all, ph.Path...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Dur != b.Dur {
			return a.Dur > b.Dur
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Name < b.Name
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// FlightSection renders the top-3 critical-path edges of the active
// recorder for a flight-recorder aux dump: the "why was this slow"
// context a post-mortem wants next to the event ring.
func FlightSection() string {
	p := ActiveSnapshot()
	if p.Spans == 0 {
		return "no spans recorded"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "critical path %s across %d phase(s), %d spans\n",
		p.Total.CriticalPath, len(p.Phases), p.Spans)
	for _, e := range TopEdges(p, 3) {
		host := e.Host
		if host == "" {
			host = "local"
		}
		fmt.Fprintf(&b, "  %-10s %s on %s at +%s for %s\n", e.Bucket, e.Name, host, e.Start, e.Dur)
	}
	return strings.TrimRight(b.String(), "\n")
}

// ActiveSnapshot analyzes the process-wide recorder's spans so far.
// With no recorder installed it returns an empty profile.
func ActiveSnapshot() *Profile {
	r := trace.ActiveRecorder()
	if r == nil {
		return Analyze(nil, nil, 0)
	}
	return Analyze(r.Spans(), nil, r.Dropped())
}
