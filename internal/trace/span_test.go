package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// withRecorder installs a fresh recorder for the test and removes it
// afterwards, so span tests don't leak recording into other tests.
func withRecorder(t *testing.T) *Recorder {
	t.Helper()
	rec := NewRecorder()
	SetRecorder(rec)
	t.Cleanup(func() { SetRecorder(nil) })
	return rec
}

func TestSpanDisabledIsNil(t *testing.T) {
	SetRecorder(nil)
	if Enabled() {
		t.Fatal("Enabled with no recorder")
	}
	sp := StartSpan("op", "host")
	if sp != nil {
		t.Fatal("StartSpan returned non-nil while disabled")
	}
	// Every method must be a no-op on nil.
	sp.Annotate("k", "v")
	sp.SetTrack(3)
	child := sp.Child("sub", "host")
	if child != nil {
		t.Fatal("nil span begat a non-nil child")
	}
	if sp.Context().Valid() {
		t.Fatal("nil span has a valid context")
	}
	sp.End()
	child.End()
	if StartChild(SpanContext{Trace: 1, Span: 2}, "op", "h") != nil {
		t.Fatal("StartChild returned non-nil while disabled")
	}
}

func TestSpanLifecycleAndParenting(t *testing.T) {
	rec := withRecorder(t)
	root := StartSpan("call add", "avs-sparc")
	if root == nil {
		t.Fatal("StartSpan returned nil with recorder installed")
	}
	rc := root.Context()
	if !rc.Valid() || rc.Trace != rc.Span {
		t.Fatalf("root context %+v: want valid with trace == own id", rc)
	}
	child := root.Child("attempt add", "avs-sparc")
	cc := child.Context()
	if cc.Trace != rc.Trace {
		t.Errorf("child trace %d, want parent's %d", cc.Trace, rc.Trace)
	}
	// Cross-process hop: remote side resumes from the wire context.
	remote := StartChild(cc, "dispatch add", "cray-lerc")
	remote.Annotate("note", "remote side")
	remote.End()
	child.End()
	root.End()
	root.End() // double End records once

	spans := rec.Spans()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	r, c, d := byName["call add"], byName["attempt add"], byName["dispatch add"]
	if r.Parent != 0 {
		t.Errorf("root parent = %d, want 0", r.Parent)
	}
	if c.Parent != r.ID || c.Trace != r.Trace {
		t.Errorf("child parent/trace = %d/%d, want %d/%d", c.Parent, c.Trace, r.ID, r.Trace)
	}
	if d.Parent != c.ID || d.Trace != r.Trace {
		t.Errorf("remote parent/trace = %d/%d, want %d/%d", d.Parent, d.Trace, c.ID, r.Trace)
	}
	if d.Host != "cray-lerc" {
		t.Errorf("remote host = %q", d.Host)
	}
	if len(d.Notes) != 1 || d.Notes[0] != (Label{Key: "note", Value: "remote side"}) {
		t.Errorf("remote notes = %+v", d.Notes)
	}
}

// TestStartChildInvalidContextRoots pins the receive-side behavior: an
// untraced request (zero context) starts a fresh root rather than
// attaching to trace 0.
func TestStartChildInvalidContextRoots(t *testing.T) {
	rec := withRecorder(t)
	sp := StartChild(SpanContext{}, "dispatch", "h")
	sp.End()
	spans := rec.Spans()
	if len(spans) != 1 || spans[0].Parent != 0 || spans[0].Trace != spans[0].ID {
		t.Fatalf("spans = %+v, want one fresh root", spans)
	}
}

func TestRecorderLimit(t *testing.T) {
	rec := NewRecorder()
	rec.limit = 2
	SetRecorder(rec)
	t.Cleanup(func() { SetRecorder(nil) })
	for i := 0; i < 5; i++ {
		StartSpan("s", "").End()
	}
	if n := len(rec.Spans()); n != 2 {
		t.Errorf("kept %d spans, want 2", n)
	}
	if d := rec.Dropped(); d != 3 {
		t.Errorf("dropped %d, want 3", d)
	}
}

// TestWriteChromeTrace records on a hand-stepped clock, so every
// exported timestamp and duration is exact: ts is microseconds since
// the recorder was created, dur the span's length in microseconds.
func TestWriteChromeTrace(t *testing.T) {
	now := time.Unix(500, 0).UTC()
	rec := NewRecorderClock(func() time.Time { return now })
	SetRecorder(rec)
	t.Cleanup(func() { SetRecorder(nil) })
	step := func(d time.Duration) { now = now.Add(d) }

	step(2 * time.Millisecond)
	root := StartSpan("call add", "avs-sparc")
	step(3 * time.Millisecond)
	remote := StartChild(root.Context(), "dispatch add", "cray-lerc")
	step(5 * time.Millisecond)
	remote.End()
	lane := StartSpan("node fan", "dataflow")
	lane.SetTrack(7)
	step(1500 * time.Microsecond)
	lane.End()
	root.End()

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int64             `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if out.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	procs := map[int]string{}
	times := map[string][2]float64{}
	var xEvents int
	var callEv, dispEv, laneEv map[string]string
	var callPid, dispPid int
	var laneTid int64
	for _, e := range out.TraceEvents {
		switch e.Ph {
		case "M":
			procs[e.Pid] = e.Args["name"]
		case "X":
			xEvents++
			times[e.Name] = [2]float64{e.Ts, e.Dur}
			switch e.Name {
			case "call add":
				callEv, callPid = e.Args, e.Pid
			case "dispatch add":
				dispEv, dispPid = e.Args, e.Pid
			case "node fan":
				laneEv, laneTid = e.Args, e.Tid
			}
		}
	}
	if xEvents != 3 {
		t.Fatalf("%d X events, want 3", xEvents)
	}
	if procs[callPid] != "avs-sparc" || procs[dispPid] != "cray-lerc" {
		t.Errorf("process names: call on %q, dispatch on %q", procs[callPid], procs[dispPid])
	}
	if callEv["trace"] == "" || callEv["trace"] != dispEv["trace"] {
		t.Errorf("trace ids differ across hosts: %q vs %q", callEv["trace"], dispEv["trace"])
	}
	if dispEv["parent"] != callEv["span"] {
		t.Errorf("dispatch parent = %q, want caller span %q", dispEv["parent"], callEv["span"])
	}
	if laneTid != 7 {
		t.Errorf("tracked span tid = %d, want 7", laneTid)
	}
	if laneEv["parent"] != "" {
		t.Errorf("root span exported a parent %q", laneEv["parent"])
	}
	for name, want := range map[string][2]float64{
		"call add":     {2000, 9500},
		"dispatch add": {5000, 5000},
		"node fan":     {10000, 1500},
	} {
		if got := times[name]; got != want {
			t.Errorf("%s: ts/dur = %v µs, want %v", name, got, want)
		}
	}
}

func TestConcurrentSpans(t *testing.T) {
	rec := withRecorder(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sp := StartSpan("op", "h")
				sp.Child("sub", "h").End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	if n := len(rec.Spans()); n != 1600 {
		t.Errorf("recorded %d spans, want 1600", n)
	}
	ids := map[uint64]bool{}
	for _, s := range rec.Spans() {
		if ids[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		ids[s.ID] = true
	}
}

func TestLKey(t *testing.T) {
	if got := LKey("schooner.client.call"); got != "schooner.client.call" {
		t.Errorf("unlabeled LKey = %q", got)
	}
	got := LKey("schooner.client.call", Label{Key: "proc", Value: "add"}, Label{Key: "host", Value: "cray"})
	if got != "schooner.client.call{proc=add,host=cray}" {
		t.Errorf("LKey = %q", got)
	}
}

// TestForkJoin checks the hand-back of a run recorded on a clock of
// its own: the fork's ids continue the parent's sequence, and each
// joined run starts where the parent's latest span ends, so two runs
// never overlap on the parent's timeline.
func TestForkJoin(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	rec := NewRecorderClock(func() time.Time { return epoch })
	run := func() {
		t0 := time.Date(1993, 7, 1, 0, 0, 0, 0, time.UTC)
		now := t0
		f := rec.Fork(func() time.Time { return now })
		sp := f.start("run", "h", SpanContext{})
		now = t0.Add(3 * time.Second)
		sp.End()
		rec.Join(f)
	}
	run()
	run()
	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %+v, want two", spans)
	}
	if spans[0].ID != 1 || spans[1].ID != 2 {
		t.Errorf("ids %d, %d: want the parent's sequence 1, 2", spans[0].ID, spans[1].ID)
	}
	if !spans[0].Start.Equal(epoch) || !spans[1].Start.Equal(epoch.Add(3*time.Second)) {
		t.Errorf("joined runs start at %v and %v, want the parent's epoch and 3s later",
			spans[0].Start, spans[1].Start)
	}
}
