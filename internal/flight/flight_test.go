package flight

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRingOrderAndDropped(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 6; i++ {
		r.Record(Event{Kind: KindNote, Component: "test", Name: string(rune('a' + i))})
	}
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("got %d events, want 4", len(ev))
	}
	// Events 1 and 2 were overwritten; 3..6 remain oldest-first.
	for i, want := range []uint64{3, 4, 5, 6} {
		if ev[i].Seq != want {
			t.Errorf("event %d: seq %d, want %d", i, ev[i].Seq, want)
		}
	}
	if got := r.Dropped(); got != 2 {
		t.Errorf("Dropped() = %d, want 2", got)
	}
	if got := r.Len(); got != 4 {
		t.Errorf("Len() = %d, want 4", got)
	}
}

// TestRingWrapsAcrossChunks sizes the ring so its last chunk is a
// partial one and checks the ring at three points: inside the first
// chunk, after growing into the second, and after wrapping, when the
// oldest-first view starts mid-chunk and crosses both the chunk
// boundary and the wrap point.
func TestRingWrapsAcrossChunks(t *testing.T) {
	const limit = chunkEvents + 300
	r := NewRecorder(limit)
	check := func(recorded int) {
		t.Helper()
		held := min(recorded, limit)
		ev := r.Events()
		if len(ev) != held || r.Len() != held {
			t.Fatalf("after %d records: %d events, Len %d, want %d", recorded, len(ev), r.Len(), held)
		}
		if got, want := r.Dropped(), uint64(recorded-held); got != want {
			t.Fatalf("after %d records: Dropped %d, want %d", recorded, got, want)
		}
		for i, e := range ev {
			if want := uint64(recorded - held + i + 1); e.Seq != want {
				t.Fatalf("after %d records: event %d has seq %d, want %d", recorded, i, e.Seq, want)
			}
		}
	}
	record := func(upTo int) {
		for r.seq < uint64(upTo) {
			r.Record(Event{Kind: KindNote})
		}
	}
	record(10)
	if len(r.chunks) != 1 {
		t.Fatalf("%d chunks after 10 events: the ring is not growing on demand", len(r.chunks))
	}
	check(10)
	record(chunkEvents + 5)
	check(chunkEvents + 5)
	record(2*limit + 17)
	if n := len(r.chunks[1]); len(r.chunks) != 2 || n != 300 {
		t.Fatalf("%d chunks, last of %d slots; want 2 and 300", len(r.chunks), n)
	}
	check(2*limit + 17)
}

func TestNoDropBeforeWrap(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 5; i++ {
		r.Record(Event{Kind: KindNote})
	}
	if got := r.Dropped(); got != 0 {
		t.Errorf("Dropped() = %d, want 0", got)
	}
	if got := len(r.Events()); got != 5 {
		t.Errorf("len(Events()) = %d, want 5", got)
	}
}

func TestDumpFormat(t *testing.T) {
	r := NewRecorder(8)
	r.Record(Event{
		Kind: KindCallAttempt, Component: "client", Host: "sparc1",
		Line: 7, Trace: 0xdeadbeef, Span: 0x1234, Name: "add", Detail: "attempt=1",
	})
	r.Record(Event{Kind: KindFailover, Component: "manager", Host: "sun4", Name: "rs6000lerc"})
	out := r.DumpString()
	if !strings.Contains(out, "flight recorder: 2 events") {
		t.Errorf("missing header in dump:\n%s", out)
	}
	if !strings.Contains(out, "call-attempt") || !strings.Contains(out, "client@sparc1") {
		t.Errorf("missing call-attempt line in dump:\n%s", out)
	}
	if !strings.Contains(out, "trace=00000000deadbeef span=0000000000001234") {
		t.Errorf("missing trace correlation IDs in dump:\n%s", out)
	}
	if !strings.Contains(out, "line=7") || !strings.Contains(out, "attempt=1") {
		t.Errorf("missing line/detail in dump:\n%s", out)
	}
	if !strings.Contains(out, "failover") {
		t.Errorf("missing failover line in dump:\n%s", out)
	}
	if strings.Contains(out, "overwritten") {
		t.Errorf("unexpected truncation note in non-wrapped dump:\n%s", out)
	}
}

func TestDumpTruncationNote(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Record(Event{Kind: KindNote, Component: "test"})
	}
	out := r.DumpString()
	if !strings.Contains(out, "(3 older events overwritten)") {
		t.Errorf("expected truncation note in dump:\n%s", out)
	}
}

func TestSwapAndDefault(t *testing.T) {
	old := Swap(NewRecorder(16))
	defer Swap(old)
	Record(Event{Kind: KindNote, Component: "test", Name: "hello"})
	if got := Default().Len(); got != 1 {
		t.Fatalf("default recorder has %d events, want 1", got)
	}
	if !strings.Contains(DumpString(), "hello") {
		t.Errorf("package-level dump missing the event")
	}
}

func TestConcurrentRecord(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	const writers, per = 8, 100
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(Event{Kind: KindNote, Component: "test"})
			}
		}()
	}
	wg.Wait()
	if got := r.Dropped(); got != writers*per-64 {
		t.Errorf("Dropped() = %d, want %d", got, writers*per-64)
	}
	ev := r.Events()
	for i := 1; i < len(ev); i++ {
		if ev[i].Seq != ev[i-1].Seq+1 {
			t.Fatalf("non-contiguous seq at %d: %d then %d", i, ev[i-1].Seq, ev[i].Seq)
		}
	}
}

func TestRecordDoesNotAllocate(t *testing.T) {
	r := NewRecorder(1024)
	e := Event{Kind: KindCallAttempt, Component: "client", Host: "h", Name: "p", Detail: "d"}
	allocs := testing.AllocsPerRun(1000, func() { r.Record(e) })
	if allocs != 0 {
		t.Errorf("Record allocates %v times per call, want 0", allocs)
	}
}

func TestReset(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Record(Event{Kind: KindNote})
	}
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatalf("Reset left Len=%d Dropped=%d", r.Len(), r.Dropped())
	}
	r.Record(Event{Kind: KindNote})
	if ev := r.Events(); len(ev) != 1 || ev[0].Seq != 1 {
		t.Fatalf("post-reset events wrong: %+v", ev)
	}
}

func TestKindString(t *testing.T) {
	if KindFailover.String() != "failover" {
		t.Errorf("KindFailover.String() = %q", KindFailover.String())
	}
	if got := Kind(200).String(); !strings.Contains(got, "200") {
		t.Errorf("out-of-range kind string = %q", got)
	}
}

func TestTimestampsMonotonicWithinDump(t *testing.T) {
	r := NewRecorder(8)
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	i := 0
	old := clock
	clock = func() time.Time { i++; return base.Add(time.Duration(i) * time.Millisecond) }
	defer func() { clock = old }()
	r.Record(Event{Kind: KindNote})
	r.Record(Event{Kind: KindNote})
	ev := r.Events()
	if !ev[1].Time.After(ev[0].Time) {
		t.Fatalf("timestamps not increasing: %v then %v", ev[0].Time, ev[1].Time)
	}
}

func TestMultiSectionAuxDump(t *testing.T) {
	SetAuxDump("zeta", func() string { return "zeta section" })
	SetAuxDump("alpha", func() string { return "alpha section\n" })
	t.Cleanup(func() {
		SetAuxDump("zeta", nil)
		SetAuxDump("alpha", nil)
	})
	r := NewRecorder(8)
	r.Record(Event{Kind: KindNote, Component: "test"})
	out := r.DumpString()
	ai := strings.Index(out, "-- alpha --\nalpha section")
	zi := strings.Index(out, "-- zeta --\nzeta section")
	if ai < 0 || zi < 0 {
		t.Fatalf("missing aux sections:\n%s", out)
	}
	if ai > zi {
		t.Fatalf("sections not sorted by name:\n%s", out)
	}
	// Unregistering one name must leave the other.
	SetAuxDump("zeta", nil)
	out = r.DumpString()
	if strings.Contains(out, "zeta") || !strings.Contains(out, "alpha section") {
		t.Fatalf("unregister removed the wrong section:\n%s", out)
	}
}

func TestKindAttribution(t *testing.T) {
	if KindAttribution.String() != "attribution" {
		t.Errorf("String = %q", KindAttribution.String())
	}
	if KindAttribution.IsTransition() {
		t.Error("attribution events must not be treated as cluster transitions")
	}
}

// TestRecorderClockStamps: a recorder built on a run's clock stamps
// its events with that clock, not the wall clock.
func TestRecorderClockStamps(t *testing.T) {
	at := time.Date(1993, 7, 1, 0, 0, 8, 0, time.UTC)
	r := NewRecorderClock(8, func() time.Time { return at })
	r.Record(Event{Kind: KindFailover})
	if ev := r.Events(); len(ev) != 1 || !ev[0].Time.Equal(at) {
		t.Fatalf("events = %+v, want one stamped %v", ev, at)
	}
}
