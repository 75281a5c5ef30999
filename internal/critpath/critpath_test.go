package critpath

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"npss/internal/trace"
)

var epoch = time.Unix(1000, 0).UTC()

// sp builds a span record with start/end in milliseconds from the
// test epoch.
func sp(id, parent uint64, name, host string, startMS, endMS int) trace.SpanRecord {
	tr := id
	if parent != 0 {
		tr = parent // close enough: tests only need self-consistent links
	}
	return trace.SpanRecord{
		Trace: tr, ID: id, Parent: parent, Name: name, Host: host,
		Start: epoch.Add(time.Duration(startMS) * time.Millisecond),
		Dur:   time.Duration(endMS-startMS) * time.Millisecond,
	}
}

// table2ish is a miniature of the real span DAG: one phase containing
// a retried call with remote dispatch work, plus a dataflow node span
// adopting a second call.
func table2ish() []trace.SpanRecord {
	return []trace.SpanRecord{
		sp(1, 0, "remote run", "avs", 0, 100),
		// A call with two attempts and a backoff gap between them.
		sp(2, 0, "call shaft.calculate", "avs", 5, 60),
		sp(3, 2, "attempt shaft.calculate", "avs", 5, 25),
		sp(4, 3, "dispatch shaft.calculate", "cray", 10, 20),
		sp(5, 4, "decode", "cray", 10, 11),
		sp(6, 4, "proc shaft.calculate", "cray", 11, 18),
		sp(7, 4, "encode", "cray", 18, 19),
		sp(8, 2, "attempt shaft.calculate", "avs", 30, 60),
		sp(9, 8, "dispatch shaft.calculate", "cray", 35, 55),
		sp(10, 9, "decode", "cray", 35, 36),
		sp(11, 9, "proc shaft.calculate", "cray", 36, 53),
		sp(12, 9, "encode", "cray", 53, 54),
		// A dataflow wavefront span adopting its own call.
		sp(13, 0, "node nozzle", "dataflow", 62, 95),
		sp(14, 0, "call nozzle.calculate", "avs", 65, 90),
		sp(15, 14, "attempt nozzle.calculate", "avs", 65, 88),
		sp(16, 15, "dispatch nozzle.calculate", "sgi", 70, 85),
		sp(17, 16, "proc nozzle.calculate", "sgi", 71, 84),
	}
}

func TestPartitionExact(t *testing.T) {
	p := Analyze(table2ish(), nil, 0)
	if len(p.Phases) != 1 {
		t.Fatalf("phases = %d, want 1 (got %+v)", len(p.Phases), p.Phases)
	}
	ph := p.Phases[0]
	if ph.Name != "remote run" {
		t.Fatalf("phase name = %q", ph.Name)
	}
	var sum time.Duration
	for _, v := range ph.Buckets {
		sum += v
	}
	if sum != ph.Dur {
		t.Fatalf("bucket sum %s != phase dur %s", sum, ph.Dur)
	}
	// The path must be a gap-free chronological partition too.
	cursor := ph.Start
	for i, e := range ph.Path {
		if e.Start != cursor {
			t.Fatalf("path[%d] starts at %s, want %s (gap or overlap)", i, e.Start, cursor)
		}
		cursor += e.Dur
	}
	if cursor != ph.Start+ph.Dur {
		t.Fatalf("path ends at %s, want %s", cursor, ph.Start+ph.Dur)
	}
}

func TestClassification(t *testing.T) {
	p := Analyze(table2ish(), nil, 0)
	b := p.Phases[0].Buckets
	// Retry: the 5ms backoff gap between the shaft attempts, plus the
	// nozzle call's 2ms tail after its last attempt. Sequential
	// attempts are both on the path — the walk partitions the call's
	// whole interval, not just its last attempt.
	if b[Retry] != 7*time.Millisecond {
		t.Errorf("retry = %s, want 7ms", b[Retry])
	}
	// Conversion: decode+encode of both shaft attempts (1+1 each).
	if b[Conversion] != 4*time.Millisecond {
		t.Errorf("conversion = %s, want 4ms", b[Conversion])
	}
	if b[Network] == 0 || b[Compute] == 0 || b[Queueing] == 0 {
		t.Errorf("expected nonzero network/compute/queueing, got %+v", b)
	}
}

func TestDeterministicAcrossInputOrder(t *testing.T) {
	spans := table2ish()
	p1 := Analyze(spans, nil, 0)
	shuffled := append([]trace.SpanRecord(nil), spans...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	p2 := Analyze(shuffled, nil, 0)
	if j1, j2 := encode(t, p1), encode(t, p2); !bytes.Equal(j1, j2) {
		t.Fatalf("profile depends on span input order:\n%s\nvs\n%s", j1, j2)
	}
}

func TestSyntheticRunPhase(t *testing.T) {
	// A DST-like recording: call forests with no phase span at all.
	spans := []trace.SpanRecord{
		sp(1, 0, "call a.x", "h1", 0, 10),
		sp(2, 1, "attempt a.x", "h1", 0, 9),
		sp(3, 0, "call b.y", "h2", 12, 30),
		sp(4, 3, "attempt b.y", "h2", 13, 29),
	}
	p := Analyze(spans, nil, 0)
	if len(p.Phases) != 1 || p.Phases[0].Name != "run" {
		t.Fatalf("want one synthetic 'run' phase, got %+v", p.Phases)
	}
	if p.Phases[0].Dur != 30*time.Millisecond {
		t.Fatalf("synthetic phase dur = %s, want 30ms", p.Phases[0].Dur)
	}
	var sum time.Duration
	for _, v := range p.Phases[0].Buckets {
		sum += v
	}
	if sum != p.Phases[0].Dur {
		t.Fatalf("bucket sum %s != dur %s", sum, p.Phases[0].Dur)
	}
}

func TestHostProfiles(t *testing.T) {
	spans := []trace.SpanRecord{
		sp(1, 0, "call a.x", "h1", 0, 10),
		sp(2, 0, "call b.y", "h1", 5, 20), // overlaps: depth 2
		sp(3, 0, "call c.z", "h1", 30, 40),
	}
	p := Analyze(spans, nil, 0)
	if len(p.Hosts) != 1 {
		t.Fatalf("hosts = %+v", p.Hosts)
	}
	h := p.Hosts[0]
	if h.Host != "h1" || h.Spans != 3 {
		t.Fatalf("host = %+v", h)
	}
	if h.Busy != 30*time.Millisecond { // [0,20] ∪ [30,40]
		t.Errorf("busy = %s, want 30ms", h.Busy)
	}
	if h.MaxDepth != 2 {
		t.Errorf("max depth = %d, want 2", h.MaxDepth)
	}
}

func TestLinkProfiles(t *testing.T) {
	links := map[string]LinkIO{
		"avs->cray": {Messages: 10, Bytes: 1000, Delay: 500 * time.Millisecond, Dropped: 1},
	}
	p := Analyze(nil, links, 0)
	if len(p.Links) != 1 {
		t.Fatalf("links = %+v", p.Links)
	}
	l := p.Links[0]
	// bytes × mean delay = 1000 × 50ms = 50 byte-seconds.
	if l.ByteDelay != 50 {
		t.Errorf("byte-delay = %v, want 50", l.ByteDelay)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := Analyze(table2ish(), map[string]LinkIO{"a->b": {Messages: 1, Bytes: 2, Delay: time.Millisecond}}, 3)
	var q Profile
	if err := json.Unmarshal(encode(t, p), &q); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, p), encode(t, &q)) {
		t.Fatal("round trip not stable")
	}
}

// encode is EncodeJSON for a test: the profile's JSON, or a fatal error.
func encode(t *testing.T, p *Profile) []byte {
	t.Helper()
	data, err := p.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestFormatSmoke(t *testing.T) {
	p := Analyze(table2ish(), nil, 0)
	out := p.Format()
	for _, want := range []string{"critical path", "remote run", "top edges"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}
