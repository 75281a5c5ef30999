package wire

import (
	"net"
	"testing"
)

func TestBatchSubRoundTrip(t *testing.T) {
	reqs := []struct {
		addr string
		msg  *Message
	}{
		{"h1/proc-1", &Message{Kind: KCall, Seq: 7, Name: "shaft", Str: "sig", Data: []byte{1, 2, 3}}},
		{"", &Message{Kind: KCall, Seq: 8, Name: "duct"}},
		{"h1/proc-2", &Message{Kind: KOK, Seq: 9, Data: make([]byte, 100)}},
	}
	var buf []byte
	var err error
	for _, r := range reqs {
		buf, err = AppendSub(buf, r.addr, r.msg)
		if err != nil {
			t.Fatalf("AppendSub: %v", err)
		}
	}
	subs, err := SplitBatch(buf)
	if err != nil {
		t.Fatalf("SplitBatch: %v", err)
	}
	if len(subs) != len(reqs) {
		t.Fatalf("got %d subs, want %d", len(subs), len(reqs))
	}
	for i, s := range subs {
		if s.Addr != reqs[i].addr {
			t.Errorf("sub %d addr = %q, want %q", i, s.Addr, reqs[i].addr)
		}
		if s.Msg.Kind != reqs[i].msg.Kind || s.Msg.Seq != reqs[i].msg.Seq ||
			s.Msg.Name != reqs[i].msg.Name || len(s.Msg.Data) != len(reqs[i].msg.Data) {
			t.Errorf("sub %d message mismatch: %v vs %v", i, s.Msg, reqs[i].msg)
		}
	}
}

func TestBatchOverWire(t *testing.T) {
	sub1, err := AppendSub(nil, "p1", &Message{Kind: KCall, Seq: 1, Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	sub1, err = AppendSub(sub1, "p2", &Message{Kind: KCall, Seq: 2, Name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	env := &Message{Kind: KBatch, Seq: 42, Data: sub1}
	raw, err := env.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KBatch || got.Seq != 42 {
		t.Fatalf("decoded envelope %v", got)
	}
	subs, err := SplitBatch(got.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 || subs[0].Addr != "p1" || subs[1].Msg.Name != "b" {
		t.Fatalf("decoded subs %+v", subs)
	}
}

func TestSplitBatchTruncated(t *testing.T) {
	buf, err := AppendSub(nil, "addr", &Message{Kind: KCall, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(buf); cut++ {
		if _, err := SplitBatch(buf[:cut]); err == nil {
			t.Errorf("SplitBatch accepted truncation at %d bytes", cut)
		}
	}
}

func TestBufPoolReuse(t *testing.T) {
	b := GetBuf()
	if len(b) != 0 {
		t.Fatalf("GetBuf returned non-empty buffer of %d bytes", len(b))
	}
	b = append(b, make([]byte, 256)...)
	PutBuf(b)
	// Oversized buffers must not be pooled.
	PutBuf(make([]byte, 0, poolBufCap+1))
	b2 := GetBuf()
	if len(b2) != 0 {
		t.Fatalf("pooled buffer came back dirty: %d bytes", len(b2))
	}
	PutBuf(b2)
}

// TestStreamConnShrink drives one huge message then a window of small
// ones through a StreamConn and checks the read buffer shrinks back.
func TestStreamConnShrink(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewStreamConn(a, "a"), NewStreamConn(b, "b")
	defer ca.Close()
	defer cb.Close()

	send := func(m *Message) {
		t.Helper()
		errc := make(chan error, 1)
		go func() { errc <- ca.Send(m) }()
		if _, err := cb.Recv(); err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("Send: %v", err)
		}
	}

	send(&Message{Kind: KCall, Data: make([]byte, 1<<20)})
	if cap(cb.rbuf) < 1<<20 {
		t.Fatalf("rbuf did not grow: cap %d", cap(cb.rbuf))
	}
	for i := 0; i < 2*rbufShrinkEvery; i++ {
		send(&Message{Kind: KPing})
	}
	if cap(cb.rbuf) >= 1<<20 {
		t.Fatalf("rbuf never shrank: cap %d after small-message window", cap(cb.rbuf))
	}
}
