package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	if KCall.String() != "Call" || KOK.String() != "OK" {
		t.Error("kind names wrong")
	}
	if !strings.HasPrefix(Kind(200).String(), "Kind(") {
		t.Error("unknown kind rendering wrong")
	}
}

// TestEveryKindNamed checks that every kind a decoder accepts has a
// name of its own, so no kind prints as Kind(n) or as another kind.
func TestEveryKindNamed(t *testing.T) {
	if len(kindNames) != int(kindMax)-1 {
		t.Errorf("%d kind names for %d kinds", len(kindNames), int(kindMax)-1)
	}
	seen := map[string]Kind{}
	for k := Kind(1); k < kindMax; k++ {
		name, ok := kindNames[k]
		if !ok {
			t.Errorf("kind %d has no name", uint8(k))
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d are both named %q", uint8(prev), uint8(k), name)
		}
		seen[name] = k
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := &Message{
		Kind: KCall, Seq: 42, Line: 7,
		Trace: 0xdeadbeefcafe, Span: 0x1234,
		Name: "shaft", Str: "cray-ymp-lerc/9001", Err: "",
		Data: []byte{1, 2, 3, 4, 5},
	}
	buf, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != m.Kind || got.Seq != m.Seq || got.Line != m.Line ||
		got.Trace != m.Trace || got.Span != m.Span ||
		got.Name != m.Name || got.Str != m.Str || got.Err != m.Err ||
		!bytes.Equal(got.Data, m.Data) {
		t.Errorf("round trip: got %v, want %v", got, m)
	}
}

func TestEncodeEmptyFields(t *testing.T) {
	m := &Message{Kind: KPing}
	buf, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KPing || got.Name != "" || got.Data != nil {
		t.Errorf("got %v", got)
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	if _, err := (&Message{}).Encode(nil); err == nil {
		t.Error("invalid kind encoded")
	}
	long := strings.Repeat("x", maxString)
	if _, err := (&Message{Kind: KPing, Name: long}).Encode(nil); err == nil {
		t.Error("oversized string encoded")
	}
}

func TestDecodeErrors(t *testing.T) {
	good, _ := (&Message{Kind: KCall, Name: "p", Data: []byte{9}}).Encode(nil)
	cases := [][]byte{
		nil,
		{},
		good[:3],                              // header truncated
		good[:len(good)-1],                    // payload truncated
		append(good[:len(good):len(good)], 0), // trailing byte
		{0, 0, 0, 0, 0, 0, 0, 0, 0},           // kind 0
		{255, 0, 0, 0, 0, 0, 0, 0, 0},         // kind out of range
	}
	for i, b := range cases {
		if _, err := DecodeMessage(b); err == nil {
			t.Errorf("case %d decoded", i)
		}
	}
	// String length running past end.
	bad := append([]byte{byte(KPing)}, make([]byte, 8)...)
	bad = append(bad, 0xff, 0xff)
	if _, err := DecodeMessage(bad); err == nil {
		t.Error("runaway string length decoded")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := &Message{
			Kind:  Kind(1 + r.Intn(int(kindMax)-1)),
			Seq:   r.Uint32(),
			Line:  r.Uint32(),
			Trace: r.Uint64(),
			Span:  r.Uint64(),
			Name:  randStr(r, 50),
			Str:   randStr(r, 50),
			Err:   randStr(r, 50),
		}
		if n := r.Intn(100); n > 0 {
			m.Data = make([]byte, n)
			r.Read(m.Data)
		}
		buf, err := m.Encode(nil)
		if err != nil {
			return false
		}
		got, err := DecodeMessage(buf)
		if err != nil {
			return false
		}
		return got.Kind == m.Kind && got.Seq == m.Seq && got.Line == m.Line &&
			got.Trace == m.Trace && got.Span == m.Span &&
			got.Name == m.Name && got.Str == m.Str && got.Err == m.Err &&
			bytes.Equal(got.Data, m.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func randStr(r *rand.Rand, max int) string {
	b := make([]byte, r.Intn(max))
	for i := range b {
		b[i] = byte(32 + r.Intn(95))
	}
	return string(b)
}

func TestStreamConn(t *testing.T) {
	a, b := net.Pipe()
	ca := NewStreamConn(a, "peer-b")
	cb := NewStreamConn(b, "peer-a")
	if ca.RemoteLabel() != "peer-b" {
		t.Errorf("label = %q", ca.RemoteLabel())
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var got *Message
	var recvErr error
	go func() {
		defer wg.Done()
		got, recvErr = cb.Recv()
	}()
	want := &Message{Kind: KCall, Seq: 3, Name: "duct", Data: []byte("payload")}
	if err := ca.Send(want); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if recvErr != nil {
		t.Fatal(recvErr)
	}
	if got.Name != "duct" || string(got.Data) != "payload" {
		t.Errorf("got %v", got)
	}
	// Several messages in sequence reuse the read buffer.
	go func() {
		for i := 0; i < 10; i++ {
			ca.Send(&Message{Kind: KPing, Seq: uint32(i)})
		}
	}()
	for i := 0; i < 10; i++ {
		m, err := cb.Recv()
		if err != nil || m.Seq != uint32(i) {
			t.Fatalf("message %d: %v, %v", i, m, err)
		}
	}
	ca.Close()
	if _, err := cb.Recv(); err != io.EOF && err != io.ErrUnexpectedEOF && err != io.ErrClosedPipe {
		t.Logf("Recv after close: %v (acceptable)", err)
	}
	cb.Close()
}

// TestStreamConnReadDeadline: the read deadline reaches the stream. A
// cleared deadline lets a receive wait for a late frame; a set one
// fails a receive from a silent peer with os.ErrDeadlineExceeded.
func TestStreamConnReadDeadline(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewStreamConn(a, "peer-b"), NewStreamConn(b, "peer-a")
	defer ca.Close()
	defer cb.Close()
	if err := cb.SetReadDeadline(time.Now().Add(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := cb.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		ca.Send(&Message{Kind: KPing, Seq: 9})
	}()
	if m, err := cb.Recv(); err != nil || m.Seq != 9 {
		t.Fatalf("Recv with the deadline cleared = %v, %v, want ping 9", m, err)
	}
	if err := cb.SetReadDeadline(time.Now().Add(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if m, err := cb.Recv(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Recv from a silent peer = %v, %v, want os.ErrDeadlineExceeded", m, err)
	}
}

// TestStreamConnResumesAfterTimeout: a frame that arrives in two parts
// around a read-deadline timeout is received whole by the next Recv,
// and a frame behind it in the same write by the one after.
func TestStreamConnResumesAfterTimeout(t *testing.T) {
	a, b := net.Pipe()
	cb := NewStreamConn(b, "peer-a")
	defer a.Close()
	defer cb.Close()
	want := &Message{Kind: KCall, Seq: 7, Name: "shaft", Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	frame, _ := want.Encode(make([]byte, 4))
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	next := append([]byte(nil), frame...)
	next[4+1+3] = 8 // the second frame's Seq
	half := len(frame) / 2
	resume := make(chan struct{})
	go func() {
		a.Write(frame[:half])
		<-resume
		a.Write(append(frame[half:], next...))
	}()
	cb.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if m, err := cb.Recv(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Recv of half a frame = %v, %v, want os.ErrDeadlineExceeded", m, err)
	}
	close(resume)
	cb.SetReadDeadline(time.Now().Add(5 * time.Second))
	for _, seq := range []uint32{7, 8} {
		m, err := cb.Recv()
		if err != nil || m.Seq != seq || m.Name != want.Name || !bytes.Equal(m.Data, want.Data) {
			t.Fatalf("Recv after the timeout = %v, %v, want %v with seq %d", m, err, want, seq)
		}
	}
}

// TestSizeErrors: Size refuses what Encode refuses, and what
// DecodeMessage would refuse of the encoding, with the same error.
func TestSizeErrors(t *testing.T) {
	long := strings.Repeat("x", maxString)
	for _, m := range []*Message{{}, {Kind: KPing, Err: long}, {Kind: KPing, Data: make([]byte, maxData+1)}} {
		_, want := m.Encode(nil)
		if _, err := m.Size(); err == nil || err.Error() != want.Error() {
			t.Errorf("Size of %v: %v, want Encode's %v", m, err, want)
		}
	}
	m := &Message{Kind: kindMax}
	b, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, want := DecodeMessage(b)
	if _, err := m.Size(); err == nil || err.Error() != want.Error() {
		t.Errorf("Size of kind %d: %v, want DecodeMessage's %v", kindMax, err, want)
	}
}
