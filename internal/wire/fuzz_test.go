package wire

import (
	"bytes"
	"testing"
)

// FuzzDecodeMessage hammers the frame decoder with arbitrary bytes.
// Anything that decodes must re-encode and decode again to the same
// message — the decoder defines the canonical form, so the round trip
// is the oracle — and its Size must be its encoding's length.
func FuzzDecodeMessage(f *testing.F) {
	seeds := []*Message{
		{Kind: KRegisterLine, Name: "npss-inlet"},
		{Kind: KOK, Line: 7, Seq: 3},
		{Kind: KCall, Seq: 9, Line: 2, Trace: 0xdeadbeef, Span: 0x1234,
			Name: "add", Str: "prog(val double, val double, res double)",
			Data: []byte{0, 0, 0, 1, 0, 0, 0, 2}},
		{Kind: KError, Err: "no such procedure"},
		{Kind: KOK, Str: "cray/61234", Data: []byte("#language fortran\nexport SHAFT prog()")},
		{Kind: KObserve, Seq: 4, Name: "metrics"},
		{Kind: KOK, Seq: 4, Data: []byte(`{"counters":{"schooner.client.calls":7}}`)},
		{Kind: KOK, Data: bytes.Repeat([]byte{0xff}, 300)},
	}
	for _, m := range seeds {
		b, err := m.Encode(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		// A truncated and a corrupted variant of each frame.
		f.Add(b[:len(b)-1])
		if len(b) > 0 {
			c := append([]byte(nil), b...)
			c[0] ^= 0x7f
			f.Add(c)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// Declared string length far past the payload.
	f.Add(append(bytes.Repeat([]byte{0}, 25), 0xff, 0xff))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		b, err := m.Encode(nil)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v (%v)", err, m)
		}
		if n, err := m.Size(); err != nil || n != len(b) {
			t.Fatalf("Size = %d, %v; the encoding has %d bytes", n, err, len(b))
		}
		m2, err := DecodeMessage(b)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		if m.Kind != m2.Kind || m.Seq != m2.Seq || m.Line != m2.Line ||
			m.Trace != m2.Trace || m.Span != m2.Span ||
			m.Name != m2.Name || m.Str != m2.Str || m.Err != m2.Err ||
			!bytes.Equal(m.Data, m2.Data) {
			t.Fatalf("round trip changed the message:\n in: %v\nout: %v", m, m2)
		}
	})
}
