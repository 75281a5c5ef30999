// Package wire defines the message vocabulary and framing of the
// Schooner runtime protocol: the messages exchanged among the Manager,
// the per-machine Servers, the procedure processes, and the client
// library linked into every program.
//
// Transport is abstracted behind the Conn interface so the same
// protocol runs over the in-process network simulator (package netsim)
// and over real TCP sockets (package schooner's tcp transport).
package wire

import (
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"
)

// Kind identifies a protocol message.
type Kind uint8

const (
	// KInvalid is the zero Kind; it never appears on the wire.
	KInvalid Kind = iota

	// Replies. Every request is answered with exactly one of these,
	// matched to it by Seq (a KJournalTail with a stream of KOK): a
	// result or a fault. Each request's constant says what its KOK
	// carries; fields it does not name stay zero.

	// KOK is the positive reply to any request.
	KOK
	// KError is the negative reply to any request; Err carries text.
	KError

	// Client/module <-> Manager.

	// KRegisterLine is sent by sch_contact_schx when a module first
	// contacts the Manager: it opens a new line (thread of control) in
	// the executing program. Name carries the module's name. Its KOK
	// carries the new line id in Line.
	KRegisterLine
	// KStartProc asks the Manager to instantiate a remote procedure
	// file: Name is the executable path, Str is the target machine,
	// Line selects the requesting line (0 requests a shared procedure).
	// Its KOK carries in Str the address the procedure process listens
	// on.
	KStartProc
	// KLookup asks the Manager to map a procedure name to an address
	// within the requesting line; Name is the procedure name, Data
	// carries the import specification for runtime type checking. Its
	// KOK carries "machine/address" in Str and the export's name in
	// Name.
	KLookup
	// KQuitLine is sch_i_quit: the module is being destroyed; the
	// Manager shuts down all remote procedures in the line. Its KOK
	// carries nothing.
	KQuitLine
	// KMove asks the Manager to move procedure Name within Line to the
	// machine in Str. Its KOK carries the new address in Str.
	KMove

	// Manager <-> Server.

	// KSpawn asks a Server to create a process for executable path
	// Name; Str carries the line tag used in diagnostics. Its KOK
	// carries the new process address in Str and the export
	// specification file text in Data.
	KSpawn
	// KShutdown tells a procedure process (or Server) to terminate.
	// Its KOK carries nothing.
	KShutdown

	// Caller <-> procedure process.

	// KCall invokes exported procedure Name; Data carries the
	// marshaled in-parameters, Str the caller's declared signature.
	// Its KOK carries the marshaled out-parameters in Data.
	KCall
	// KStateGet asks a procedure process for its migration state
	// (marshaled per the state clause of its export spec). Its KOK
	// carries the marshaled state in Data.
	KStateGet
	// KStatePut installs migration state into a fresh process. Its KOK
	// carries nothing.
	KStatePut

	// KPing is a liveness probe; its KOK carries nothing.
	KPing
	// KObserve asks any component (Manager, Server or procedure
	// process) for its view of the introspection plane named in Name;
	// its KOK carries the plane's payload in Data. The planes are
	// "status" (plain-text report), "metrics" (trace.MetricsSnapshot
	// JSON), "series" (tseries.Series JSON), "profile" (critpath.Profile
	// JSON) and "flight" (plain-text flight-recorder dump). An unknown
	// plane is answered with KError.
	KObserve
	// KAttachLine re-binds an existing line to a new Manager
	// connection after the original connection (or the Manager itself)
	// died: Line carries the line id, Name the module it registered
	// under. Its KOK carries the line id in Line, exactly as for
	// KRegisterLine. The attached connection inherits the register
	// semantics — dropping it while the line is live quits the line.
	KAttachLine
	// KJournalTail subscribes the connection to the Manager's
	// control-plane journal: the Manager first streams every existing
	// record, then every new one as it is appended, each as a KOK whose
	// Data is an 8-byte big-endian sequence number followed by the
	// record payload. The warm-standby Manager mirrors the leader's
	// write-ahead log through this.
	KJournalTail
	// KBatch carries several requests in one wire message to a
	// machine's Server: Data is a sequence of addressed sub-frames
	// (AppendSub/SplitSub), each a complete encoded request tagged with
	// the address of the local process it is destined for, which the
	// Server fans it out to. The envelope's own Seq correlates the
	// reply, whose KOK carries in Data one unaddressed sub-frame per
	// sub-request, in request order, each a complete encoded reply (KOK
	// or KError).
	KBatch

	// kindMax is the decode bound sentinel; every valid Kind is below
	// it. Keep it last.
	kindMax
)

var kindNames = map[Kind]string{
	KOK: "OK", KError: "Error",
	KRegisterLine: "RegisterLine", KStartProc: "StartProc",
	KLookup: "Lookup", KQuitLine: "QuitLine", KMove: "Move",
	KSpawn: "Spawn", KShutdown: "Shutdown",
	KCall: "Call", KStateGet: "StateGet", KStatePut: "StatePut",
	KPing: "Ping", KObserve: "Observe", KAttachLine: "AttachLine",
	KJournalTail: "JournalTail", KBatch: "Batch",
}

// String names the message kind for diagnostics.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Message is one protocol message. The field meanings depend on Kind
// (see the Kind constants); unused fields stay zero and cost two bytes
// each on the wire.
type Message struct {
	Kind Kind
	Seq  uint32 // request/reply correlation
	Line uint32 // line id, when relevant
	// Trace/Span carry the distributed-tracing span context of the
	// request (package trace): Trace groups every span of one logical
	// operation across machines, Span identifies the sender's span so
	// the receiver parents its own spans under it. Zero means the
	// request is not traced.
	Trace uint64
	Span  uint64
	Name  string // primary name (procedure, path, module)
	Str   string // secondary string (machine, address, signature)
	Err   string // error text for KError
	Data  []byte // marshaled payload
}

// String renders a compact diagnostic form.
func (m *Message) String() string {
	return fmt.Sprintf("%s seq=%d line=%d name=%q str=%q err=%q data=%dB",
		m.Kind, m.Seq, m.Line, m.Name, m.Str, m.Err, len(m.Data))
}

const (
	maxString = 1 << 16 // per string field
	maxData   = 1 << 26 // 64 MiB payload cap
)

// fixedSize is the length of an encoding with empty strings and payload.
const fixedSize = 1 + 4 + 4 + 8 + 8 + 2 + 2 + 2 + 4

// Encode appends the serialized message to buf. The layout is:
// kind(1) seq(4) line(4) trace(8) span(8) name(2+n) str(2+n) err(2+n)
// data(4+n), all big-endian.
func (m *Message) Encode(buf []byte) ([]byte, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	// At most one allocation, not append's growth steps, whether buf is
	// nil or a pooled buffer too small for this message.
	buf = slices.Grow(buf, fixedSize+len(m.Name)+len(m.Str)+len(m.Err)+len(m.Data))
	buf = append(buf, byte(m.Kind))
	buf = binary.BigEndian.AppendUint32(buf, m.Seq)
	buf = binary.BigEndian.AppendUint32(buf, m.Line)
	buf = binary.BigEndian.AppendUint64(buf, m.Trace)
	buf = binary.BigEndian.AppendUint64(buf, m.Span)
	for _, s := range []string{m.Name, m.Str, m.Err} {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
		buf = append(buf, s...)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Data)))
	return append(buf, m.Data...), nil
}

// check is what Encode refuses.
func (m *Message) check() error {
	if m.Kind == KInvalid {
		return fmt.Errorf("wire: cannot encode invalid message")
	}
	for _, s := range []string{m.Name, m.Str, m.Err} {
		if len(s) >= maxString {
			return fmt.Errorf("wire: string field of %d bytes too long", len(s))
		}
	}
	if len(m.Data) > maxData {
		return fmt.Errorf("wire: payload of %d bytes too long", len(m.Data))
	}
	return nil
}

// Size is len(Encode(nil)) without the encoding. Its error is the one
// Encode gives, or else the one DecodeMessage would give the encoding.
func (m *Message) Size() (int, error) {
	if err := m.check(); err != nil {
		return 0, err
	}
	if m.Kind >= kindMax {
		return 0, fmt.Errorf("wire: unknown message kind %d", m.Kind)
	}
	return fixedSize + len(m.Name) + len(m.Str) + len(m.Err) + len(m.Data), nil
}

// encBufPool recycles encode/frame scratch buffers so the steady-state
// send path stops allocating one exact-size buffer per message. Buffers
// above poolBufCap are not returned to the pool: one huge state
// transfer must not pin megabytes in every pooled slot.
var encBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

// poolBufCap is the largest buffer the pool keeps.
const poolBufCap = 1 << 16

// GetBuf returns an empty scratch buffer from the pool. Pass it to
// Message.Encode (or append to it directly) and hand it back with
// PutBuf once the bytes have been fully consumed.
func GetBuf() []byte {
	return (*(encBufPool.Get().(*[]byte)))[:0]
}

// PutBuf returns a scratch buffer to the pool. The caller must not
// retain any slice aliasing buf afterward.
func PutBuf(buf []byte) {
	if cap(buf) == 0 || cap(buf) > poolBufCap {
		return
	}
	buf = buf[:0]
	encBufPool.Put(&buf)
}

// DecodeMessage parses a serialized message, which must be exactly one
// message with no trailing bytes.
func DecodeMessage(buf []byte) (*Message, error) {
	if len(buf) < 1+4+4+8+8 {
		return nil, fmt.Errorf("wire: message truncated at header (%d bytes)", len(buf))
	}
	m := &Message{Kind: Kind(buf[0])}
	if m.Kind == KInvalid || m.Kind >= kindMax {
		return nil, fmt.Errorf("wire: unknown message kind %d", buf[0])
	}
	m.Seq = binary.BigEndian.Uint32(buf[1:])
	m.Line = binary.BigEndian.Uint32(buf[5:])
	m.Trace = binary.BigEndian.Uint64(buf[9:])
	m.Span = binary.BigEndian.Uint64(buf[17:])
	buf = buf[25:]
	for _, dst := range []*string{&m.Name, &m.Str, &m.Err} {
		if len(buf) < 2 {
			return nil, fmt.Errorf("wire: message truncated at string length")
		}
		n := int(binary.BigEndian.Uint16(buf))
		buf = buf[2:]
		if len(buf) < n {
			return nil, fmt.Errorf("wire: message truncated inside string")
		}
		*dst = string(buf[:n])
		buf = buf[n:]
	}
	if len(buf) < 4 {
		return nil, fmt.Errorf("wire: message truncated at payload length")
	}
	n := binary.BigEndian.Uint32(buf)
	buf = buf[4:]
	if n > maxData {
		return nil, fmt.Errorf("wire: payload length %d too large", n)
	}
	if len(buf) != int(n) {
		return nil, fmt.Errorf("wire: payload length %d does not match %d remaining bytes", n, len(buf))
	}
	if n > 0 {
		m.Data = append([]byte(nil), buf...)
	}
	return m, nil
}

// Conn carries whole messages between two endpoints. Implementations
// must allow Send and Recv to be used concurrently with each other;
// concurrent Sends (or concurrent Recvs) require external locking.
type Conn interface {
	Send(m *Message) error
	Recv() (*Message, error)
	// SetReadDeadline bounds every later Recv as net.Conn's does: a
	// Recv still waiting at t fails with an error err for which
	// errors.Is(err, os.ErrDeadlineExceeded), and a zero t removes the
	// bound. It may be called from any goroutine. A Recv cut short by
	// the deadline consumes nothing: the next Recv resumes where it
	// stopped, so a timeout leaves the connection usable.
	SetReadDeadline(t time.Time) error
	Close() error
	// RemoteLabel describes the peer for diagnostics ("hostname" or
	// network address).
	RemoteLabel() string
}

// StreamConn adapts a byte stream (a TCP connection or a net.Pipe) to
// the Conn interface using a 4-byte big-endian length frame per
// message.
type StreamConn struct {
	rw    net.Conn
	label string
	// rbuf[rpos:rend] has been read from the stream and not yet
	// returned: part of a frame, or several frames.
	rbuf       []byte
	rpos, rend int
	// High-water tracking for rbuf: one large message must not pin a
	// large buffer for the connection's lifetime, so every
	// rbufShrinkEvery receives the buffer shrinks back toward the
	// largest frame seen in that window.
	rhigh  int // largest frame in the current window
	rcount int // receives since the last shrink check
}

const (
	rbufShrinkEvery = 64 // receives between shrink checks
	rbufMinCap      = 1 << 10
)

// NewStreamConn wraps a stream; label describes the peer.
func NewStreamConn(rw net.Conn, label string) *StreamConn {
	return &StreamConn{rw: rw, label: label}
}

// Send frames and writes one message.
func (c *StreamConn) Send(m *Message) error {
	frame := GetBuf()
	defer func() { PutBuf(frame) }()
	frame = binary.BigEndian.AppendUint32(frame, 0)
	frame, err := m.Encode(frame)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	_, err = c.rw.Write(frame)
	return err
}

// Recv returns the next framed message. It reads the stream only when
// the buffer holds no whole frame, and then as much as the stream has;
// a read cut short by the deadline keeps what it got for the next Recv.
func (c *StreamConn) Recv() (*Message, error) {
	for {
		need := 4
		if buf := c.rbuf[c.rpos:c.rend]; len(buf) >= 4 {
			n := int(binary.BigEndian.Uint32(buf))
			if n > maxData+maxString*4 {
				return nil, fmt.Errorf("wire: frame of %d bytes too large", n)
			}
			if len(buf) >= 4+n {
				if c.rpos += 4 + n; c.rpos == c.rend {
					c.rpos, c.rend = 0, 0
				}
				c.rhigh = max(c.rhigh, n)
				m, err := DecodeMessage(buf[4 : 4+n])
				c.maybeShrink()
				return m, err
			}
			need += n
		}
		c.reserve(need)
		k, err := c.rw.Read(c.rbuf[c.rend:])
		c.rend += k
		if err != nil && k == 0 {
			return nil, err
		}
	}
}

// reserve makes room for need bytes from rpos: it moves the unread
// bytes to the front, and grows the buffer when that is not enough.
func (c *StreamConn) reserve(need int) {
	if c.rpos+need <= len(c.rbuf) {
		return
	}
	buf := c.rbuf
	if need > len(buf) {
		buf = make([]byte, max(need, rbufMinCap))
	}
	c.rend = copy(buf, c.rbuf[c.rpos:c.rend])
	c.rbuf, c.rpos = buf, 0
}

// maybeShrink releases rbuf when its capacity exceeds 4x the largest
// frame of the recent window and it holds nothing unread, so a single
// outsized message (a state transfer, a flight dump) stops pinning
// memory once traffic returns to normal.
func (c *StreamConn) maybeShrink() {
	c.rcount++
	if c.rcount < rbufShrinkEvery {
		return
	}
	if want := max(c.rhigh+4, rbufMinCap); len(c.rbuf) > 4*want && c.rend == 0 {
		c.rbuf = make([]byte, want)
	}
	c.rcount, c.rhigh = 0, 0
}

// SetReadDeadline sets the stream's read deadline.
func (c *StreamConn) SetReadDeadline(t time.Time) error { return c.rw.SetReadDeadline(t) }

// Close closes the underlying stream.
func (c *StreamConn) Close() error { return c.rw.Close() }

// RemoteLabel describes the peer.
func (c *StreamConn) RemoteLabel() string { return c.label }
