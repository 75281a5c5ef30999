// Package msgpass is a minimal PVM-style typed message-passing
// library: the programming model of the systems the paper contrasts
// Schooner with (PVM, p4, APPL). It exists as the baseline for the
// ablation experiments: the same coarse-grain component connection
// built on raw message passing instead of RPC, so the cost and
// programming-surface difference the paper argues qualitatively can be
// measured.
//
// As in PVM, data is packed into a typed buffer (pack in call order,
// unpack in the same order), sent to a named task with an integer
// message tag, and received by tag.
package msgpass

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"npss/internal/schooner"
	"npss/internal/wire"
)

// Buffer is a typed pack/unpack buffer (PVM's pvm_pk* / pvm_upk*).
// Each packed item carries a one-byte type tag, so mismatched unpack
// sequences fail loudly instead of decoding garbage.
type Buffer struct {
	data []byte
	pos  int
}

// NewBuffer creates an empty pack buffer.
func NewBuffer() *Buffer { return &Buffer{} }

const (
	tagFloat64 = 1
	tagInt32   = 2
	tagString  = 3
	tagFloats  = 4
)

// PackFloat64 appends a float64.
func (b *Buffer) PackFloat64(v float64) *Buffer {
	b.data = append(b.data, tagFloat64)
	b.data = binary.BigEndian.AppendUint64(b.data, math.Float64bits(v))
	return b
}

// PackInt32 appends an int32.
func (b *Buffer) PackInt32(v int32) *Buffer {
	b.data = append(b.data, tagInt32)
	b.data = binary.BigEndian.AppendUint32(b.data, uint32(v))
	return b
}

// PackString appends a string.
func (b *Buffer) PackString(s string) *Buffer {
	b.data = append(b.data, tagString)
	b.data = binary.BigEndian.AppendUint32(b.data, uint32(len(s)))
	b.data = append(b.data, s...)
	return b
}

// PackFloats appends a float64 slice.
func (b *Buffer) PackFloats(v []float64) *Buffer {
	b.data = append(b.data, tagFloats)
	b.data = binary.BigEndian.AppendUint32(b.data, uint32(len(v)))
	for _, f := range v {
		b.data = binary.BigEndian.AppendUint64(b.data, math.Float64bits(f))
	}
	return b
}

func (b *Buffer) expect(tag byte, what string) error {
	if b.pos >= len(b.data) {
		return fmt.Errorf("msgpass: unpack %s past end of buffer", what)
	}
	if b.data[b.pos] != tag {
		return fmt.Errorf("msgpass: unpack %s but buffer holds type %d", what, b.data[b.pos])
	}
	b.pos++
	return nil
}

// UnpackFloat64 reads the next float64.
func (b *Buffer) UnpackFloat64() (float64, error) {
	if err := b.expect(tagFloat64, "float64"); err != nil {
		return 0, err
	}
	if b.pos+8 > len(b.data) {
		return 0, fmt.Errorf("msgpass: truncated float64")
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(b.data[b.pos:]))
	b.pos += 8
	return v, nil
}

// UnpackInt32 reads the next int32.
func (b *Buffer) UnpackInt32() (int32, error) {
	if err := b.expect(tagInt32, "int32"); err != nil {
		return 0, err
	}
	if b.pos+4 > len(b.data) {
		return 0, fmt.Errorf("msgpass: truncated int32")
	}
	v := int32(binary.BigEndian.Uint32(b.data[b.pos:]))
	b.pos += 4
	return v, nil
}

// UnpackString reads the next string.
func (b *Buffer) UnpackString() (string, error) {
	if err := b.expect(tagString, "string"); err != nil {
		return "", err
	}
	if b.pos+4 > len(b.data) {
		return "", fmt.Errorf("msgpass: truncated string length")
	}
	n := int(binary.BigEndian.Uint32(b.data[b.pos:]))
	b.pos += 4
	if b.pos+n > len(b.data) {
		return "", fmt.Errorf("msgpass: truncated string")
	}
	s := string(b.data[b.pos : b.pos+n])
	b.pos += n
	return s, nil
}

// UnpackFloats reads the next float64 slice.
func (b *Buffer) UnpackFloats() ([]float64, error) {
	if err := b.expect(tagFloats, "float array"); err != nil {
		return nil, err
	}
	if b.pos+4 > len(b.data) {
		return nil, fmt.Errorf("msgpass: truncated array length")
	}
	n := int(binary.BigEndian.Uint32(b.data[b.pos:]))
	b.pos += 4
	if b.pos+8*n > len(b.data) {
		return nil, fmt.Errorf("msgpass: truncated array")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(b.data[b.pos:]))
		b.pos += 8
	}
	return out, nil
}

// Dialer abstracts the transport a task uses to reach peers; both
// schooner transports (SimTransport, TCPTransport) satisfy it. A task's
// named port resolves in the process that listened on it: a
// TCPTransport fills its address table as it listens.
type Dialer interface {
	Listen(host, port string) (schooner.Listener, error)
	Dial(fromHost, addr string) (wire.Conn, error)
}

// message is one delivered message.
type message struct {
	src string
	tag int32
	buf []byte
}

// Task is one PVM-style task: a named endpoint with a mailbox.
type Task struct {
	name string
	host string
	d    Dialer
	l    schooner.Listener

	mu      sync.Mutex
	cond    *sync.Cond
	mailbox []message
	conns   map[string]wire.Conn
	closed  bool
}

// Spawn creates a task named name on the given host. Task names are
// the addressing unit: a peer sends to "name" and the transport
// resolves "host:task-name".
func Spawn(d Dialer, host, name string) (*Task, error) {
	l, err := d.Listen(host, "task-"+name)
	if err != nil {
		return nil, err
	}
	t := &Task{name: name, host: host, d: d, l: l, conns: make(map[string]wire.Conn)}
	t.cond = sync.NewCond(&t.mu)
	go t.acceptLoop()
	return t, nil
}

// Name returns the task name.
func (t *Task) Name() string { return t.name }

// Addr returns the task's dialable address.
func (t *Task) Addr() string { return t.l.Addr() }

func (t *Task) acceptLoop() {
	for {
		conn, err := t.l.Accept()
		if err != nil {
			return
		}
		go func() {
			for {
				m, err := conn.Recv()
				if err != nil {
					return
				}
				t.mu.Lock()
				t.mailbox = append(t.mailbox, message{src: m.Name, tag: int32(m.Seq), buf: m.Data})
				t.cond.Broadcast()
				t.mu.Unlock()
			}
		}()
	}
}

// Send delivers a buffer to the named task (on dstHost) with a tag.
func (t *Task) Send(dstHost, dstTask string, tag int32, b *Buffer) error {
	key := dstHost + "/" + dstTask
	t.mu.Lock()
	conn, ok := t.conns[key]
	t.mu.Unlock()
	if !ok {
		var err error
		conn, err = t.d.Dial(t.host, dstHost+":task-"+dstTask)
		if err != nil {
			return fmt.Errorf("msgpass: %s cannot reach %s: %w", t.name, dstTask, err)
		}
		t.mu.Lock()
		t.conns[key] = conn
		t.mu.Unlock()
	}
	return conn.Send(&wire.Message{Kind: wire.KCall, Seq: uint32(tag), Name: t.name, Data: b.data})
}

// Recv blocks until a message with the given tag arrives (any source)
// and returns its source task name and an unpack buffer. A tag of -1
// matches any message.
func (t *Task) Recv(tag int32) (string, *Buffer, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		for i, m := range t.mailbox {
			if tag == -1 || m.tag == tag {
				t.mailbox = append(t.mailbox[:i], t.mailbox[i+1:]...)
				return m.src, &Buffer{data: m.buf}, nil
			}
		}
		if t.closed {
			return "", nil, fmt.Errorf("msgpass: task %s closed", t.name)
		}
		t.cond.Wait()
	}
}

// Close shuts the task down; blocked Recvs fail.
func (t *Task) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	conns := t.conns
	t.conns = map[string]wire.Conn{}
	t.cond.Broadcast()
	t.mu.Unlock()
	t.l.Close()
	for _, c := range conns {
		c.Close()
	}
}
