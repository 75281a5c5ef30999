package wire

import (
	"encoding/binary"
	"fmt"
)

// Batch sub-framing. A KBatch envelope's Data is a sequence of
// addressed sub-frames, each:
//
//	addrLen(2) addr(addrLen) msgLen(4) msg(msgLen)
//
// where msg is a complete Message encoding (Message.Encode). The addr
// tags the sub-request with the local process it is destined for so a
// Server can fan a host-level batch out to its processes; every
// sub-frame of the reply leaves it empty.

// Sub is one decoded sub-frame of a batch envelope.
type Sub struct {
	Addr string
	Msg  *Message
}

// AppendSub appends one addressed sub-frame carrying m to buf.
func AppendSub(buf []byte, addr string, m *Message) ([]byte, error) {
	if len(addr) >= maxString {
		return nil, fmt.Errorf("wire: batch address of %d bytes too long", len(addr))
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(addr)))
	buf = append(buf, addr...)
	// Reserve the length word, encode in place, then patch it.
	lenAt := len(buf)
	buf = binary.BigEndian.AppendUint32(buf, 0)
	buf, err := m.Encode(buf)
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint32(buf[lenAt:], uint32(len(buf)-lenAt-4))
	return buf, nil
}

// SplitSub parses the first sub-frame of buf, returning it and the
// remaining bytes.
func SplitSub(buf []byte) (sub Sub, rest []byte, err error) {
	if len(buf) < 2 {
		return Sub{}, nil, fmt.Errorf("wire: batch truncated at address length")
	}
	an := int(binary.BigEndian.Uint16(buf))
	buf = buf[2:]
	if len(buf) < an+4 {
		return Sub{}, nil, fmt.Errorf("wire: batch truncated inside address")
	}
	sub.Addr = string(buf[:an])
	mn := int(binary.BigEndian.Uint32(buf[an:]))
	buf = buf[an+4:]
	if mn > maxData+maxString*4 {
		return Sub{}, nil, fmt.Errorf("wire: batch sub-message of %d bytes too large", mn)
	}
	if len(buf) < mn {
		return Sub{}, nil, fmt.Errorf("wire: batch truncated inside sub-message")
	}
	sub.Msg, err = DecodeMessage(buf[:mn])
	if err != nil {
		return Sub{}, nil, err
	}
	return sub, buf[mn:], nil
}

// SplitBatch parses every sub-frame of a batch envelope payload.
func SplitBatch(data []byte) ([]Sub, error) {
	var subs []Sub
	for len(data) > 0 {
		sub, rest, err := SplitSub(data)
		if err != nil {
			return nil, err
		}
		subs = append(subs, sub)
		data = rest
	}
	return subs, nil
}
