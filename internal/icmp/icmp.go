package icmp

import (
	"encoding/binary"
	"fmt"
)

// Type is the ICMPv4 message type.
type Type uint8

// ICMPv4 message types used by the monitor.
const (
	TypeEchoReply       Type = 0
	TypeDestUnreachable Type = 3
	TypeEchoRequest     Type = 8
	TypeTimeExceeded    Type = 11
)

// Destination-unreachable codes.
const (
	CodeNetUnreachable  uint8 = 0
	CodeHostUnreachable uint8 = 1
	CodeAdminProhibited uint8 = 13
)

// HeaderLen is the fixed ICMP header length.
const HeaderLen = 8

// Message is a decoded ICMPv4 message. For echo messages ID/Seq carry the
// identifier and sequence number; for error messages Payload carries the
// embedded original datagram.
type Message struct {
	Type    Type
	Code    uint8
	ID      uint16
	Seq     uint16
	Payload []byte
}

// Echo reports whether the message is an echo request or reply.
func (m *Message) Echo() bool {
	return m.Type == TypeEchoRequest || m.Type == TypeEchoReply
}

// Marshal encodes the message with a correct checksum.
func Marshal(m Message) []byte {
	return AppendMarshal(nil, m)
}

// AppendMarshal appends the encoded message to dst in one pass — header,
// payload and checksum written directly into the extended slice — and
// returns it. With a reused buffer the encode performs no allocations.
func AppendMarshal(dst []byte, m Message) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, HeaderLen+len(m.Payload))...)
	b := dst[off:]
	b[0] = byte(m.Type)
	b[1] = m.Code
	b[2], b[3] = 0, 0
	binary.BigEndian.PutUint16(b[4:], m.ID)
	binary.BigEndian.PutUint16(b[6:], m.Seq)
	copy(b[HeaderLen:], m.Payload)
	binary.BigEndian.PutUint16(b[2:], Checksum(b))
	return dst
}

// Parse decodes an ICMPv4 message and verifies its checksum. The returned
// payload aliases b.
func Parse(b []byte) (Message, error) {
	if len(b) < HeaderLen {
		return Message{}, ErrShortPacket
	}
	if !VerifyChecksum(b) {
		return Message{}, ErrBadChecksum
	}
	m := Message{
		Type:    Type(b[0]),
		Code:    b[1],
		ID:      binary.BigEndian.Uint16(b[4:]),
		Seq:     binary.BigEndian.Uint16(b[6:]),
		Payload: b[HeaderLen:],
	}
	return m, nil
}

// EchoRequest builds an encoded echo request with the given identifier,
// sequence number and payload.
func EchoRequest(id, seq uint16, payload []byte) []byte {
	return Marshal(Message{Type: TypeEchoRequest, ID: id, Seq: seq, Payload: payload})
}

// EchoReplyFor builds the encoded echo reply answering the given request
// message, echoing ID, Seq and payload as RFC 792 requires.
func EchoReplyFor(req Message) []byte {
	return Marshal(Message{Type: TypeEchoReply, ID: req.ID, Seq: req.Seq, Payload: req.Payload})
}

// DestUnreachable builds an encoded destination-unreachable message quoting
// the original datagram (which should be the IP header + first 8 payload
// bytes, per RFC 792).
func DestUnreachable(code uint8, original []byte) []byte {
	quote := original
	if max := IPv4HeaderLen + 8; len(quote) > max {
		quote = quote[:max]
	}
	return Marshal(Message{Type: TypeDestUnreachable, Code: code, Payload: quote})
}

func (t Type) String() string {
	switch t {
	case TypeEchoReply:
		return "echo-reply"
	case TypeDestUnreachable:
		return "dest-unreachable"
	case TypeEchoRequest:
		return "echo-request"
	case TypeTimeExceeded:
		return "time-exceeded"
	}
	return fmt.Sprintf("type-%d", uint8(t))
}
