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

// AppendMarshal appends the encoded message to dst and returns it. The
// checksum is summed from the fields and the payload as they are written, so
// no byte is read back; with a reused buffer the encode performs no
// allocations.
func AppendMarshal(dst []byte, m Message) []byte {
	typeCode := uint32(m.Type)<<8 | uint32(m.Code)
	cs := FoldChecksum(typeCode + uint32(m.ID) + uint32(m.Seq) + sum16(m.Payload))
	dst = binary.BigEndian.AppendUint32(dst, typeCode<<16|uint32(cs))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.ID)<<16|uint32(m.Seq))
	return append(dst, m.Payload...)
}

// Parse decodes an ICMPv4 message and verifies its checksum. The returned
// payload aliases b.
func Parse(b []byte) (Message, error) {
	var m Message
	err := m.Parse(b)
	return m, err
}

// Parse is the package-level Parse into m, in place (see IPv4Header.Parse).
// m is left untouched when an error is returned.
func (m *Message) Parse(b []byte) error {
	if len(b) < HeaderLen {
		return ErrShortPacket
	}
	if !VerifyChecksum(b) {
		return ErrBadChecksum
	}
	m.Type = Type(b[0])
	m.Code = b[1]
	m.ID = binary.BigEndian.Uint16(b[4:])
	m.Seq = binary.BigEndian.Uint16(b[6:])
	m.Payload = b[HeaderLen:]
	return nil
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
