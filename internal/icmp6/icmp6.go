// Package icmp6 implements the IPv6 and ICMPv6 wire formats needed to
// extend the monitor to IPv6 — the paper's stated future-work direction
// (§6): Ukraine's IPv6 adoption grew through the war (Fig 20), and ICMPv6
// error messages reveal home routers that IPv4 NAT hides.
//
// The package provides the fixed IPv6 header codec, ICMPv6 messages with
// the pseudo-header checksum (RFC 4443), echo request/reply, and parsing of
// error messages down to the embedded original packet, which is how error
// sources (routers) are identified.
package icmp6

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Protocol numbers.
const (
	NextHeaderICMPv6 = 58
)

// ICMPv6 message types (RFC 4443).
const (
	TypeDestUnreachable uint8 = 1
	TypePacketTooBig    uint8 = 2
	TypeTimeExceeded    uint8 = 3
	TypeParamProblem    uint8 = 4
	TypeEchoRequest     uint8 = 128
	TypeEchoReply       uint8 = 129
)

// IPv6HeaderLen is the fixed IPv6 header size.
const IPv6HeaderLen = 40

// HeaderLen is the fixed ICMPv6 header size.
const HeaderLen = 8

// Errors.
var (
	ErrShortPacket = errors.New("icmp6: short packet")
	ErrBadVersion  = errors.New("icmp6: not an IPv6 packet")
	ErrBadChecksum = errors.New("icmp6: bad checksum")
	ErrNotError    = errors.New("icmp6: not an error message")
)

// IPv6Header is a fixed IPv6 header (extension headers unsupported — the
// monitor never emits them).
type IPv6Header struct {
	TrafficClass uint8
	FlowLabel    uint32 // 20 bits
	NextHeader   uint8
	HopLimit     uint8
	Src, Dst     netip.Addr // must be IPv6
}

// MarshalIPv6 encodes the header plus payload.
func MarshalIPv6(h IPv6Header, payload []byte) ([]byte, error) {
	if !h.Src.Is6() || !h.Dst.Is6() {
		return nil, errors.New("icmp6: addresses must be IPv6")
	}
	b := make([]byte, IPv6HeaderLen+len(payload))
	b[0] = 6<<4 | h.TrafficClass>>4
	b[1] = h.TrafficClass<<4 | uint8(h.FlowLabel>>16&0x0f)
	binary.BigEndian.PutUint16(b[2:], uint16(h.FlowLabel))
	binary.BigEndian.PutUint16(b[4:], uint16(len(payload)))
	b[6] = h.NextHeader
	b[7] = h.HopLimit
	src := h.Src.As16()
	dst := h.Dst.As16()
	copy(b[8:24], src[:])
	copy(b[24:40], dst[:])
	copy(b[IPv6HeaderLen:], payload)
	return b, nil
}

// ParseIPv6 decodes an IPv6 packet, returning the header and payload
// (aliasing b).
func ParseIPv6(b []byte) (IPv6Header, []byte, error) {
	if len(b) < IPv6HeaderLen {
		return IPv6Header{}, nil, ErrShortPacket
	}
	if b[0]>>4 != 6 {
		return IPv6Header{}, nil, ErrBadVersion
	}
	h := IPv6Header{
		TrafficClass: b[0]<<4 | b[1]>>4,
		FlowLabel:    uint32(b[1]&0x0f)<<16 | uint32(binary.BigEndian.Uint16(b[2:])),
		NextHeader:   b[6],
		HopLimit:     b[7],
		Src:          netip.AddrFrom16([16]byte(b[8:24])),
		Dst:          netip.AddrFrom16([16]byte(b[24:40])),
	}
	plen := int(binary.BigEndian.Uint16(b[4:]))
	if len(b) < IPv6HeaderLen+plen {
		return IPv6Header{}, nil, fmt.Errorf("%w: payload length %d", ErrShortPacket, plen)
	}
	return h, b[IPv6HeaderLen : IPv6HeaderLen+plen], nil
}

// Checksum computes the ICMPv6 checksum over the message with the IPv6
// pseudo-header (RFC 4443 §2.3).
func Checksum(src, dst netip.Addr, msg []byte) uint16 {
	var sum uint32
	add16 := func(b []byte) {
		n := len(b) &^ 1
		for i := 0; i < n; i += 2 {
			sum += uint32(b[i])<<8 | uint32(b[i+1])
		}
		if len(b)&1 == 1 {
			sum += uint32(b[len(b)-1]) << 8
		}
	}
	s := src.As16()
	d := dst.As16()
	add16(s[:])
	add16(d[:])
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(msg)))
	add16(l[:])
	add16([]byte{0, 0, 0, NextHeaderICMPv6})
	add16(msg)
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// Message is a decoded ICMPv6 message.
type Message struct {
	Type    uint8
	Code    uint8
	ID      uint16 // echo messages
	Seq     uint16 // echo messages
	Payload []byte
}

// IsError reports whether the message is an ICMPv6 error (types < 128).
func (m *Message) IsError() bool { return m.Type < 128 }

// Marshal encodes the message with the correct pseudo-header checksum for
// the given source and destination.
func Marshal(src, dst netip.Addr, m Message) []byte {
	b := make([]byte, HeaderLen+len(m.Payload))
	b[0] = m.Type
	b[1] = m.Code
	binary.BigEndian.PutUint16(b[4:], m.ID)
	binary.BigEndian.PutUint16(b[6:], m.Seq)
	copy(b[HeaderLen:], m.Payload)
	binary.BigEndian.PutUint16(b[2:], Checksum(src, dst, b))
	return b
}

// Parse decodes an ICMPv6 message, verifying the checksum against the
// given addresses.
func Parse(src, dst netip.Addr, b []byte) (Message, error) {
	if len(b) < HeaderLen {
		return Message{}, ErrShortPacket
	}
	cs := binary.BigEndian.Uint16(b[2:])
	cp := make([]byte, len(b))
	copy(cp, b)
	cp[2], cp[3] = 0, 0
	if Checksum(src, dst, cp) != cs {
		return Message{}, ErrBadChecksum
	}
	return Message{
		Type:    b[0],
		Code:    b[1],
		ID:      binary.BigEndian.Uint16(b[4:]),
		Seq:     binary.BigEndian.Uint16(b[6:]),
		Payload: b[HeaderLen:],
	}, nil
}

// EchoRequest builds an encoded echo request datagram payload.
func EchoRequest(src, dst netip.Addr, id, seq uint16, payload []byte) []byte {
	return Marshal(src, dst, Message{Type: TypeEchoRequest, ID: id, Seq: seq, Payload: payload})
}

// EchoReplyFor builds the reply to a parsed echo request, addressed back
// from dst to src.
func EchoReplyFor(src, dst netip.Addr, req Message) []byte {
	return Marshal(dst, src, Message{Type: TypeEchoReply, ID: req.ID, Seq: req.Seq, Payload: req.Payload})
}

// TimeExceeded builds an encoded time-exceeded error from an intermediate
// router, quoting as much of the original datagram as fits (RFC 4443: up to
// the minimum MTU).
func TimeExceeded(router, origSrc netip.Addr, original []byte) []byte {
	// Error messages carry 4 unused bytes (the Message ID/Seq slot) and
	// then as much of the original datagram as fits below the minimum MTU.
	quote := original
	if max := 1280 - IPv6HeaderLen - HeaderLen; len(quote) > max {
		quote = quote[:max]
	}
	payload := append(make([]byte, 0, len(quote)), quote...)
	return Marshal(router, origSrc, Message{Type: TypeTimeExceeded, Payload: payload})
}

// ErrorSource describes what an ICMPv6 error message reveals: the router
// that emitted it and the original destination the probe targeted. Routers
// revealed this way are not hidden behind NAT — the visibility gain the
// paper cites for IPv6 outage signals.
type ErrorSource struct {
	Router      netip.Addr // the device that sent the error
	OriginalSrc netip.Addr
	OriginalDst netip.Addr
	ErrType     uint8
	ErrCode     uint8
}

// RevealSource parses a received IPv6 datagram carrying an ICMPv6 error and
// extracts the emitting router plus the embedded original addressing.
func RevealSource(datagram []byte) (ErrorSource, error) {
	h, payload, err := ParseIPv6(datagram)
	if err != nil {
		return ErrorSource{}, err
	}
	if h.NextHeader != NextHeaderICMPv6 {
		return ErrorSource{}, ErrNotError
	}
	m, err := Parse(h.Src, h.Dst, payload)
	if err != nil {
		return ErrorSource{}, err
	}
	if !m.IsError() {
		return ErrorSource{}, ErrNotError
	}
	// The quoted original may be truncated below its stated payload
	// length, so read the embedded header's fields directly.
	q := m.Payload
	if len(q) < IPv6HeaderLen || q[0]>>4 != 6 {
		return ErrorSource{}, ErrShortPacket
	}
	return ErrorSource{
		Router:      h.Src,
		OriginalSrc: netip.AddrFrom16([16]byte(q[8:24])),
		OriginalDst: netip.AddrFrom16([16]byte(q[24:40])),
		ErrType:     m.Type,
		ErrCode:     m.Code,
	}, nil
}
