package icmp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"countrymon/internal/netmodel"
)

// IPv4HeaderLen is the length of an IPv4 header without options.
const IPv4HeaderLen = 20

// IPv4 protocol numbers used by the monitor.
const (
	ProtoICMP = 1
)

// IPv4Header is a minimal IPv4 header (no options), sufficient for the
// scanner and the simulated network.
type IPv4Header struct {
	TOS      uint8
	ID       uint16
	TTL      uint8
	Protocol uint8
	Src, Dst netmodel.Addr
	Length   uint16 // total length incl. header: set by ParseIPv4, ignored by the encoder
}

var (
	ErrShortPacket = errors.New("icmp: short packet")
	ErrBadVersion  = errors.New("icmp: not an IPv4 packet")
	ErrBadChecksum = errors.New("icmp: bad checksum")
)

// AppendMarshalIPv4 appends a complete IPv4+ICMP datagram to dst: the IPv4
// header, its checksum summed from the fields as they are written, then the
// message as AppendMarshal encodes it. dst grows at most once, and with a
// reused buffer the encode performs no allocations.
func AppendMarshalIPv4(dst []byte, h IPv4Header, m Message) []byte {
	total := IPv4HeaderLen + HeaderLen + len(m.Payload)
	verTOS := 0x4500 | uint32(h.TOS) // version 4, IHL 5
	length := uint32(uint16(total))
	ttlProto := uint32(h.TTL)<<8 | uint32(h.Protocol)
	src, dstA := uint32(h.Src), uint32(h.Dst)
	cs := FoldChecksum(verTOS + length + uint32(h.ID) + ttlProto +
		src>>16 + src&0xffff + dstA>>16 + dstA&0xffff)
	dst = slices.Grow(dst, total)
	dst = binary.BigEndian.AppendUint32(dst, verTOS<<16|length)
	// flags+fragment offset zero: the monitor never fragments.
	dst = binary.BigEndian.AppendUint32(dst, uint32(h.ID)<<16)
	dst = binary.BigEndian.AppendUint32(dst, ttlProto<<16|uint32(cs))
	dst = binary.BigEndian.AppendUint32(dst, src)
	dst = binary.BigEndian.AppendUint32(dst, dstA)
	return AppendMarshal(dst, m)
}

// ParseIPv4 decodes an IPv4 packet, returning the header and its payload
// (aliasing b). The header checksum is verified.
func ParseIPv4(b []byte) (IPv4Header, []byte, error) {
	var h IPv4Header
	body, err := h.Parse(b)
	return h, body, err
}

// Parse is ParseIPv4 into h, in place: per-packet loops keep one header and
// read its fields where they were written instead of copying the struct out
// of every call. h is left untouched when an error is returned.
func (h *IPv4Header) Parse(b []byte) ([]byte, error) {
	if len(b) < IPv4HeaderLen {
		return nil, ErrShortPacket
	}
	if b[0]>>4 != 4 {
		return nil, ErrBadVersion
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(b) < ihl {
		return nil, fmt.Errorf("%w: IHL %d", ErrShortPacket, ihl)
	}
	if !VerifyChecksum(b[:ihl]) {
		return nil, ErrBadChecksum
	}
	total := int(binary.BigEndian.Uint16(b[2:]))
	if total < ihl || total > len(b) {
		return nil, fmt.Errorf("%w: total length %d", ErrShortPacket, total)
	}
	h.TOS = b[1]
	h.ID = binary.BigEndian.Uint16(b[4:])
	h.TTL = b[8]
	h.Protocol = b[9]
	h.Src = netmodel.Addr(binary.BigEndian.Uint32(b[12:]))
	h.Dst = netmodel.Addr(binary.BigEndian.Uint32(b[16:]))
	h.Length = uint16(total)
	return b[ihl:total], nil
}
