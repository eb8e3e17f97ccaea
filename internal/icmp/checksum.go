// Package icmp implements the IPv4 and ICMPv4 wire formats the scanner and
// the simulated network exchange: header marshaling, the Internet checksum,
// echo request/reply and destination-unreachable messages.
//
// Only the stdlib is used; packets are encoded to and decoded from []byte so
// the same code path runs over the in-memory simulated wire, a UDP tunnel, or
// (with privileges) a raw socket.
package icmp

import "encoding/binary"

// Checksum computes the Internet checksum (RFC 1071) over b.
func Checksum(b []byte) uint16 { return FoldChecksum(sum16(b)) }

// VerifyChecksum reports whether b (with its embedded checksum field) sums to
// the all-ones complement zero, i.e. the checksum is valid.
func VerifyChecksum(b []byte) bool { return FoldChecksum(sum16(b)) == 0 }

// FoldChecksum finishes a checksum whose 16-bit big-endian words were added
// up in sum — by sum16 over bytes, from header fields, or both — folding the
// carries back in and complementing. Because 2^16 ≡ 1 (mod 0xffff), words may
// be added in any grouping, and the result is the one Checksum gives over
// the encoded bytes.
func FoldChecksum(sum uint32) uint16 {
	sum = sum&0xffff + sum>>16
	sum = sum&0xffff + sum>>16
	return ^uint16(sum)
}

// sum16 is the one's-complement sum of b's 16-bit big-endian words, an odd
// last byte padded with zero, folded into 16 bits and not complemented. It
// reads eight bytes per load and adds them as two 32-bit halves, which a
// uint64 holds without overflow for any b shorter than 16 GiB.
func sum16(b []byte) uint32 {
	var sum uint64
	for len(b) >= 8 {
		v := binary.BigEndian.Uint64(b)
		sum += v>>32 + v&0xffffffff
		b = b[8:]
	}
	if len(b) >= 4 {
		sum += uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	sum = sum&0xffffffff + sum>>32
	sum = sum&0xffffffff + sum>>32
	sum = sum&0xffff + sum>>16
	return uint32(sum&0xffff + sum>>16)
}
