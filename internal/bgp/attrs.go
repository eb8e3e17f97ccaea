// Package bgp is the routing substrate of the monitor: an MRT TABLE_DUMP_V2
// reader/writer (RFC 6396) and the path-attribute codec it uses (RFC 4271
// attributes with 4-octet AS numbers); RIB snapshots per round.
//
// The BGP★ outage signal is derived from RIB snapshots: the number of routed
// /24 blocks per origin AS (and per region), exactly as the paper derives it
// from RouteViews dumps.
package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"countrymon/internal/netmodel"
)

// Origin attribute values.
const (
	OriginIGP        = 0
	OriginEGP        = 1
	OriginIncomplete = 2
)

// Path attribute type codes.
const (
	attrOrigin  = 1
	attrASPath  = 2
	attrNextHop = 3
)

// AS_PATH segment types.
const (
	asSet      = 1
	asSequence = 2
)

// ErrShortMessage reports a prefix or path attribute cut short.
var ErrShortMessage = errors.New("bgp: short message")

func prefixWireLen(p netmodel.Prefix) int { return 1 + (int(p.Bits)+7)/8 }

func putPrefix(b []byte, p netmodel.Prefix) int {
	b[0] = p.Bits
	nb := (int(p.Bits) + 7) / 8
	base := p.Base.Bytes()
	copy(b[1:1+nb], base[:nb])
	return 1 + nb
}

func getPrefix(b []byte) (netmodel.Prefix, int, error) {
	if len(b) < 1 {
		return netmodel.Prefix{}, 0, ErrShortMessage
	}
	bits := b[0]
	if bits > 32 {
		return netmodel.Prefix{}, 0, fmt.Errorf("bgp: prefix length %d", bits)
	}
	nb := (int(bits) + 7) / 8
	if len(b) < 1+nb {
		return netmodel.Prefix{}, 0, ErrShortMessage
	}
	var raw [4]byte
	copy(raw[:], b[1:1+nb])
	p, err := netmodel.NewPrefix(netmodel.AddrFromBytes(raw), bits)
	return p, 1 + nb, err
}

// marshalPathAttrs encodes the mandatory path attributes (ORIGIN, AS_PATH
// with 4-octet AS numbers, NEXT_HOP) of a TABLE_DUMP_V2 RIB entry.
func marshalPathAttrs(origin uint8, asPath []netmodel.ASN, nextHop netmodel.Addr) ([]byte, error) {
	var attrs []byte
	attrs = append(attrs, 0x40, attrOrigin, 1, origin)
	if len(asPath) > 255 {
		return nil, errors.New("bgp: AS path too long")
	}
	seg := make([]byte, 2+4*len(asPath))
	seg[0] = asSequence
	seg[1] = byte(len(asPath))
	for i, as := range asPath {
		binary.BigEndian.PutUint32(seg[2+4*i:], uint32(as))
	}
	if len(seg) > 255 {
		attrs = append(attrs, 0x50, attrASPath, byte(len(seg)>>8), byte(len(seg)))
	} else {
		attrs = append(attrs, 0x40, attrASPath, byte(len(seg)))
	}
	attrs = append(attrs, seg...)
	nh := nextHop.Bytes()
	attrs = append(attrs, 0x40, attrNextHop, 4)
	attrs = append(attrs, nh[:]...)
	return attrs, nil
}

// parsePathAttrs decodes a path-attribute sequence into the given fields.
func parsePathAttrs(attrs []byte, origin *uint8, asPath *[]netmodel.ASN, nextHop *netmodel.Addr) error {
	for len(attrs) > 0 {
		if len(attrs) < 3 {
			return ErrShortMessage
		}
		flags, code := attrs[0], attrs[1]
		var alen, hdr int
		if flags&0x10 != 0 { // extended length
			if len(attrs) < 4 {
				return ErrShortMessage
			}
			alen, hdr = int(binary.BigEndian.Uint16(attrs[2:])), 4
		} else {
			alen, hdr = int(attrs[2]), 3
		}
		if len(attrs) < hdr+alen {
			return ErrShortMessage
		}
		body := attrs[hdr : hdr+alen]
		switch code {
		case attrOrigin:
			if alen != 1 {
				return errors.New("bgp: bad ORIGIN length")
			}
			*origin = body[0]
		case attrASPath:
			for len(body) > 0 {
				if len(body) < 2 {
					return ErrShortMessage
				}
				segType, count := body[0], int(body[1])
				need := 2 + 4*count
				if len(body) < need {
					return ErrShortMessage
				}
				if segType != asSequence && segType != asSet {
					return fmt.Errorf("bgp: AS_PATH segment type %d", segType)
				}
				for i := 0; i < count; i++ {
					*asPath = append(*asPath, netmodel.ASN(binary.BigEndian.Uint32(body[2+4*i:])))
				}
				body = body[need:]
			}
			if len(*asPath) > 255 { // what marshalPathAttrs can write back
				return errors.New("bgp: AS path too long")
			}
		case attrNextHop:
			if alen != 4 {
				return errors.New("bgp: bad NEXT_HOP length")
			}
			*nextHop = netmodel.AddrFromBytes([4]byte(body))
		}
		attrs = attrs[hdr+alen:]
	}
	return nil
}
