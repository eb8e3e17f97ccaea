package netmodel

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order. Using a plain uint32 keeps the
// hot scanning and simulation paths allocation-free.
type Addr uint32

// ParseAddr parses dotted-quad notation.
func ParseAddr(s string) (Addr, error) {
	var parts [4]uint32
	rest := s
	for i := 0; i < 4; i++ {
		var tok string
		if i < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, fmt.Errorf("netmodel: invalid IPv4 address %q", s)
			}
			tok, rest = rest[:dot], rest[dot+1:]
		} else {
			tok = rest
		}
		v, err := strconv.ParseUint(tok, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("netmodel: invalid IPv4 address %q: %v", s, err)
		}
		parts[i] = uint32(v)
	}
	return Addr(parts[0]<<24 | parts[1]<<16 | parts[2]<<8 | parts[3]), nil
}

// MustParseAddr is ParseAddr that panics on error; for constants in tests and
// scenario scripts.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String returns dotted-quad notation.
func (a Addr) String() string {
	var b [15]byte
	buf := strconv.AppendUint(b[:0], uint64(a>>24), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(a>>16&0xff), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(a>>8&0xff), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(a&0xff), 10)
	return string(buf)
}

// Bytes returns the address in network byte order.
func (a Addr) Bytes() [4]byte {
	return [4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}
}

// AddrFromBytes builds an Addr from network byte order.
func AddrFromBytes(b [4]byte) Addr {
	return Addr(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
}

// Block returns the /24 block containing the address.
func (a Addr) Block() BlockID { return BlockID(a >> 8) }

// HostByte returns the low octet of the address (its index within its /24).
func (a Addr) HostByte() uint8 { return uint8(a) }

// BlockID identifies a /24 address block: the top 24 bits of its addresses.
// BlockID(a.b.c.0/24) == a<<16 | b<<8 | c.
type BlockID uint32

// BlockSize is the number of addresses in a /24 block.
const BlockSize = 256

// First returns the network (.0) address of the block.
func (b BlockID) First() Addr { return Addr(b) << 8 }

// Addr returns the host-th address of the block.
func (b BlockID) Addr(host uint8) Addr { return Addr(b)<<8 | Addr(host) }

// String renders the block in CIDR notation, e.g. "176.8.28.0/24".
func (b BlockID) String() string { return b.First().String() + "/24" }

// ParseBlock parses "a.b.c.0/24" (or any address within the block followed by
// "/24") into a BlockID.
func ParseBlock(s string) (BlockID, error) {
	base, ok := strings.CutSuffix(s, "/24")
	if !ok {
		return 0, fmt.Errorf("netmodel: block %q: only /24 blocks are supported", s)
	}
	a, err := ParseAddr(base)
	if err != nil {
		return 0, err
	}
	return a.Block(), nil
}

// MustParseBlock is ParseBlock that panics on error.
func MustParseBlock(s string) BlockID {
	b, err := ParseBlock(s)
	if err != nil {
		panic(err)
	}
	return b
}

// Prefix is an IPv4 CIDR prefix. Prefixes shorter than /24 are de-aggregated
// into /24 blocks for block-level analysis, mirroring how the paper counts
// "routed /24s".
type Prefix struct {
	Base Addr  // network address (low bits zero)
	Bits uint8 // prefix length, 0..32
}

var errBadPrefix = errors.New("netmodel: invalid prefix")

// NewPrefix returns the prefix base/bits with the host bits of base cleared.
func NewPrefix(base Addr, bits uint8) (Prefix, error) {
	if bits > 32 {
		return Prefix{}, errBadPrefix
	}
	return Prefix{Base: base & mask(bits), Bits: bits}, nil
}

// MustNewPrefix is NewPrefix that panics on error.
func MustNewPrefix(base Addr, bits uint8) Prefix {
	p, err := NewPrefix(base, bits)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePrefix parses CIDR notation "a.b.c.d/n".
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("netmodel: prefix %q: missing /bits", s)
	}
	a, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.ParseUint(s[slash+1:], 10, 8)
	if err != nil || bits > 32 {
		return Prefix{}, fmt.Errorf("netmodel: prefix %q: bad length", s)
	}
	return NewPrefix(a, uint8(bits))
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

func mask(bits uint8) Addr {
	if bits == 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - bits))
}

// Mask returns the netmask of the prefix.
func (p Prefix) Mask() Addr { return mask(p.Bits) }

// Contains reports whether a falls inside the prefix.
func (p Prefix) Contains(a Addr) bool { return a&p.Mask() == p.Base }

// NumAddrs returns the number of addresses covered by the prefix.
func (p Prefix) NumAddrs() uint64 { return uint64(1) << (32 - p.Bits) }

// NumBlocks returns the number of /24 blocks the prefix de-aggregates to.
// Prefixes longer than /24 count as one (partial) block.
func (p Prefix) NumBlocks() int {
	if p.Bits >= 24 {
		return 1
	}
	return 1 << (24 - p.Bits)
}

// Blocks de-aggregates the prefix into its /24 blocks, appending to dst and
// returning the extended slice. For prefixes longer than /24 the single
// containing block is appended.
func (p Prefix) Blocks(dst []BlockID) []BlockID {
	first := p.Base.Block()
	n := p.NumBlocks()
	for i := 0; i < n; i++ {
		dst = append(dst, first+BlockID(i))
	}
	return dst
}

// Overlaps reports whether the two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Contains(q.Base) || q.Contains(p.Base)
}

// String renders CIDR notation.
func (p Prefix) String() string {
	return p.Base.String() + "/" + strconv.Itoa(int(p.Bits))
}
