package scanner

import (
	"encoding/binary"
	"slices"
	"time"

	"countrymon/internal/icmp"
	"countrymon/internal/netmodel"
)

// Probe validation, ZMap-style: the scanner keeps no per-probe state.
// Instead the ICMP identifier and sequence number are a keyed hash of the
// destination address, and the 8-byte echo payload carries the scan epoch
// and the transmit timestamp (milliseconds since the scan started). A reply
// is accepted only if its id/seq match the hash of the replying address and
// its epoch matches the current scan, which rejects spoofed, stale and
// misdirected replies and lets RTT be computed without a send-time table.

// probePayloadLen is the echo payload size: 4 bytes epoch + 4 bytes send
// time (ms since scan start).
const probePayloadLen = 8

// probeLen is the size of a probe datagram.
const probeLen = icmp.IPv4HeaderLen + icmp.HeaderLen + probePayloadLen

// Validator derives and checks probe identities for one scan.
type Validator struct {
	idKey uint64 // key ^ epoch<<33: idWord's input next to the address
	epoch uint32
	start time.Time
}

// NewValidator creates a validator with a per-campaign secret key and a
// per-round epoch.
func NewValidator(key uint64, epoch uint32, start time.Time) *Validator {
	return &Validator{idKey: key ^ uint64(epoch)<<33, epoch: epoch, start: start}
}

// idWord computes the keyed 32-bit identity for a target address as it sits
// on the wire: ICMP identifier above sequence number.
func idWord(idKey uint64, dst netmodel.Addr) uint32 {
	return uint32(netmodel.Mix64(idKey ^ uint64(dst)<<1))
}

// idSeq is idWord split into its two fields.
func (v *Validator) idSeq(dst netmodel.Addr) (id, seq uint16) {
	w := idWord(v.idKey, dst)
	return uint16(w >> 16), uint16(w)
}

// probeStamp is everything the probes of one round, sent at one instant,
// have in common: the header words that do not name the destination, the
// payload, and the one's-complement sums over both. A probe then costs its
// own three words — destination, IPv4 ID, keyed id/seq — and folding them
// into the two sums.
type probeStamp struct {
	idKey    uint64
	verLen   uint32 // version, IHL, TOS, total length
	ttlProto uint32 // TTL and protocol, above the header checksum's half
	src      uint32
	epoch    uint32
	ms       uint32 // send time, ms since the scan started
	ipSum    uint32 // sum of verLen, ttlProto and src
	icmpSum  uint32 // sum of type/code, epoch and ms
}

const echoRequestWord = uint32(icmp.TypeEchoRequest) << 24 // type 8, code 0

// sum32 adds the two 16-bit halves of a header word.
func sum32(w uint32) uint32 { return w>>16 + w&0xffff }

// init encodes and sums what v and h fix for a whole round: identity key and
// epoch; TOS, TTL, protocol and source. h.ID and h.Dst belong to each probe,
// and the send time is set by sentAt.
func (s *probeStamp) init(v *Validator, h icmp.IPv4Header) {
	s.idKey = v.idKey
	s.verLen = 0x4500<<16 | uint32(h.TOS)<<16 | probeLen
	s.ttlProto = uint32(h.TTL)<<24 | uint32(h.Protocol)<<16
	s.src = uint32(h.Src)
	s.epoch = v.epoch
	s.ipSum = sum32(s.verLen) + sum32(s.ttlProto) + sum32(s.src)
}

// sentAt sets the send time the probes appended from here on carry.
func (s *probeStamp) sentAt(v *Validator, at time.Time) {
	ms := at.Sub(v.start).Milliseconds()
	if ms < 0 {
		ms = 0
	}
	s.ms = uint32(ms)
	s.icmpSum = sum32(echoRequestWord) + sum32(s.epoch) + sum32(s.ms)
}

// appendProbe appends the probe datagram for dst, with IPv4 ID id, to buf.
func (s *probeStamp) appendProbe(buf []byte, dst netmodel.Addr, id uint16) []byte {
	idSeq := idWord(s.idKey, dst)
	ipCS := icmp.FoldChecksum(s.ipSum + uint32(id) + sum32(uint32(dst)))
	icmpCS := icmp.FoldChecksum(s.icmpSum + sum32(idSeq))
	n := len(buf)
	buf = slices.Grow(buf, probeLen)[:n+probeLen]
	b := buf[n : n+probeLen]
	binary.BigEndian.PutUint32(b[0:], s.verLen)
	binary.BigEndian.PutUint32(b[4:], uint32(id)<<16) // never fragmented
	binary.BigEndian.PutUint32(b[8:], s.ttlProto|uint32(ipCS))
	binary.BigEndian.PutUint32(b[12:], s.src)
	binary.BigEndian.PutUint32(b[16:], uint32(dst))
	binary.BigEndian.PutUint32(b[20:], echoRequestWord|uint32(icmpCS))
	binary.BigEndian.PutUint32(b[24:], idSeq)
	binary.BigEndian.PutUint32(b[28:], s.epoch)
	binary.BigEndian.PutUint32(b[32:], s.ms)
	return buf
}

// AppendProbeIPv4 appends the complete IPv4+ICMP probe datagram for h.Dst,
// sent at `at`, to buf: the round's stamp followed by the per-probe append
// the engine runs. The probe identity is derived from h.Dst; h.Protocol
// should be icmp.ProtoICMP.
func (v *Validator) AppendProbeIPv4(buf []byte, h icmp.IPv4Header, at time.Time) []byte {
	var s probeStamp
	s.init(v, h)
	s.sentAt(v, at)
	return s.appendProbe(buf, h.Dst, h.ID)
}

// ProbeReply is a validated echo reply.
type ProbeReply struct {
	From netmodel.Addr
	RTT  time.Duration
}

// DecodeReply validates an ICMP message received from `from` at `at`. It
// returns ok=false for anything that is not a well-formed echo reply to one
// of this scan's probes.
func (v *Validator) DecodeReply(from netmodel.Addr, m icmp.Message, at time.Time) (ProbeReply, bool) {
	if m.Type != icmp.TypeEchoReply || m.Code != 0 {
		return ProbeReply{}, false
	}
	id, seq := v.idSeq(from)
	if m.ID != id || m.Seq != seq {
		return ProbeReply{}, false
	}
	if len(m.Payload) < probePayloadLen {
		return ProbeReply{}, false
	}
	if binary.BigEndian.Uint32(m.Payload[0:]) != v.epoch {
		return ProbeReply{}, false
	}
	sentMS := binary.BigEndian.Uint32(m.Payload[4:])
	rtt := at.Sub(v.start) - time.Duration(sentMS)*time.Millisecond
	if rtt < 0 {
		rtt = 0
	}
	return ProbeReply{From: from, RTT: rtt}, true
}
