package scanner

import (
	"encoding/binary"
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

// Validator derives and checks probe identities for one scan.
type Validator struct {
	key   uint64
	epoch uint32
	start time.Time
}

// NewValidator creates a validator with a per-campaign secret key and a
// per-round epoch.
func NewValidator(key uint64, epoch uint32, start time.Time) *Validator {
	return &Validator{key: key, epoch: epoch, start: start}
}

// idSeq computes the keyed 32-bit identity for a target address.
func (v *Validator) idSeq(dst netmodel.Addr) (id, seq uint16) {
	h := splitmix(v.key ^ uint64(dst)<<1 ^ uint64(v.epoch)<<33)
	return uint16(h >> 16), uint16(h)
}

// EncodeProbe builds the ICMP echo request for dst at the given send time.
func (v *Validator) EncodeProbe(dst netmodel.Addr, at time.Time) []byte {
	return v.AppendProbe(nil, dst, at)
}

// AppendProbe appends the encoded echo request to buf (allocation-free with
// a reused buffer).
func (v *Validator) AppendProbe(buf []byte, dst netmodel.Addr, at time.Time) []byte {
	id, seq := v.idSeq(dst)
	var payload [probePayloadLen]byte
	binary.BigEndian.PutUint32(payload[0:], v.epoch)
	ms := at.Sub(v.start).Milliseconds()
	if ms < 0 {
		ms = 0
	}
	binary.BigEndian.PutUint32(payload[4:], uint32(ms))
	return icmp.AppendMarshal(buf, icmp.Message{Type: icmp.TypeEchoRequest, ID: id, Seq: seq, Payload: payload[:]})
}

// AppendProbeIPv4 appends the complete IPv4+ICMP probe datagram for h.Dst
// to buf in a single pass (icmp.AppendMarshalIPv4), skipping the
// intermediate ICMP-payload buffer of AppendProbe + AppendIPv4. The probe
// identity is derived from h.Dst; h.Protocol should be icmp.ProtoICMP.
func (v *Validator) AppendProbeIPv4(buf []byte, h icmp.IPv4Header, at time.Time) []byte {
	id, seq := v.idSeq(h.Dst)
	var payload [probePayloadLen]byte
	binary.BigEndian.PutUint32(payload[0:], v.epoch)
	ms := at.Sub(v.start).Milliseconds()
	if ms < 0 {
		ms = 0
	}
	binary.BigEndian.PutUint32(payload[4:], uint32(ms))
	return icmp.AppendMarshalIPv4(buf, h, icmp.Message{
		Type: icmp.TypeEchoRequest, ID: id, Seq: seq, Payload: payload[:],
	})
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
