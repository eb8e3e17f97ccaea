package scanner

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"countrymon/internal/icmp"
	"countrymon/internal/netmodel"
)

// TestStampedProbeMatchesEncoder: the round stamp plus the per-probe append —
// as the engine runs them, one stamp for many send times and destinations,
// and as AppendProbeIPv4 composes them — put the bytes on the wire that the
// general datagram encoder (itself held to the byte-wise oracle in
// internal/icmp) produces from the same fields, for send times before the
// scan's start, at it, and past the 2^32 ms the payload word holds.
func TestStampedProbeMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const ms = time.Millisecond
	prefix := []byte{0xca, 0xfe, 0x01}
	for i := 0; i < 500; i++ {
		epoch := rng.Uint32()
		start := time.Unix(rng.Int63n(1<<33), rng.Int63n(1e9))
		v := NewValidator(rng.Uint64(), epoch, start)
		h := icmp.IPv4Header{
			TOS: uint8(rng.Intn(256)), TTL: uint8(rng.Intn(256)), Protocol: icmp.ProtoICMP,
			Src: netmodel.Addr(rng.Uint32()), Length: uint16(rng.Intn(1 << 16)),
		}
		if i%5 == 0 { // the corners of both sums
			h.TOS, h.TTL, h.Protocol, h.Src = 0, 0, 0, 0
		}
		var s probeStamp
		s.init(v, h)
		sinces := []time.Duration{-time.Hour, -1, 0, 1, ms - 1, ms, 123456789, 0xffff * ms, 0x10000 * ms,
			(1<<32 - 1) * ms, 1<<32*ms - 1, 1 << 32 * ms, (1<<32 + 5) * ms, time.Duration(rng.Int63n(1 << 62))}
		for _, since := range sinces {
			at := start.Add(since)
			s.sentAt(v, at)
			wantMS := uint32(max(since.Milliseconds(), 0))
			for j := 0; j < 4; j++ {
				h.Dst, h.ID = netmodel.Addr(rng.Uint32()), uint16(rng.Intn(1<<16))
				if j == 0 {
					h.Dst, h.ID = 0, 0
				}
				id, seq := v.idSeq(h.Dst)
				var payload [probePayloadLen]byte
				binary.BigEndian.PutUint32(payload[0:], epoch)
				binary.BigEndian.PutUint32(payload[4:], wantMS)
				want := icmp.AppendMarshalIPv4(nil, h, icmp.Message{Type: icmp.TypeEchoRequest, ID: id, Seq: seq, Payload: payload[:]})

				got := s.appendProbe(append([]byte(nil), prefix...), h.Dst, h.ID)
				if string(got[:len(prefix)]) != string(prefix) || string(got[len(prefix):]) != string(want) {
					t.Fatalf("case %d, sent %v after start, to %v id %d:\nstamped %x\nencoder %x", i, since, h.Dst, h.ID, got[len(prefix):], want)
				}
				if pub := v.AppendProbeIPv4(nil, h, at); string(pub) != string(want) {
					t.Fatalf("case %d, sent %v after start, to %v id %d:\nAppendProbeIPv4 %x\nencoder         %x", i, since, h.Dst, h.ID, pub, want)
				}
			}
		}
	}
}

// replyRun is a round with nothing sent, ready to be fed inbound packets.
func replyRun(t *testing.T, v *Validator, exclude ...netmodel.Prefix) *roundRun {
	t.Helper()
	ts, err := NewTargetSet([]netmodel.Prefix{netmodel.MustParsePrefix("91.198.4.0/23")}, exclude)
	if err != nil {
		t.Fatal(err)
	}
	return &roundRun{cfg: Config{}.withDefaults(), targets: ts, val: *v, blocks: make([]BlockResult, ts.NumBlocks())}
}

// echoReply is the datagram the far end sends back for v's probe to from.
func echoReply(v *Validator, vantage, from netmodel.Addr, sent time.Time) []byte {
	probe := v.AppendProbeIPv4(nil, icmp.IPv4Header{TTL: 64, Protocol: icmp.ProtoICMP, Src: vantage, Dst: from}, sent)
	return icmp.AppendMarshalIPv4(nil,
		icmp.IPv4Header{TTL: 55, Protocol: icmp.ProtoICMP, Src: from, Dst: vantage},
		icmp.Message{Type: icmp.TypeEchoReply, ID: binary.BigEndian.Uint16(probe[24:]), Seq: binary.BigEndian.Uint16(probe[26:]), Payload: probe[28:]})
}

// TestProcessReplyRejectionTable is the receive-side twin of simnet's far-end
// table: every mangled reply — each single-bit flip, every truncation, header
// edits with the checksum fixed up, a foreign identity, a stale epoch, a
// short payload — counts as Invalid and as nothing else, and the pristine
// reply still counts once as Valid and again as a Duplicate.
func TestProcessReplyRejectionTable(t *testing.T) {
	start := time.Unix(1700000000, 0)
	vantage := netmodel.MustParseAddr("198.51.100.1")
	from := netmodel.MustParseAddr("91.198.5.77")
	v := NewValidator(0xfeed, 9, start)
	good := echoReply(v, vantage, from, start.Add(20*time.Millisecond))
	at := start.Add(50 * time.Millisecond)

	edit := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	fixIP := func(b []byte, ihl int) {
		b[10], b[11] = 0, 0
		binary.BigEndian.PutUint16(b[10:], icmp.Checksum(b[:ihl]))
	}
	// remarshal re-encodes the reply with a valid checksum after m was edited.
	remarshal := func(f func(m *icmp.Message)) []byte {
		h, body, _ := icmp.ParseIPv4(good)
		m, _ := icmp.Parse(body)
		f(&m)
		return icmp.AppendMarshalIPv4(nil, h, m)
	}
	type replyCase struct {
		name string
		pkt  []byte
	}
	var invalid []replyCase
	for bit := 0; bit < 8*len(good); bit++ {
		invalid = append(invalid, replyCase{fmt.Sprintf("byte %d bit %d flipped", bit/8, bit%8),
			edit(func(b []byte) { b[bit/8] ^= 1 << (bit % 8) })})
	}
	for n := 0; n < len(good); n++ {
		invalid = append(invalid, replyCase{fmt.Sprintf("truncated to %d bytes", n), good[:n:n]})
	}
	invalid = append(invalid,
		replyCase{"version 6", edit(func(b []byte) { b[0] = 0x65; fixIP(b, 20) })},
		replyCase{"IHL 4", edit(func(b []byte) { b[0] = 0x44; fixIP(b, 16) })},
		replyCase{"IHL 6", edit(func(b []byte) { b[0] = 0x46; fixIP(b, 24) })},
		replyCase{"protocol 17", edit(func(b []byte) { b[9] = 17; fixIP(b, 20) })},
		replyCase{"total length beyond the packet", edit(func(b []byte) { binary.BigEndian.PutUint16(b[2:], uint16(len(b)+1)); fixIP(b, 20) })},
		replyCase{"total length below the header", edit(func(b []byte) { binary.BigEndian.PutUint16(b[2:], 19); fixIP(b, 20) })},
		replyCase{"total length cuts the ICMP header", edit(func(b []byte) { binary.BigEndian.PutUint16(b[2:], 27); fixIP(b, 20) })},
		replyCase{"from another address", edit(func(b []byte) { b[15] ^= 1; fixIP(b, 20) })},
		replyCase{"wrong id", remarshal(func(m *icmp.Message) { m.ID++ })},
		replyCase{"wrong seq", remarshal(func(m *icmp.Message) { m.Seq ^= 0x8000 })},
		replyCase{"nonzero code", remarshal(func(m *icmp.Message) { m.Code = 1 })},
		replyCase{"stale epoch", remarshal(func(m *icmp.Message) { m.Payload = append([]byte{0, 0, 0, 8}, m.Payload[4:]...) })},
		replyCase{"short payload", remarshal(func(m *icmp.Message) { m.Payload = m.Payload[:7] })},
		replyCase{"empty payload", remarshal(func(m *icmp.Message) { m.Payload = nil })},
	)

	r := replyRun(t, v)
	for i, c := range invalid {
		r.processReply(c.pkt, at)
		if want := (Stats{Invalid: uint64(i + 1)}); r.recv != want {
			t.Fatalf("%s: receive counters %+v, want %+v", c.name, r.recv, want)
		}
	}
	n := uint64(len(invalid))
	r.processReply(remarshal(func(m *icmp.Message) { m.Type = icmp.TypeEchoRequest }), at)
	r.processReply(remarshal(func(m *icmp.Message) { m.Type = icmp.TypeDestUnreachable }), at)
	if want := (Stats{Invalid: n, NonEcho: 2}); r.recv != want {
		t.Fatalf("non-echo messages: receive counters %+v, want %+v", r.recv, want)
	}
	for _, br := range r.blocks {
		if br.RespCount != 0 || br.RTTCount != 0 {
			t.Fatalf("a rejected reply reached block results: %+v", br)
		}
	}
	r.processReply(good, at)
	r.processReply(good, at)
	if want := (Stats{Invalid: n, NonEcho: 2, Received: 2, Valid: 1, Duplicates: 1}); r.recv != want {
		t.Fatalf("pristine reply twice: receive counters %+v, want %+v", r.recv, want)
	}
	bi := r.targets.BlockIndex(from)
	if br := r.blocks[bi]; br.RespCount != 1 || !br.Responded(from.HostByte()) || br.RTTSum != 30*time.Millisecond {
		t.Errorf("block result %+v, want host %d once with RTT 30ms", br, from.HostByte())
	}
}

// TestValidatedReplyFromNonTargetIsInvalidOnly: a reply that carries this
// scan's key and epoch but comes from a block the target set excludes is
// counted as Invalid and not as Received, so Received == Valid + Duplicates
// holds on every round.
func TestValidatedReplyFromNonTargetIsInvalidOnly(t *testing.T) {
	start := time.Unix(1700000000, 0)
	vantage := netmodel.MustParseAddr("198.51.100.1")
	v := NewValidator(0xfeed, 9, start)
	r := replyRun(t, v, netmodel.MustParsePrefix("91.198.5.0/24"))
	if r.targets.NumBlocks() != 1 {
		t.Fatalf("target set has %d blocks, want the /23 minus the excluded /24", r.targets.NumBlocks())
	}
	excluded := netmodel.MustParseAddr("91.198.5.77")
	target := netmodel.MustParseAddr("91.198.4.77")
	at := start.Add(50 * time.Millisecond)

	r.processReply(echoReply(v, vantage, excluded, start), at)
	if want := (Stats{Invalid: 1}); r.recv != want {
		t.Fatalf("forged reply from an excluded block: receive counters %+v, want %+v", r.recv, want)
	}
	r.processReply(echoReply(v, vantage, target, start), at)
	r.processReply(echoReply(v, vantage, target, start), at)
	if r.recv.Received != r.recv.Valid+r.recv.Duplicates || r.recv.Received != 2 {
		t.Errorf("receive counters %+v: Received != Valid + Duplicates", r.recv)
	}
}
