package icmp

import (
	"testing"

	"countrymon/internal/netmodel"
)

// The batch send path re-encodes one probe per target per round; the append
// encoders must stay allocation-free once the reused buffer has warmed up.

func benchMessage(i int) Message {
	return Message{
		Type: TypeEchoRequest,
		ID:   uint16(i),
		Seq:  uint16(i >> 16),
		Payload: []byte{
			byte(i), byte(i >> 8), byte(i >> 16), byte(i >> 24), 1, 2, 3, 4,
		},
	}
}

func BenchmarkAppendMarshal(b *testing.B) {
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	m := Message{Type: TypeEchoRequest, ID: 7, Seq: 9, Payload: payload}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ID, m.Seq = uint16(i), uint16(i>>16)
		buf = AppendMarshal(buf[:0], m)
	}
	if len(buf) != HeaderLen+len(payload) {
		b.Fatalf("encoded %d bytes", len(buf))
	}
}

func BenchmarkAppendMarshalIPv4(b *testing.B) {
	h := IPv4Header{
		TTL: 64, Protocol: ProtoICMP,
		Src: netmodel.MustParseAddr("198.51.100.1"),
		Dst: netmodel.MustParseAddr("91.198.4.7"),
	}
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	m := Message{Type: TypeEchoRequest, ID: 7, Seq: 9, Payload: payload}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ID, m.Seq, h.ID = uint16(i), uint16(i>>16), uint16(i)
		buf = AppendMarshalIPv4(buf[:0], h, m)
	}
	if len(buf) != IPv4HeaderLen+HeaderLen+len(payload) {
		b.Fatalf("encoded %d bytes", len(buf))
	}
}

// TestAppendEncodersZeroAlloc pins the 0 allocs/op claim independent of
// benchmark noise.
func TestAppendEncodersZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats the append-extension optimization")
	}
	h := IPv4Header{
		TTL: 64, Protocol: ProtoICMP,
		Src: netmodel.MustParseAddr("198.51.100.1"),
		Dst: netmodel.MustParseAddr("91.198.4.7"),
	}
	m := benchMessage(42)
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(200, func() {
		buf = AppendMarshal(buf[:0], m)
	}); n != 0 {
		t.Errorf("AppendMarshal: %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		buf = AppendMarshalIPv4(buf[:0], h, m)
	}); n != 0 {
		t.Errorf("AppendMarshalIPv4: %.1f allocs/op, want 0", n)
	}
}

// TestAppendMarshalIPv4MatchesTwoPass checks the one-pass datagram encoder
// against the reference's two passes (message, then header, each checksummed
// from its encoded bytes) byte for byte, and round-trips it through the
// parsers.
func TestAppendMarshalIPv4MatchesTwoPass(t *testing.T) {
	h := IPv4Header{
		TTL: 64, TOS: 3, ID: 0xBEEF, Protocol: ProtoICMP,
		Src: netmodel.MustParseAddr("198.51.100.1"),
		Dst: netmodel.MustParseAddr("91.198.4.7"),
	}
	for i := 0; i < 50; i++ {
		m := benchMessage(i * 2654435761)
		one := AppendMarshalIPv4(nil, h, m)
		two := refMarshalIPv4(h, refMarshal(m))
		if string(one) != string(two) {
			t.Fatalf("case %d: one-pass %x vs two-pass %x", i, one, two)
		}
		gotH, payload, err := ParseIPv4(one)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if gotH.Src != h.Src || gotH.Dst != h.Dst || gotH.TTL != h.TTL {
			t.Fatalf("case %d: header mismatch %+v", i, gotH)
		}
		gotM, err := Parse(payload)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if gotM.ID != m.ID || gotM.Seq != m.Seq || string(gotM.Payload) != string(m.Payload) {
			t.Fatalf("case %d: message mismatch %+v", i, gotM)
		}
	}
}
