package icmp

import (
	"bytes"
	"testing"

	"countrymon/internal/netmodel"
)

// Fuzz targets for the two parsers every inbound packet passes through. The
// scanner feeds them raw bytes off the wire (or from the fault injector's
// truncation path), so they must never panic and must uphold their
// re-marshal invariants on everything they accept.

// fuzzSeeds returns realistic packets: the probes and replies the scanner
// actually exchanges, plus truncated and corrupted variants.
func fuzzSeeds() [][]byte {
	src := netmodel.AddrFromBytes([4]byte{198, 51, 100, 1})
	dst := netmodel.AddrFromBytes([4]byte{91, 198, 4, 7})
	payload := []byte{0, 0, 0, 7, 0, 1, 226, 64} // epoch + ms, as probes carry
	reqMsg := Message{Type: TypeEchoRequest, ID: 0xbeef, Seq: 0x0102, Payload: payload}
	req := AppendMarshal(nil, reqMsg)
	probe := AppendMarshalIPv4(nil, IPv4Header{TTL: 64, Protocol: ProtoICMP, Src: src, Dst: dst, ID: 42}, reqMsg)
	back := IPv4Header{TTL: 55, Protocol: ProtoICMP, Src: dst, Dst: src}
	reply := AppendMarshalIPv4(nil, back, Message{Type: TypeEchoReply, ID: reqMsg.ID, Seq: reqMsg.Seq, Payload: payload})
	unreach := AppendMarshalIPv4(nil, back,
		Message{Type: TypeDestUnreachable, Code: CodeHostUnreachable, Payload: probe[:IPv4HeaderLen+8]})

	seeds := [][]byte{probe, reply, unreach, req, {}, {0x45}}
	seeds = append(seeds, probe[:len(probe)/2], reply[:IPv4HeaderLen], req[:HeaderLen-1])
	corrupt := bytes.Clone(reply)
	corrupt[10] ^= 0xff // break the header checksum
	seeds = append(seeds, corrupt)
	notV4 := bytes.Clone(probe)
	notV4[0] = 0x65
	seeds = append(seeds, notV4)
	return seeds
}

func FuzzParseIPv4(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, body, err := ParseIPv4(data)
		if err != nil {
			return
		}
		// Accepted packets satisfy the header's own framing claims.
		if int(h.Length) > len(data) {
			t.Fatalf("accepted total length %d beyond packet of %d bytes", h.Length, len(data))
		}
		if len(body) > len(data)-IPv4HeaderLen {
			t.Fatalf("body of %d bytes cannot fit a %d-byte packet", len(body), len(data))
		}
		// Re-marshaling the parsed view must parse identically (the encoders
		// always emit IHL 5, so options are dropped, not corrupted). The
		// body is arbitrary bytes, which only the reference encoder frames;
		// where it is an ICMP message, AppendMarshalIPv4 must agree with it.
		out := refMarshalIPv4(h, body)
		if m, err := Parse(body); err == nil {
			if one := AppendMarshalIPv4(nil, h, m); !bytes.Equal(one, out) {
				t.Fatalf("AppendMarshalIPv4 %x, reference %x", one, out)
			}
		}
		h2, body2, err := ParseIPv4(out)
		if err != nil {
			t.Fatalf("re-marshaled packet rejected: %v", err)
		}
		if h2.Src != h.Src || h2.Dst != h.Dst || h2.Protocol != h.Protocol || h2.TTL != h.TTL || h2.ID != h.ID {
			t.Fatalf("round-trip header mismatch: %+v vs %+v", h, h2)
		}
		if !bytes.Equal(body, body2) {
			t.Fatal("round-trip body mismatch")
		}
	})
}

func FuzzParseICMP(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Parse(data)
		if err != nil {
			return
		}
		// An accepted message re-marshals to the very same bytes: Parse
		// only admits checksum-valid messages and AppendMarshal recomputes
		// the same checksum over the same fields. One's-complement zero has
		// two spellings, though: when the rest of the message sums to zero a
		// checksum field of 0xffff verifies as well as the 0x0000
		// AppendMarshal writes (testdata/fuzz/FuzzParseICMP/3c4c0983200843d2).
		out := AppendMarshal(nil, m)
		if data[2] == 0xff && data[3] == 0xff && out[2] == 0 && out[3] == 0 {
			out[2], out[3] = 0xff, 0xff
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted message does not round-trip:\nin:  %x\nout: %x", data, out)
		}
	})
}
