package icmp

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"countrymon/internal/netmodel"
)

// The oracle the word-wise checksum and the sum-from-fields encoders are
// checked against: the byte-at-a-time RFC 1071 sum, and encoders that write
// every byte first and then checksum what they wrote.

// refSum is the folded, uncomplemented one's-complement sum of b, two bytes
// at a time.
func refSum(b []byte) uint16 {
	var sum uint32
	n := len(b) &^ 1
	for i := 0; i < n; i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)&1 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return uint16(sum)
}

// refMarshal encodes m, then checksums the encoded bytes.
func refMarshal(m Message) []byte {
	b := make([]byte, HeaderLen+len(m.Payload))
	b[0] = byte(m.Type)
	b[1] = m.Code
	binary.BigEndian.PutUint16(b[4:], m.ID)
	binary.BigEndian.PutUint16(b[6:], m.Seq)
	copy(b[HeaderLen:], m.Payload)
	binary.BigEndian.PutUint16(b[2:], ^refSum(b))
	return b
}

// refMarshalIPv4 encodes h in front of an arbitrary payload, then checksums
// the encoded header.
func refMarshalIPv4(h IPv4Header, payload []byte) []byte {
	b := make([]byte, IPv4HeaderLen+len(payload))
	b[0] = 0x45
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:], uint16(len(b)))
	binary.BigEndian.PutUint16(b[4:], h.ID)
	b[8] = h.TTL
	b[9] = h.Protocol
	src, dst := h.Src.Bytes(), h.Dst.Bytes()
	copy(b[12:16], src[:])
	copy(b[16:20], dst[:])
	binary.BigEndian.PutUint16(b[10:], ^refSum(b[:IPv4HeaderLen]))
	copy(b[IPv4HeaderLen:], payload)
	return b
}

// checkSum16 compares every view of the word-wise sum with the oracle.
func checkSum16(t *testing.T, b []byte) {
	t.Helper()
	want := refSum(b)
	if got := sum16(b); got != uint32(want) {
		t.Fatalf("sum16(%x) = %#x, oracle %#x", b, got, want)
	}
	if got := Checksum(b); got != ^want {
		t.Fatalf("Checksum(%x) = %#x, oracle %#x", b, got, ^want)
	}
	if got := VerifyChecksum(b); got != (want == 0xffff) {
		t.Fatalf("VerifyChecksum(%x) = %v, oracle sum %#x", b, got, want)
	}
}

func TestSum16MatchesByteWiseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1071))
	for n := 0; n <= 64; n++ {
		checkSum16(t, make([]byte, n))
		checkSum16(t, bytes.Repeat([]byte{0xff}, n))
		for rep := 0; rep < 50; rep++ {
			b := make([]byte, n)
			rng.Read(b)
			checkSum16(t, b)
			// Every offset into a buffer, so the eight-byte loads are
			// exercised at every alignment.
			checkSum16(t, b[rep%(n+1):])
		}
	}
	// Long enough for the 32-bit halves to carry many times over.
	checkSum16(t, bytes.Repeat([]byte{0xff}, 1<<16+3))
}

func FuzzChecksum(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Add(bytes.Repeat([]byte{0xff}, 33))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSum16(t, data)
	})
}

// TestEncodersMatchOracle checks the sum-from-fields encoders against the
// write-then-checksum oracle over random fields and every payload length
// around the word-size boundaries, appending behind existing bytes.
func TestEncodersMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(792))
	prefix := []byte{0xde, 0xad, 0xbe}
	for i := 0; i < 4000; i++ {
		payload := make([]byte, i%70)
		rng.Read(payload)
		if i%7 == 0 {
			payload = bytes.Repeat([]byte{byte(0xff * (i / 7 % 2))}, len(payload))
		}
		m := Message{
			Type: Type(rng.Intn(256)), Code: uint8(rng.Intn(256)),
			ID: uint16(rng.Intn(1 << 16)), Seq: uint16(rng.Intn(1 << 16)),
			Payload: payload,
		}
		h := IPv4Header{
			TOS: uint8(rng.Intn(256)), ID: uint16(rng.Intn(1 << 16)),
			TTL: uint8(rng.Intn(256)), Protocol: uint8(rng.Intn(256)),
			Src: netmodel.Addr(rng.Uint32()), Dst: netmodel.Addr(rng.Uint32()),
			Length: uint16(rng.Intn(1 << 16)), // ignored by both encoders
		}
		if i%11 == 0 { // the all-zero and all-ones corners of the sum
			m.Type, m.Code, m.ID, m.Seq = 0, 0, 0, 0
			h = IPv4Header{}
		}
		wantM := refMarshal(m)
		if got := AppendMarshal(nil, m); !bytes.Equal(got, wantM) {
			t.Fatalf("case %d: AppendMarshal(%+v)\n got %x\nwant %x", i, m, got, wantM)
		}
		if got := AppendMarshal(bytes.Clone(prefix), m); !bytes.Equal(got, append(bytes.Clone(prefix), wantM...)) {
			t.Fatalf("case %d: AppendMarshal behind a prefix: %x", i, got)
		}
		wantD := refMarshalIPv4(h, wantM)
		if got := AppendMarshalIPv4(nil, h, m); !bytes.Equal(got, wantD) {
			t.Fatalf("case %d: AppendMarshalIPv4(%+v, %+v)\n got %x\nwant %x", i, h, m, got, wantD)
		}
		if got := AppendMarshalIPv4(bytes.Clone(prefix), h, m); !bytes.Equal(got, append(bytes.Clone(prefix), wantD...)) {
			t.Fatalf("case %d: AppendMarshalIPv4 behind a prefix: %x", i, got)
		}
	}
}
