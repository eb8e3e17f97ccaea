package icmp6

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

var (
	srcAddr = netip.MustParseAddr("2001:db8::1")
	dstAddr = netip.MustParseAddr("2a01:100::42")
	router  = netip.MustParseAddr("2a01:100::ffff")
)

func TestIPv6HeaderRoundTrip(t *testing.T) {
	h := IPv6Header{
		TrafficClass: 0xb8,
		FlowLabel:    0xabcde,
		NextHeader:   NextHeaderICMPv6,
		HopLimit:     64,
		Src:          srcAddr,
		Dst:          dstAddr,
	}
	payload := []byte("v6 payload")
	pkt, err := MarshalIPv6(h, payload)
	if err != nil {
		t.Fatal(err)
	}
	got, body, err := ParseIPv6(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.TrafficClass != h.TrafficClass || got.FlowLabel != h.FlowLabel ||
		got.NextHeader != h.NextHeader || got.HopLimit != h.HopLimit {
		t.Errorf("header = %+v", got)
	}
	if got.Src != srcAddr || got.Dst != dstAddr {
		t.Errorf("addresses = %v -> %v", got.Src, got.Dst)
	}
	if !bytes.Equal(body, payload) {
		t.Errorf("payload = %q", body)
	}
}

func TestMarshalIPv6RejectsV4(t *testing.T) {
	if _, err := MarshalIPv6(IPv6Header{Src: netip.MustParseAddr("10.0.0.1"), Dst: dstAddr}, nil); err == nil {
		t.Error("IPv4 source accepted")
	}
}

func TestParseIPv6Rejects(t *testing.T) {
	if _, _, err := ParseIPv6([]byte{1, 2, 3}); err == nil {
		t.Error("short packet accepted")
	}
	pkt, _ := MarshalIPv6(IPv6Header{Src: srcAddr, Dst: dstAddr}, nil)
	pkt[0] = 0x45
	if _, _, err := ParseIPv6(pkt); err == nil {
		t.Error("IPv4 version accepted")
	}
}

func TestEchoRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	req := EchoRequest(srcAddr, dstAddr, 0xbeef, 7, payload)
	m, err := Parse(srcAddr, dstAddr, req)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != TypeEchoRequest || m.ID != 0xbeef || m.Seq != 7 {
		t.Errorf("message = %+v", m)
	}
	if m.IsError() {
		t.Error("classification wrong")
	}
	reply := EchoReplyFor(srcAddr, dstAddr, m)
	rm, err := Parse(dstAddr, srcAddr, reply)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Type != TypeEchoReply || rm.ID != m.ID || !bytes.Equal(rm.Payload, payload) {
		t.Errorf("reply = %+v", rm)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	req := EchoRequest(srcAddr, dstAddr, 1, 2, []byte{9})
	req[4] ^= 0xff
	if _, err := Parse(srcAddr, dstAddr, req); err == nil {
		t.Error("corrupted message accepted")
	}
	// Checksum binds the addresses (pseudo-header). Note a pure src/dst
	// swap cancels out (the one's-complement sum is commutative), so test
	// with a genuinely different address.
	req2 := EchoRequest(srcAddr, dstAddr, 1, 2, []byte{9})
	other := netip.MustParseAddr("2a01:100::43")
	if _, err := Parse(srcAddr, other, req2); err == nil {
		t.Error("pseudo-header addresses not bound into checksum")
	}
}

func TestRevealSource(t *testing.T) {
	// A probe from src to dst expires at a router; the router's error
	// reveals itself and the original addressing.
	probe := EchoRequest(srcAddr, dstAddr, 5, 6, bytes.Repeat([]byte{0xaa}, 24))
	origDatagram, err := MarshalIPv6(IPv6Header{
		NextHeader: NextHeaderICMPv6, HopLimit: 1, Src: srcAddr, Dst: dstAddr,
	}, probe)
	if err != nil {
		t.Fatal(err)
	}
	errMsg := TimeExceeded(router, srcAddr, origDatagram)
	errDatagram, err := MarshalIPv6(IPv6Header{
		NextHeader: NextHeaderICMPv6, HopLimit: 64, Src: router, Dst: srcAddr,
	}, errMsg)
	if err != nil {
		t.Fatal(err)
	}
	es, err := RevealSource(errDatagram)
	if err != nil {
		t.Fatal(err)
	}
	if es.Router != router {
		t.Errorf("router = %v", es.Router)
	}
	if es.OriginalSrc != srcAddr || es.OriginalDst != dstAddr {
		t.Errorf("original = %v -> %v", es.OriginalSrc, es.OriginalDst)
	}
	if es.ErrType != TypeTimeExceeded {
		t.Errorf("type = %d", es.ErrType)
	}
}

func TestRevealSourceRejectsEcho(t *testing.T) {
	reply := Marshal(dstAddr, srcAddr, Message{Type: TypeEchoReply})
	dg, _ := MarshalIPv6(IPv6Header{NextHeader: NextHeaderICMPv6, Src: dstAddr, Dst: srcAddr}, reply)
	if _, err := RevealSource(dg); err != ErrNotError {
		t.Errorf("err = %v, want ErrNotError", err)
	}
}

func TestRevealSourceTruncatedQuote(t *testing.T) {
	// An error quoting fewer than 40 bytes of the original is rejected.
	short := Marshal(router, srcAddr, Message{Type: TypeDestUnreachable, Payload: []byte{1, 2, 3}})
	dg, _ := MarshalIPv6(IPv6Header{NextHeader: NextHeaderICMPv6, Src: router, Dst: srcAddr}, short)
	if _, err := RevealSource(dg); err == nil {
		t.Error("truncated quote accepted")
	}
}

func TestQuickEchoRoundTrip(t *testing.T) {
	f := func(id, seq uint16, payload []byte) bool {
		req := EchoRequest(srcAddr, dstAddr, id, seq, payload)
		m, err := Parse(srcAddr, dstAddr, req)
		return err == nil && m.ID == id && m.Seq == seq && bytes.Equal(m.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParseNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, err := Parse(srcAddr, dstAddr, b)
		_ = err
		_, _, err = ParseIPv6(b)
		_ = err
		_, err = RevealSource(b)
		_ = err
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
